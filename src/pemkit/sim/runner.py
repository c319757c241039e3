"""Single-run simulation loop and the perception sources it can consume.

A perception source receives the ground-truth world as (id, x, y, occ) in
ego-relative Cartesian coordinates and returns (source_id, x, y), which the
driving policy reads as they are. Sources: error-free ground truth, a local
model, and a remote model server. A local ``ModelSource`` opens one
``InjectorSession`` per run, the object each server connection drives, so a
run driven by either is bit-identical given the same model and seed.

``run_once`` tracks the min distance and the perception metrics as the run
goes, so a batch keeps per-tick rows only for runs whose logs are saved.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from ..checks import require_object
from ..client import PemClient, RemoteError, ServerGone
from ..geometry import OcclusionLevel
from ..inject import InjectorSession
from ..inject import apply_pem  # noqa: F401  kept resolvable: perfbench wraps runner.apply_pem
from ..model import PemModel
from .metrics import ELIGIBLE_RANGE_M, axis_half_extents, footprint_distance, perception_metrics
from .metrics import rect_distance  # noqa: F401  kept resolvable: perfbench wraps runner.rect_distance
from .occlusion import compute_occlusion  # noqa: F401  kept resolvable: perfbench wraps runner.compute_occlusion
from .occlusion import visibility
from .policy import driving_policy
from .world import ActorState, PolicyConfig, ScenarioSpec


class PerceptionUnavailable(RuntimeError):
    """The perception source could not answer; the run is aborted, not dropped."""


class GroundTruthSource:
    """Error-free perception: echoes every object, regardless of range."""

    label = "groundtruth"

    def begin_run(self, seed: int) -> None:
        pass

    def perceive(self, t: int, world: list[tuple[int, float, float, int]]) -> list[tuple[int, float, float]]:
        return [(oid, x, y) for oid, x, y, _occ in world]


class ModelSource:
    """In-process error injection: one ``InjectorSession(model, seed)`` per run."""

    def __init__(self, model: PemModel, label: str | None = None):
        self.model = model
        self.label = label or (model.metadata or "model")
        self._session: InjectorSession | None = None

    def begin_run(self, seed: int) -> None:
        self._session = InjectorSession(self.model, seed)

    def perceive(self, t: int, world: list[tuple[int, float, float, int]]) -> list[tuple[int, float, float]]:
        return self._session.frame(t, world)


class RemoteSource:
    """Perception served over the wire protocol; one init per run, on a new connection after a failure."""

    def __init__(self, host: str, port: int, model_name: str, rate_hz: float = 2.0, label: str | None = None):
        self.host = host
        self.port = port
        self.model_name = model_name
        self.rate_hz = rate_hz
        self.label = label or model_name
        self._client: PemClient | None = None

    def begin_run(self, seed: int) -> None:
        try:
            if self._client is None:
                self._client = PemClient(self.host, self.port)
            self._client.init(self.model_name, seed, self.rate_hz)
        except (OSError, RemoteError, ServerGone, ValueError) as exc:
            self.close()
            raise PerceptionUnavailable(f"init against {self.host}:{self.port} failed: {exc}") from exc

    def perceive(self, t: int, world: list[tuple[int, float, float, int]]) -> list[tuple[int, float, float]]:
        objects = [{"id": oid, "x": x, "y": y, "occ": occ} for oid, x, y, occ in world]
        try:
            reply = self._client.frame(t, objects)
            return [(obj["source_id"], obj["x"], obj["y"]) for obj in reply]
        except (OSError, RemoteError, ServerGone) as exc:
            self.close()
            raise PerceptionUnavailable(f"frame exchange failed: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:  # a reply that is not JSON or lacks a key
            self.close()
            raise PerceptionUnavailable(f"bad frame reply: {type(exc).__name__}: {exc}") from exc

    def close(self) -> None:
        if self._client is not None:
            self._client.close()
            self._client = None


@dataclass(slots=True)
class PerceptionRecord:
    perceived: list[tuple[int, float, float]]  # (source id, rel x, rel y)
    detected: dict[str, bool]  # obstacle name -> seen this frame
    ranges: dict[str, float]  # obstacle name -> true center range [m]
    visibility: dict[str, float]  # obstacle name -> visible fraction


@dataclass(slots=True)
class TickRow:
    t: float
    ego_x: float
    ego_y: float
    ego_speed: float
    ego_accel: float
    actors: list[tuple[float, float, float, float]]  # (x, y, heading, speed) per obstacle
    perception: PerceptionRecord | None


@dataclass(slots=True)
class RunLog:
    """Complete trace of one simulated run plus its outcome."""

    scenario_id: str
    seed: int
    source_label: str
    tick_rate_hz: int
    perception_rate_hz: int
    ego_dims: tuple[float, float]  # (length, width)
    obstacles: list[dict]  # name, kind, length, width in scenario order
    policy: dict
    ticks: list[TickRow] = field(default_factory=list)
    collision: bool = False
    min_distance_m: float = math.inf
    end_reason: str = ""
    aborted: bool = False
    abort_reason: str = ""
    # perception_metrics(log) of a finished run, also when its ticks were not recorded
    detection_freq: float | None = None
    max_gap_s: float | None = None

    @property
    def primary_obstacle(self) -> str | None:
        if not self.obstacles:
            return None
        for meta in self.obstacles:
            if meta["kind"] == "pedestrian":
                return meta["name"]
        return self.obstacles[0]["name"]

    def ego_state_at(self, row: TickRow) -> ActorState:
        return ActorState(
            "ego", "ego", row.ego_x, row.ego_y, math.pi / 2, row.ego_speed, self.ego_dims[0], self.ego_dims[1]
        )

    def obstacle_states_at(self, row: TickRow) -> list[ActorState]:
        out = []
        for meta, (x, y, heading, speed) in zip(self.obstacles, row.actors):
            out.append(
                ActorState(meta["name"], meta["kind"], x, y, heading, speed, meta["length"], meta["width"])
            )
        return out


def run_once(
    spec: ScenarioSpec,
    source,
    seed: int,
    policy_cfg: PolicyConfig | None = None,
    record_ticks: bool = True,
) -> RunLog:
    """Integrate one scenario at the tick rate, refreshing perception at the
    perception rate and holding the last perceived world in between.

    Deterministic: randomness enters only through the perception source's
    seeded generator. Terminates on collision, on the ego passing the road
    end, or when the scenario duration elapses. The min distance and the
    perception metrics are computed as the run goes; ``record_ticks=False``
    skips the per-tick rows, which only a saved or inspected log needs.
    """
    cfg = policy_cfg or PolicyConfig()
    ego = spec.initial_ego()
    actors = spec.fresh_actors()
    states = [st for st, _ in actors]
    dt = 1.0 / spec.tick_rate_hz
    ticks_per_perception = spec.tick_rate_hz // spec.perception_rate_hz
    n_ticks = int(round(spec.duration_s * spec.tick_rate_hz))

    log = RunLog(
        scenario_id=spec.scenario_id,
        seed=seed,
        source_label=getattr(source, "label", "?"),
        tick_rate_hz=spec.tick_rate_hz,
        perception_rate_hz=spec.perception_rate_hz,
        ego_dims=(spec.ego_length, spec.ego_width),
        obstacles=[
            {"name": st.name, "kind": st.kind, "length": st.length, "width": st.width}
            for st in states
        ],
        policy=cfg.to_dict(),
    )
    try:
        source.begin_run(seed)
    except PerceptionUnavailable as exc:
        log.aborted = True
        log.abort_reason = str(exc)
        log.end_reason = "aborted"
        return log

    # perception_metrics reads records keyed by name, where a repeated name holds its last actor.
    watched = max((i for i, st in enumerate(states) if st.name == log.primary_obstacle), default=-1)
    eligible = detected = gap = max_gap = 0
    # The ego never turns; an actor's heading terms are recomputed when its heading changes.
    ego_extents = axis_half_extents(ego)
    poses = [_heading_terms(st) for st in states]
    perceived_latest: list[tuple[int, float, float]] = []
    frame_index = 0
    min_dist = math.inf
    end_reason = "duration"
    for k in range(n_ticks):
        t = k * dt
        for state, script in actors:
            script.step(state, ego, t, dt)

        record: PerceptionRecord | None = None
        if k % ticks_per_perception == 0:
            views = visibility(ego, states)  # (center range, visible fraction) per actor
            world = [
                (idx + 1, st.x - ego.x, st.y - ego.y, int(OcclusionLevel.from_fraction(fraction)))
                for idx, (st, (_, fraction)) in enumerate(zip(states, views))
            ]
            try:
                returned = source.perceive(frame_index, world)
            except PerceptionUnavailable as exc:
                log.aborted = True
                log.abort_reason = str(exc)
                log.end_reason = "aborted"
                log.min_distance_m = min_dist
                return log
            frame_index += 1
            perceived_latest = [(sid, x, y) for sid, x, y in returned]
            seen = {sid for sid, _, _ in perceived_latest}
            if watched < 0 or views[watched][0] >= ELIGIBLE_RANGE_M:
                gap = 0  # an ineligible frame breaks a non-detection run
            else:
                eligible += 1
                if watched + 1 in seen:
                    detected += 1
                    gap = 0
                else:
                    gap += 1
                    max_gap = max(max_gap, gap)
            if record_ticks:
                record = PerceptionRecord(
                    perceived=perceived_latest,
                    detected={st.name: (idx + 1) in seen for idx, st in enumerate(states)},
                    ranges={st.name: rng for st, (rng, _) in zip(states, views)},
                    visibility={st.name: fraction for st, (_, fraction) in zip(states, views)},
                )

        accel = driving_policy(perceived_latest, ego, cfg)
        if record_ticks:
            log.ticks.append(
                TickRow(
                    t=t,
                    ego_x=ego.x,
                    ego_y=ego.y,
                    ego_speed=ego.speed,
                    ego_accel=accel,
                    actors=[(st.x, st.y, st.heading, st.speed) for st in states],
                    perception=record,
                )
            )

        distances = []
        for j, st in enumerate(states):
            pose = poses[j]
            if st.heading != pose[0]:
                pose = poses[j] = _heading_terms(st)
            distances.append(footprint_distance(ego, ego_extents, st, pose[1]))
        tick_min = min(distances, default=math.inf)
        if tick_min < min_dist:  # min(min_dist, tick_min)
            min_dist = tick_min
        if tick_min <= 0.0:
            log.collision = True
            end_reason = "collision"
            break

        # Explicit Euler: positions advance with the pre-update speeds.
        ego.y += ego.speed * dt  # ego heading is fixed at +y
        for state, (_, _, cos_h, sin_h) in zip(states, poses):
            state.x += state.speed * cos_h * dt
            state.y += state.speed * sin_h * dt
        if accel >= 0.0:
            ego.speed = min(ego.speed + accel * dt, max(spec.ego_cruise_speed, ego.speed))
        else:
            ego.speed = max(ego.speed + accel * dt, 0.0)
        if ego.y >= spec.road_length_m:
            end_reason = "road_end"
            break

    log.end_reason = end_reason
    log.min_distance_m = min_dist
    if eligible:
        log.detection_freq = detected / eligible
        log.max_gap_s = max_gap * (1.0 / spec.perception_rate_hz)
    return log


def _heading_terms(actor: ActorState) -> tuple[float, tuple[float, float] | None, float, float]:
    """(heading, axis half extents, cos, sin): what a tick needs of an actor's heading."""
    return actor.heading, axis_half_extents(actor), math.cos(actor.heading), math.sin(actor.heading)


def save_runlog(log: RunLog, path: str | Path) -> None:
    """JSON-lines: one meta line, one line per tick, one outcome line."""
    with Path(path).open("w", encoding="utf-8") as fh:
        meta = {
            "type": "meta",
            "scenario": log.scenario_id,
            "seed": log.seed,
            "source": log.source_label,
            "tick_rate_hz": log.tick_rate_hz,
            "perception_rate_hz": log.perception_rate_hz,
            "ego_dims": list(log.ego_dims),
            "obstacles": log.obstacles,
            "policy": log.policy,
        }
        fh.write(json.dumps(meta, sort_keys=True, separators=(",", ":")) + "\n")
        for row in log.ticks:
            doc = {
                "type": "tick",
                "t": row.t,
                "ego": [row.ego_x, row.ego_y, row.ego_speed, row.ego_accel],
                "actors": [list(a) for a in row.actors],
            }
            if row.perception is not None:
                doc["perc"] = {
                    "objs": [list(p) for p in row.perception.perceived],
                    "det": row.perception.detected,
                    "rng": row.perception.ranges,
                    "vis": row.perception.visibility,
                }
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
        outcome = {
            "type": "outcome",
            "collision": log.collision,
            "min_distance_m": log.min_distance_m,
            "end_reason": log.end_reason,
            "aborted": log.aborted,
            "abort_reason": log.abort_reason,
        }
        fh.write(json.dumps(outcome, sort_keys=True, separators=(",", ":")) + "\n")


# The keys each kind of run-log line must hold, with their JSON types.
_RUNLOG_KEYS = {
    "meta": {"scenario": str, "seed": int, "source": str, "tick_rate_hz": int, "perception_rate_hz": int,
             "ego_dims": list, "obstacles": list, "policy": dict},
    "tick": {"t": float, "ego": list, "actors": list},
    "outcome": {"collision": bool, "min_distance_m": (int, float), "end_reason": str, "aborted": bool,
                "abort_reason": str},
}
_PERCEPTION_KEYS = {"objs": list, "det": dict, "rng": dict, "vis": dict}


def load_runlog(path: str | Path) -> RunLog:
    """Read a ``save_runlog`` file; a malformed line raises a ``ValueError`` that names ``path:line``."""
    log: RunLog | None = None
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        try:
            doc = require_object(json.loads(line), "", {"type": str})
            kind = doc["type"]
            if kind not in _RUNLOG_KEYS:
                raise ValueError(f"type must be one of {', '.join(_RUNLOG_KEYS)}, got {kind!r}")
            require_object(doc, "", _RUNLOG_KEYS[kind])
            if kind == "meta":
                log = RunLog(
                    doc["scenario"], doc["seed"], doc["source"], doc["tick_rate_hz"], doc["perception_rate_hz"],
                    tuple(doc["ego_dims"]), doc["obstacles"], doc["policy"],
                )
            elif log is None:
                raise ValueError(f"{kind} line before the meta line")
            elif kind == "tick":
                perc = None
                if "perc" in doc:
                    found = require_object(doc["perc"], "perc", _PERCEPTION_KEYS)
                    objs = [(int(s), x, y) for s, x, y in found["objs"]]
                    perc = PerceptionRecord(objs, dict(found["det"]), dict(found["rng"]), dict(found["vis"]))
                ego_x, ego_y, ego_speed, ego_accel = doc["ego"]
                actors = [tuple(a) for a in doc["actors"]]
                log.ticks.append(TickRow(doc["t"], ego_x, ego_y, ego_speed, ego_accel, actors, perc))
            else:
                for key in _RUNLOG_KEYS["outcome"]:
                    setattr(log, key, doc[key])
        except (TypeError, ValueError) as exc:  # json.JSONDecodeError is a ValueError
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    if log is None:
        raise ValueError(f"{path} contains no meta line")
    if log.obstacles and not log.aborted:
        log.detection_freq, log.max_gap_s = perception_metrics(log)
    return log
