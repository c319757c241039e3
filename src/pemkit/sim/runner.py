"""Single-run simulation loop and the perception sources it can consume.

A perception source receives the ground-truth world as (id, x, y, occ) in
ego-relative Cartesian coordinates and returns (source_id, x, y), which the
driving policy reads as they are. Sources: error-free ground truth, a local
model, and a remote model server. A local ``ModelSource`` opens one
``InjectorSession`` per run, the object each server connection drives, so a
run driven by either is bit-identical given the same model and seed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from ..client import PemClient, RemoteError, ServerGone
from ..inject import InjectorSession
from ..inject import apply_pem  # noqa: F401  kept resolvable: perfbench wraps runner.apply_pem
from ..model import PemModel
from .metrics import rect_distance
from .occlusion import compute_occlusion
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
        except (OSError, RemoteError, ServerGone) as exc:
            self.close()
            raise PerceptionUnavailable(f"init against {self.host}:{self.port} failed: {exc}") from exc

    def perceive(self, t: int, world: list[tuple[int, float, float, int]]) -> list[tuple[int, float, float]]:
        objects = [{"id": oid, "x": x, "y": y, "occ": occ} for oid, x, y, occ in world]
        try:
            reply = self._client.frame(t, objects)
        except (OSError, RemoteError, ServerGone) as exc:
            self.close()
            raise PerceptionUnavailable(f"frame exchange failed: {exc}") from exc
        return [(obj["source_id"], obj["x"], obj["y"]) for obj in reply]

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
) -> RunLog:
    """Integrate one scenario at the tick rate, refreshing perception at the
    perception rate and holding the last perceived world in between.

    Deterministic: randomness enters only through the perception source's
    seeded generator. Terminates on collision, on the ego passing the road
    end, or when the scenario duration elapses.
    """
    cfg = policy_cfg or PolicyConfig()
    ego = spec.initial_ego()
    actors = spec.fresh_actors()
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
            for st, _ in actors
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
            world = []
            ranges: dict[str, float] = {}
            visibility: dict[str, float] = {}
            states = [st for st, _ in actors]
            for idx, state in enumerate(states):
                rel_x, rel_y = state.x - ego.x, state.y - ego.y
                fraction, level = compute_occlusion(ego, state, states)
                world.append((idx + 1, rel_x, rel_y, int(level)))
                ranges[state.name] = math.hypot(rel_x, rel_y)
                visibility[state.name] = fraction
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
            detected = {state.name: (idx + 1) in seen for idx, state in enumerate(states)}
            record = PerceptionRecord(
                perceived=perceived_latest,
                detected=detected,
                ranges=ranges,
                visibility=visibility,
            )

        accel = driving_policy(perceived_latest, ego, cfg)
        log.ticks.append(
            TickRow(
                t=t,
                ego_x=ego.x,
                ego_y=ego.y,
                ego_speed=ego.speed,
                ego_accel=accel,
                actors=[(st.x, st.y, st.heading, st.speed) for st, _ in actors],
                perception=record,
            )
        )

        tick_min = min((rect_distance(ego, st) for st, _ in actors), default=math.inf)
        min_dist = min(min_dist, tick_min)
        if tick_min <= 0.0:
            log.collision = True
            end_reason = "collision"
            break

        # Explicit Euler: positions advance with the pre-update speeds.
        ego.y += ego.speed * dt  # ego heading is fixed at +y
        for state, _ in actors:
            state.x += state.speed * math.cos(state.heading) * dt
            state.y += state.speed * math.sin(state.heading) * dt
        if accel >= 0.0:
            ego.speed = min(ego.speed + accel * dt, max(spec.ego_cruise_speed, ego.speed))
        else:
            ego.speed = max(ego.speed + accel * dt, 0.0)
        if ego.y >= spec.road_length_m:
            end_reason = "road_end"
            break

    log.end_reason = end_reason
    log.min_distance_m = min_dist
    return log


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


def load_runlog(path: str | Path) -> RunLog:
    log: RunLog | None = None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        doc = json.loads(line)
        kind = doc["type"]
        if kind == "meta":
            log = RunLog(
                scenario_id=doc["scenario"],
                seed=doc["seed"],
                source_label=doc["source"],
                tick_rate_hz=doc["tick_rate_hz"],
                perception_rate_hz=doc["perception_rate_hz"],
                ego_dims=tuple(doc["ego_dims"]),
                obstacles=doc["obstacles"],
                policy=doc["policy"],
            )
        elif kind == "tick":
            perc = None
            if "perc" in doc:
                perc = PerceptionRecord(
                    perceived=[(int(s), x, y) for s, x, y in doc["perc"]["objs"]],
                    detected=dict(doc["perc"]["det"]),
                    ranges=dict(doc["perc"]["rng"]),
                    visibility=dict(doc["perc"]["vis"]),
                )
            ego = doc["ego"]
            log.ticks.append(
                TickRow(
                    t=doc["t"],
                    ego_x=ego[0],
                    ego_y=ego[1],
                    ego_speed=ego[2],
                    ego_accel=ego[3],
                    actors=[tuple(a) for a in doc["actors"]],
                    perception=perc,
                )
            )
        elif kind == "outcome":
            log.collision = doc["collision"]
            log.min_distance_m = doc["min_distance_m"]
            log.end_reason = doc["end_reason"]
            log.aborted = doc["aborted"]
            log.abort_reason = doc["abort_reason"]
    if log is None:
        raise ValueError(f"{path} contains no meta line")
    return log
