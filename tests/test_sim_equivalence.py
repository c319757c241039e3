"""The trimmed tick loop against the loop it replaced.

``oracle_run_once``, ``oracle_compute_occlusion`` (with its interval and
union helpers) and ``oracle_perception_metrics`` are the previous
functions, kept verbatim apart from their names. ``run_once`` now computes
occlusion once per actor per frame, keeps tick rows only on request and
computes the perception metrics as it goes; every figure it reports must
match the oracle bit for bit, on builder scenarios with random overrides
and on free-form scenes with rotated footprints and repeated actor names.
"""

import math
from dataclasses import replace

import numpy as np
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from pemkit import GridSpec, PemModel, never_detect_model
from pemkit.geometry import TWO_PI, OcclusionLevel, wrap_angle
from pemkit.sim import (
    ActorState,
    GroundTruthSource,
    ModelSource,
    PerceptionUnavailable,
    PolicyConfig,
    RunLog,
    ScenarioSpec,
    compute_occlusion,
    driving_policy,
    make_tc1,
    make_tc2,
    make_tc3,
    min_distance,
    perception_metrics,
    rect_distance,
    run_once,
)
from pemkit.sim.metrics import ELIGIBLE_RANGE_M
from pemkit.sim.occlusion import footprint_corners, visibility
from pemkit.sim.policy import OBSTACLE_INFLATION_M, gap_command, obstacle_gap
from pemkit.sim.runner import PerceptionRecord, TickRow
from pemkit.sim.world import LeadVehicle, PedestrianCrossing

# ---------------------------------------------------------------- oracles


def oracle_angular_interval(viewer_x, viewer_y, actor):
    center = math.atan2(actor.y - viewer_y, actor.x - viewer_x)
    lo = hi = 0.0
    for cx, cy in footprint_corners(actor):
        dx, dy = cx - viewer_x, cy - viewer_y
        if dx * dx + dy * dy < 1e-12:
            return None
        off = wrap_angle(math.atan2(dy, dx) - center)
        lo = min(lo, off)
        hi = max(hi, off)
    if hi - lo >= math.pi:  # viewer effectively inside; interval ill-defined
        return None
    return center + lo, center + hi


def oracle_union_length(segments):
    if not segments:
        return 0.0
    segments = sorted(segments)
    total = 0.0
    cur_lo, cur_hi = segments[0]
    for lo, hi in segments[1:]:
        if lo > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return total + (cur_hi - cur_lo)


def oracle_compute_occlusion(ego, target, others):
    interval = oracle_angular_interval(ego.x, ego.y, target)
    if interval is None:
        return 1.0, OcclusionLevel.VIS3
    ta, tb = interval
    width = tb - ta
    if width <= 1e-12:
        return 1.0, OcclusionLevel.VIS3

    d_target = math.hypot(target.x - ego.x, target.y - ego.y)
    segments = []
    for other in others:
        if other is target or other is ego:
            continue
        if math.hypot(other.x - ego.x, other.y - ego.y) >= d_target:
            continue
        occ = oracle_angular_interval(ego.x, ego.y, other)
        if occ is None:
            continue
        oa, ob = occ
        # Shift by whole turns to sit next to the target interval before clipping.
        shift = TWO_PI * round(((ta + tb) - (oa + ob)) / (2.0 * TWO_PI))
        lo, hi = max(ta, oa + shift), min(tb, ob + shift)
        if hi > lo:
            segments.append((lo, hi))

    covered = oracle_union_length(segments)
    fraction = min(max(1.0 - covered / width, 0.0), 1.0)
    return fraction, OcclusionLevel.from_fraction(fraction)


def oracle_perception_metrics(log, obstacle=None):
    name = obstacle or log.primary_obstacle
    if name is None:
        raise ValueError("run log has no obstacles")
    period = 1.0 / log.perception_rate_hz
    eligible = 0
    detected = 0
    gap = 0
    max_gap = 0
    for row in log.ticks:
        if row.perception is None:
            continue
        rng = row.perception.ranges.get(name)
        if rng is None or rng >= ELIGIBLE_RANGE_M:
            gap = 0
            continue
        eligible += 1
        if row.perception.detected.get(name, False):
            detected += 1
            gap = 0
        else:
            gap += 1
            max_gap = max(max_gap, gap)
    if eligible == 0:
        return None, None
    return detected / eligible, max_gap * period


def oracle_run_once(spec, source, seed, policy_cfg=None):
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

    perceived_latest = []
    frame_index = 0
    min_dist = math.inf
    end_reason = "duration"
    for k in range(n_ticks):
        t = k * dt
        for state, script in actors:
            script.step(state, ego, t, dt)

        record = None
        if k % ticks_per_perception == 0:
            world = []
            ranges = {}
            visibility = {}
            states = [st for st, _ in actors]
            for idx, state in enumerate(states):
                rel_x, rel_y = state.x - ego.x, state.y - ego.y
                fraction, level = oracle_compute_occlusion(ego, state, states)
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


# ---------------------------------------------------------------- inputs


def random_model(seed, grid=GridSpec()):
    """Every cell different; detection probabilities include the absorbing 0 and 1."""
    rng = np.random.default_rng(seed)
    n = grid.n_conditions
    a = lambda: np.where(rng.random(n) < 0.2, rng.integers(0, 2, n).astype(float), rng.random(n))
    return PemModel(
        grid=grid,
        metadata=f"random-{seed}",
        a01=a(),
        a11=a(),
        mu_r=rng.uniform(0.8, 1.2, n),
        mu_theta=rng.uniform(-0.2, 0.2, n),
        sigma_r=rng.uniform(0.01, 0.3, n),
        sigma_theta=rng.uniform(0.01, 0.3, n),
        rho=rng.uniform(-0.99, 0.99, n),
    )


class FailingSource:
    """Wraps a source and fails at begin_run (frame -1) or at the given frame."""

    def __init__(self, inner, fail_at):
        self.inner = inner
        self.label = inner.label
        self.fail_at = fail_at

    def begin_run(self, seed):
        if self.fail_at < 0:
            raise PerceptionUnavailable("init refused")
        self.inner.begin_run(seed)

    def perceive(self, t, world):
        if t == self.fail_at:
            raise PerceptionUnavailable(f"frame {t} lost")
        return self.inner.perceive(t, world)


speeds = st.floats(0.5, 20.0)
rates = st.sampled_from([(10, 2), (10, 5), (20, 4), (4, 4), (10, 10)])


@st.composite
def builder_scenarios(draw):
    kind = draw(st.sampled_from(["TC1", "TC2", "TC3"]))
    if kind == "TC1":
        ped_y = draw(st.floats(60.0, 450.0))
        spec = make_tc1(
            cruise_speed=draw(speeds),
            pedestrian_y=ped_y,
            trigger_gap_m=draw(st.floats(5.0, 80.0)),
            walk_speed=draw(st.floats(0.3, 3.0)),
            road_length_m=ped_y + draw(st.floats(5.0, 100.0)),
            duration_s=draw(st.floats(2.0, 60.0)),
        )
    else:
        kwargs = dict(
            cruise_speed=draw(speeds),
            lead_start_y=draw(st.floats(10.0, 120.0)),
            lead_speed=draw(st.floats(0.0, 12.0)),
            stop_line_y=draw(st.floats(150.0, 560.0)),
            road_length_m=draw(st.floats(150.0, 600.0)),
            duration_s=draw(st.floats(2.0, 60.0)),
        )
        if kind == "TC3":
            kwargs.update(pedestrian_y=draw(st.floats(40.0, 400.0)), walk_speed=draw(st.floats(0.3, 3.0)))
        spec = (make_tc2 if kind == "TC2" else make_tc3)(**kwargs)
    tick, perception = draw(rates)
    return replace(spec, tick_rate_hz=tick, perception_rate_hz=perception)


@st.composite
def free_scenes(draw):
    """Actors anywhere, at any heading and size, some sharing a name."""
    actors = []
    for _ in range(draw(st.integers(1, 4))):
        heading = draw(st.one_of(st.sampled_from([0.0, math.pi / 2, math.pi, -math.pi / 2]), st.floats(-3.0, 3.0)))
        state = ActorState(
            draw(st.sampled_from(["pedestrian", "lead", "car"])),
            draw(st.sampled_from(["pedestrian", "vehicle"])),
            draw(st.floats(-8.0, 8.0)),
            draw(st.floats(-20.0, 150.0)),
            heading,
            draw(st.floats(0.0, 8.0)),
            draw(st.floats(0.3, 6.0)),
            draw(st.floats(0.3, 3.0)),
        )
        if draw(st.booleans()):
            script = LeadVehicle(draw(st.floats(0.0, 10.0)), draw(st.floats(20.0, 200.0)), draw(st.floats(0.5, 4.0)))
        else:
            script = PedestrianCrossing(draw(st.floats(0.3, 3.0)), draw(st.sampled_from(["gap", "predicted"])),
                                        draw(st.floats(5.0, 60.0)))
        actors.append((state, script))
    tick, perception = draw(rates)
    return ScenarioSpec(
        scenario_id="FREE",
        road_length_m=draw(st.floats(50.0, 200.0)),
        ego_init_speed=draw(st.floats(0.0, 15.0)),
        ego_cruise_speed=draw(st.floats(1.0, 15.0)),
        actors=actors,
        duration_s=draw(st.floats(1.0, 20.0)),
        tick_rate_hz=tick,
        perception_rate_hz=perception,
    )


@st.composite
def policies(draw):
    comfort = draw(st.floats(0.5, 3.0))
    return PolicyConfig(
        comfort_accel=comfort,
        max_decel=comfort + draw(st.floats(0.0, 6.0)),
        corridor_half_width_m=draw(st.floats(0.0, 4.0)),
        headway_s=draw(st.floats(0.0, 3.0)),
        standstill_m=draw(st.floats(0.0, 5.0)),
    )


@st.composite
def sources(draw):
    """A factory, so the oracle and the loop under test each get a fresh source."""
    if draw(st.booleans()):
        base = GroundTruthSource
    else:
        model = random_model(draw(st.integers(0, 2**32 - 1)))
        base = lambda: ModelSource(model, label="m")
    fail_at = draw(st.one_of(st.none(), st.integers(-1, 40)))
    return base if fail_at is None else (lambda: FailingSource(base(), fail_at))


def outcome(log):
    return (log.min_distance_m, log.collision, log.end_reason, log.aborted, log.abort_reason)


def check_equivalent(spec, make_source, seed, policy):
    expected = oracle_run_once(spec, make_source(), seed, policy)
    recorded = run_once(spec, make_source(), seed, policy)
    trimmed = run_once(spec, make_source(), seed, policy, record_ticks=False)

    assert repr(recorded.ticks) == repr(expected.ticks)  # byte for byte, signed zeros included
    assert trimmed.ticks == []
    for log in (recorded, trimmed):
        assert repr(outcome(log)) == repr(outcome(expected))
    if expected.aborted:
        return
    metrics = oracle_perception_metrics(expected)
    for log in (recorded, trimmed):
        assert repr((log.detection_freq, log.max_gap_s)) == repr(metrics)
    # The post-hoc metrics over the recorded rows agree with the online ones.
    assert perception_metrics(recorded) == (recorded.detection_freq, recorded.max_gap_s)
    if recorded.ticks:
        assert min_distance(recorded) == recorded.min_distance_m


# No explain phase: it traces every line of a failing run, which takes minutes here.
run_settings = settings(max_examples=150, deadline=None, phases=set(Phase) - {Phase.explain})


@run_settings
@given(builder_scenarios(), sources(), st.integers(0, 10**6), st.one_of(st.none(), policies()))
def test_builder_scenarios_match_oracle(spec, make_source, seed, policy):
    check_equivalent(spec, make_source, seed, policy)


@run_settings
@given(free_scenes(), sources(), st.integers(0, 10**6), st.one_of(st.none(), policies()))
def test_free_scenes_match_oracle(spec, make_source, seed, policy):
    check_equivalent(spec, make_source, seed, policy)


def test_leaving_range_breaks_a_gap():
    # The lead pulls away past 100 m while never detected, then stops; the ego closes in again.
    spec = make_tc2(cruise_speed=5.0, lead_speed=12.0, lead_start_y=50.0, stop_line_y=300.0, duration_s=90.0)
    ranges = [row.perception.ranges["lead"] for row in oracle_run_once(spec, GroundTruthSource(), 0).ticks
              if row.perception is not None]
    assert min(ranges[:20]) < ELIGIBLE_RANGE_M < max(ranges) and ranges[-1] < ELIGIBLE_RANGE_M
    check_equivalent(spec, lambda: ModelSource(never_detect_model(), label="never"), 0, None)


def test_equally_far_actors_do_not_occlude_each_other():
    ego = make_tc1().initial_ego()
    target = ActorState("pedestrian", "pedestrian", 0.0, 20.0, math.pi, 0.0, 0.5, 0.5)
    same_center = ActorState("lead", "vehicle", 0.0, 20.0, math.pi / 2, 0.0, 4.5, 1.8)
    nearer = replace(same_center, y=19.0)
    for other, fraction in ((same_center, 1.0), (nearer, 0.0)):
        got = compute_occlusion(ego, target, [ego, target, other])
        assert got == oracle_compute_occlusion(ego, target, [ego, target, other]) == (fraction, got[1])


@settings(max_examples=200, deadline=None)
@given(free_scenes(), st.floats(-10.0, 10.0), st.floats(-30.0, 30.0))
def test_compute_occlusion_matches_oracle(spec, ego_x, ego_y):
    ego = replace(spec.initial_ego(), x=ego_x, y=ego_y)
    states = [state for state, _ in spec.actors]
    for target in states:
        others = [ego, *states]
        assert repr(compute_occlusion(ego, target, others)) == repr(oracle_compute_occlusion(ego, target, others))


# ------------------------------------------- lazy occlusion and the split policy
#
# ``visibility`` computes bearing intervals only where a strictly nearer actor
# exists, and ``run_once`` finds the policy's nearest obstacle once per
# perception frame (``obstacle_gap``) and turns it into a command every tick
# (``gap_command``). ``oracle_driving_policy`` is the one-step policy they
# replaced, verbatim apart from its name.


def oracle_driving_policy(perceived, ego, cfg):
    nearest = None
    for _sid, x, y in perceived:
        if abs(x) <= cfg.corridor_half_width_m and y > 0.0 and (nearest is None or y < nearest):
            nearest = y
    if nearest is None:
        return cfg.comfort_accel

    gap = nearest - 0.5 * ego.length - OBSTACLE_INFLATION_M
    d_brake_full = ego.speed * ego.speed / (2.0 * cfg.max_decel) + cfg.standstill_m
    d_brake_start = ego.speed * cfg.headway_s + cfg.standstill_m
    if gap <= d_brake_full:
        return -cfg.max_decel
    if gap <= d_brake_start:
        return -cfg.max_decel * (d_brake_start - gap) / (d_brake_start - d_brake_full)
    return cfg.comfort_accel


def check_visibility(ego, states):
    views = visibility(ego, states)
    assert len(views) == len(states)
    for target, view in zip(states, views):
        fraction, level = oracle_compute_occlusion(ego, target, [ego, *states])
        assert repr(view) == repr((math.hypot(target.x - ego.x, target.y - ego.y), fraction, int(level)))
        assert type(view[2]) is int


@settings(max_examples=300, deadline=None)
@given(free_scenes(), st.floats(-10.0, 10.0), st.floats(-30.0, 30.0), st.sampled_from(["free", "inside", "mirror"]))
def test_visibility_matches_oracle(spec, ego_x, ego_y, placement):
    states = [state for state, _ in spec.actors]
    ego = replace(spec.initial_ego(), x=ego_x, y=ego_y)
    if placement == "inside":  # the ego at an actor's center, inside its footprint
        ego = replace(ego, x=states[0].x, y=states[0].y)
    elif placement == "mirror":  # the last actor at exactly the first one's center distance
        ego = replace(ego, x=0.0, y=0.0)
        states[-1] = replace(states[-1], x=-states[0].x, y=-states[0].y)
    check_visibility(ego, states)


def test_visibility_edge_cases():
    ego = make_tc1().initial_ego()
    car = lambda x, y, heading=math.pi / 2: ActorState("car", "vehicle", x, y, heading, 0.0, 4.5, 1.8)
    ped = lambda x, y: ActorState("pedestrian", "pedestrian", x, y, math.pi, 0.0, 0.5, 0.5)
    scenes = [
        [],
        [ped(0.0, 20.0)],
        [ped(0.0, 20.0), ped(0.0, -20.0), ped(20.0, 0.0), ped(-20.0, 0.0)],  # four at one distance
        [car(0.0, 10.0), ped(0.0, 30.0), car(0.5, 50.0), ped(0.2, 70.0)],  # a column, each behind the last
        [car(0.0, 0.0), ped(0.0, 30.0), car(1.0, 10.0, 0.3)],  # the ego inside a footprint, a rotated occluder
        [car(0.0, 10.0), car(0.0, -10.0), ped(0.0, 10.0)],  # equal distances, one pair at the same center
        [ped(3.0, 4.0), ped(4.0, 3.0), ped(-5.0, 0.0)],  # three actors exactly 5 m away
    ]
    for states in scenes:
        check_visibility(ego, states)


perceived_objects = st.lists(
    st.tuples(
        st.integers(1, 9),
        st.one_of(st.sampled_from([0.0, -0.0, 1.5, -1.5, 1.5000000000000002, -1.4999999999999998]),
                  st.floats(-6.0, 6.0)),  # the default corridor edge, on and just off it
        st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -3.0]), st.floats(-40.0, 120.0)),  # behind, at and ahead
    ),
    max_size=6,
)


CORRIDOR = PolicyConfig().corridor_half_width_m


@settings(max_examples=500, deadline=None)
@given(perceived_objects, st.floats(0.0, 20.0), st.one_of(st.just(PolicyConfig()), policies()))
@example([], 8.0, PolicyConfig())
@example([(1, 0.0, -5.0)], 8.0, PolicyConfig())  # behind the ego
@example([(1, 0.0, 0.0)], 8.0, PolicyConfig())  # level with the ego: not ahead
@example([(1, CORRIDOR, 12.0)], 8.0, PolicyConfig())  # on the corridor edge: inside
@example([(1, -CORRIDOR, 12.0)], 8.0, PolicyConfig())
@example([(1, math.nextafter(CORRIDOR, 9.0), 12.0)], 8.0, PolicyConfig())  # just outside
@example([(1, 0.5, 40.0), (2, -0.5, 12.0), (3, 5.0, 3.0), (4, 0.0, -2.0)], 8.0, PolicyConfig())  # nearest inside wins
def test_split_policy_matches_oracle(perceived, speed, cfg):
    ego = replace(make_tc1().initial_ego(), speed=speed)
    expected = oracle_driving_policy(perceived, ego, cfg)
    gap = obstacle_gap(perceived, ego, cfg)
    assert repr(gap_command(gap, ego.speed, cfg)) == repr(expected)
    assert repr(driving_policy(perceived, ego, cfg)) == repr(expected)
    assert (gap is None) == (not any(abs(x) <= cfg.corridor_half_width_m and y > 0.0 for _, x, y in perceived))
