"""Safety and perception metrics computed over run logs.

``detection_runs`` is the one fold behind the perception metrics: ``run_once``
feeds it the watched obstacle's (range, detected) per perception frame, and
``perception_metrics`` a log's records. ``rect_distance`` and
``min_distance`` are views of ``footprint_distance``, which the tick loop runs.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .occlusion import footprint_corners
from .world import ActorState

if TYPE_CHECKING:
    from .runner import RunLog

# Obstacles farther than this from the ego do not count toward perception
# metrics (matches the model grid's outer boundary, exclusive).
ELIGIBLE_RANGE_M = 100.0


def axis_half_extents(actor: ActorState) -> tuple[float, float] | None:
    """(hx, hy) when the heading is a multiple of pi/2, else None."""
    quarter = actor.heading / (0.5 * math.pi)
    k = round(quarter)
    if abs(quarter - k) > 1e-9:
        return None
    if k % 2 == 0:  # facing +/-x: length along x
        return 0.5 * actor.length, 0.5 * actor.width
    return 0.5 * actor.width, 0.5 * actor.length


def _segment_distance(p1, p2, p3, p4) -> float:
    def point_seg(px, py, ax, ay, bx, by):
        vx, vy = bx - ax, by - ay
        denom = vx * vx + vy * vy
        t = 0.0 if denom == 0 else max(0.0, min(1.0, ((px - ax) * vx + (py - ay) * vy) / denom))
        return math.hypot(px - (ax + t * vx), py - (ay + t * vy))

    d1x, d1y = p2[0] - p1[0], p2[1] - p1[1]
    d2x, d2y = p4[0] - p3[0], p4[1] - p3[1]
    denom = d1x * d2y - d1y * d2x
    if denom != 0.0:
        t = ((p3[0] - p1[0]) * d2y - (p3[1] - p1[1]) * d2x) / denom
        u = ((p3[0] - p1[0]) * d1y - (p3[1] - p1[1]) * d1x) / denom
        if 0.0 <= t <= 1.0 and 0.0 <= u <= 1.0:
            return 0.0
    return min(
        point_seg(*p1, *p3, *p4),
        point_seg(*p2, *p3, *p4),
        point_seg(*p3, *p1, *p2),
        point_seg(*p4, *p1, *p2),
    )


def _overlap_sat(ca, cb) -> bool:
    """Separating-axis test on two convex quads given as corner lists."""
    for poly in (ca, cb):
        n = len(poly)
        for i in range(n):
            ax, ay = poly[i]
            bx, by = poly[(i + 1) % n]
            nx, ny = ay - by, bx - ax
            proj_a = [nx * x + ny * y for x, y in ca]
            proj_b = [nx * x + ny * y for x, y in cb]
            if max(proj_a) < min(proj_b) or max(proj_b) < min(proj_a):
                return False
    return True


def _corner_ring(actor: ActorState) -> list[tuple[float, float]]:
    # footprint_corners yields (+,+), (+,-), (-,+), (-,-); reorder into a ring.
    c = footprint_corners(actor)
    return [c[0], c[1], c[3], c[2]]


def rect_distance(a: ActorState, b: ActorState) -> float:
    """Footprint-to-footprint distance between two oriented rectangles; 0 on overlap."""
    return footprint_distance(a, axis_half_extents(a), b, axis_half_extents(b))


def footprint_distance(
    a: ActorState, ha: tuple[float, float] | None, b: ActorState, hb: tuple[float, float] | None
) -> float:
    """``rect_distance`` given each actor's ``axis_half_extents``, which change only with its heading."""
    if ha is not None and hb is not None:
        dx = abs(a.x - b.x) - ha[0] - hb[0]
        dy = abs(a.y - b.y) - ha[1] - hb[1]
        return math.hypot(dx if dx > 0.0 else 0.0, dy if dy > 0.0 else 0.0)  # max(0.0, d), without the call
    ring_a = _corner_ring(a)
    ring_b = _corner_ring(b)
    if _overlap_sat(ring_a, ring_b):
        return 0.0
    best = math.inf
    for i in range(4):
        ea = (ring_a[i], ring_a[(i + 1) % 4])
        for j in range(4):
            eb = (ring_b[j], ring_b[(j + 1) % 4])
            best = min(best, _segment_distance(ea[0], ea[1], eb[0], eb[1]))
    return best


def min_distance(log: "RunLog") -> float:
    """Minimum over all ticks of ego-to-obstacle footprint distance."""
    if not log.ticks:
        raise ValueError("run log has no ticks")
    best = math.inf
    for row in log.ticks:
        ego = log.ego_state_at(row)
        for actor in log.obstacle_states_at(row):
            best = min(best, rect_distance(ego, actor))
    return best


def detection_runs(frames: list[tuple[float, bool]], period: float) -> tuple[float | None, float | None]:
    """(relative detection frequency, max non-detection interval in seconds) of (range, detected) per frame.

    Only frames with the obstacle inside ELIGIBLE_RANGE_M count; an
    ineligible frame breaks a non-detection run. With zero eligible frames
    both metrics are undefined and reported as None.
    """
    eligible = detected = gap = max_gap = 0
    for rng, seen in frames:
        if rng >= ELIGIBLE_RANGE_M:
            gap = 0
            continue
        eligible += 1
        if seen:
            detected += 1
            gap = 0
        else:
            gap += 1
            max_gap = max(max_gap, gap)
    if eligible == 0:
        return None, None
    return detected / eligible, max_gap * period


def perception_metrics(log: "RunLog") -> tuple[float | None, float | None]:
    """``detection_runs`` over the primary obstacle's perception records; a missing name is out of range."""
    name = log.primary_obstacle
    if name is None:
        raise ValueError("run log has no obstacles")
    frames = [
        (row.perception.ranges.get(name, math.inf), row.perception.detected.get(name, False))
        for row in log.ticks
        if row.perception is not None
    ]
    return detection_runs(frames, 1.0 / log.perception_rate_hz)
