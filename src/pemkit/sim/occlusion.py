"""Visible-fraction computation by angular interval arithmetic.

An actor's footprint subtends an angular interval as seen from the ego;
strictly nearer actors cover parts of that interval. The visible fraction is
the uncovered share, binned into the four visibility levels.

``visibility`` computes intervals only when needed. It first takes every
actor's center distance. An actor with no strictly nearer actor is fully
visible without an interval, so a frame with one actor, or with every actor
equally far, needs none. Otherwise every actor is either covered by a
nearer one or may cover a farther one, and its interval is computed once
and shared.
"""

from __future__ import annotations

import math

from ..geometry import OcclusionLevel, TWO_PI, occlusion_level
from .world import ActorState

def footprint_corners(actor: ActorState) -> list[tuple[float, float]]:
    ux, uy = math.cos(actor.heading), math.sin(actor.heading)
    hl, hw = 0.5 * actor.length, 0.5 * actor.width
    return [
        (actor.x + sx * hl * ux - sy * hw * uy, actor.y + sx * hl * uy + sy * hw * ux)
        for sx in (1.0, -1.0)
        for sy in (1.0, -1.0)
    ]


def corner_offsets(actor: ActorState) -> tuple[float, float, float, float]:
    """(hl*ux, hw*uy, hl*uy, hw*ux): the products ``footprint_corners`` adds to the center.

    They depend only on the heading and the footprint. A sign of +-1 times
    a product is exact, so each corner built from them is the same double.
    """
    ux, uy = math.cos(actor.heading), math.sin(actor.heading)
    hl, hw = 0.5 * actor.length, 0.5 * actor.width
    return hl * ux, hw * uy, hl * uy, hw * ux


def _angular_interval(
    viewer_x: float, viewer_y: float, actor: ActorState, offsets: tuple[float, float, float, float]
) -> tuple[float, float] | None:
    """Bearing interval [lo, hi] (unwrapped reals, hi - lo < 2*pi) subtended by
    the actor's corners, or None when the viewer sits inside/at the footprint.

    ``footprint_corners`` and ``wrap_angle`` are written out here, with the
    same operations in the same order; ``offsets`` is ``corner_offsets(actor)``.
    """
    x, y = actor.x, actor.y
    a, b, c, d = offsets
    center = math.atan2(y - viewer_y, x - viewer_x)
    # footprint_corners' (+,+), (+,-), (-,+), (-,-) corners, relative to the viewer
    front_x, back_x, front_y, back_y = x + a, x - a, y + c, y - c
    dx0, dy0 = front_x - b - viewer_x, front_y + d - viewer_y
    dx1, dy1 = front_x + b - viewer_x, front_y - d - viewer_y
    dx2, dy2 = back_x - b - viewer_x, back_y + d - viewer_y
    dx3, dy3 = back_x + b - viewer_x, back_y - d - viewer_y
    if (dx0 * dx0 + dy0 * dy0 < 1e-12 or dx1 * dx1 + dy1 * dy1 < 1e-12
            or dx2 * dx2 + dy2 * dy2 < 1e-12 or dx3 * dx3 + dy3 * dy3 < 1e-12):
        return None
    lo = hi = 0.0
    for off in (math.atan2(dy0, dx0), math.atan2(dy1, dx1), math.atan2(dy2, dx2), math.atan2(dy3, dx3)):
        off = math.fmod(off - center, TWO_PI)
        if off > math.pi:
            off -= TWO_PI
        elif off <= -math.pi:
            off += TWO_PI
        if off < lo:  # lo = min(lo, off), hi = max(hi, off)
            lo = off
        elif off > hi:
            hi = off
    if hi - lo >= math.pi:  # viewer effectively inside; interval ill-defined
        return None
    return center + lo, center + hi


def visibility(
    ego: ActorState, actors: list[ActorState], offsets: list[tuple[float, float, float, float]] | None = None
) -> list[tuple[float, float, int]]:
    """(center distance, visible fraction, occlusion level) of every actor as the ego sees it past the others.

    ``offsets`` holds each actor's ``corner_offsets``, when the caller keeps
    them; they are computed otherwise.
    """
    ex, ey = ego.x, ego.y
    distances = [math.hypot(actor.x - ex, actor.y - ey) for actor in actors]
    if len(actors) < 2 or max(distances) == min(distances):  # no actor is strictly nearer than another
        return [(distance, 1.0, 3) for distance in distances]
    nearest = min(distances)
    if offsets is None:
        offsets = [corner_offsets(actor) for actor in actors]
    intervals = [_angular_interval(ex, ey, actor, offset) for actor, offset in zip(actors, offsets)]
    views = []
    for distance, interval in zip(distances, intervals):
        if distance == nearest:  # no actor is strictly nearer
            views.append((distance, 1.0, 3))
            continue
        fraction = _visible_fraction(interval, [occ for occ, d in zip(intervals, distances) if d < distance])
        views.append((distance, fraction, occlusion_level(fraction)))
    return views


def compute_occlusion(
    ego: ActorState, target: ActorState, others: list[ActorState]
) -> tuple[float, OcclusionLevel]:
    """Fraction of the target's angular extent not covered by nearer actors.

    Only actors whose center is strictly nearer to the ego than the target's
    center can occlude. Returns (fraction in [0,1], binned level).
    """
    d_target = math.hypot(target.x - ego.x, target.y - ego.y)
    occluders = [
        _angular_interval(ego.x, ego.y, other, corner_offsets(other))
        for other in others
        if other is not target and other is not ego and math.hypot(other.x - ego.x, other.y - ego.y) < d_target
    ]
    fraction = _visible_fraction(_angular_interval(ego.x, ego.y, target, corner_offsets(target)), occluders)
    return fraction, OcclusionLevel.from_fraction(fraction)


def _visible_fraction(interval: tuple[float, float] | None, occluders: list[tuple[float, float] | None]) -> float:
    """The share of the target's interval that the intervals of strictly nearer actors leave uncovered."""
    if interval is None:
        return 1.0
    ta, tb = interval
    width = tb - ta
    if width <= 1e-12:
        return 1.0

    segments: list[tuple[float, float]] = []
    for occ in occluders:
        if occ is None:
            continue
        oa, ob = occ
        # Shift by whole turns to sit next to the target interval before clipping.
        shift = TWO_PI * round(((ta + tb) - (oa + ob)) / (2.0 * TWO_PI))
        lo, hi = oa + shift, ob + shift
        if ta >= lo:  # lo = max(ta, lo), hi = min(tb, hi), without the calls
            lo = ta
        if hi >= tb:
            hi = tb
        if hi > lo:
            segments.append((lo, hi))
    if not segments:
        return 1.0

    covered = _union_length(segments)
    return min(max(1.0 - covered / width, 0.0), 1.0)


def _union_length(segments: list[tuple[float, float]]) -> float:
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
