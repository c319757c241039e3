"""Visible-fraction computation by angular interval arithmetic.

An actor's footprint subtends an angular interval as seen from the ego;
strictly nearer actors cover parts of that interval. The visible fraction is
the uncovered share, binned into the four visibility levels.
"""

from __future__ import annotations

import math

from ..geometry import OcclusionLevel, TWO_PI, wrap_angle
from .world import ActorState


def footprint_corners(actor: ActorState) -> list[tuple[float, float]]:
    ux, uy = math.cos(actor.heading), math.sin(actor.heading)
    hl, hw = 0.5 * actor.length, 0.5 * actor.width
    return [
        (actor.x + sx * hl * ux - sy * hw * uy, actor.y + sx * hl * uy + sy * hw * ux)
        for sx in (1.0, -1.0)
        for sy in (1.0, -1.0)
    ]


def _angular_interval(viewer_x: float, viewer_y: float, actor: ActorState) -> tuple[float, float] | None:
    """Bearing interval [lo, hi] (unwrapped reals, hi - lo < 2*pi) subtended by
    the actor's corners, or None when the viewer sits inside/at the footprint."""
    center = math.atan2(actor.y - viewer_y, actor.x - viewer_x)
    lo = hi = 0.0
    for cx, cy in footprint_corners(actor):
        dx, dy = cx - viewer_x, cy - viewer_y
        if dx * dx + dy * dy < 1e-12:
            return None
        off = wrap_angle(math.atan2(dy, dx) - center)
        if off < lo:  # lo = min(lo, off), hi = max(hi, off)
            lo = off
        elif off > hi:
            hi = off
    if hi - lo >= math.pi:  # viewer effectively inside; interval ill-defined
        return None
    return center + lo, center + hi


def visibility(ego: ActorState, actors: list[ActorState]) -> list[tuple[float, float]]:
    """(center distance, visible fraction) of every actor as the ego sees it past the others.

    Each actor's angular interval and center distance are computed once and
    shared by every target it may occlude.
    """
    views = [_view(ego, actor) for actor in actors]
    return [
        (view[1], _visible_fraction(view, views[:i] + views[i + 1 :])) for i, view in enumerate(views)
    ]


def compute_occlusion(
    ego: ActorState, target: ActorState, others: list[ActorState]
) -> tuple[float, OcclusionLevel]:
    """Fraction of the target's angular extent not covered by nearer actors.

    Only actors whose center is strictly nearer to the ego than the target's
    center can occlude. Returns (fraction in [0,1], binned level).
    """
    views = [_view(ego, other) for other in others if other is not target and other is not ego]
    fraction = _visible_fraction(_view(ego, target), views)
    return fraction, OcclusionLevel.from_fraction(fraction)


def _view(ego: ActorState, actor: ActorState) -> tuple[tuple[float, float] | None, float]:
    """(bearing interval or None, center distance) of an actor seen from the ego."""
    return _angular_interval(ego.x, ego.y, actor), math.hypot(actor.x - ego.x, actor.y - ego.y)


def _visible_fraction(target, others) -> float:
    """The uncovered share of the target view's interval, given the other actors' views."""
    interval, d_target = target
    if interval is None:
        return 1.0
    ta, tb = interval
    width = tb - ta
    if width <= 1e-12:
        return 1.0

    segments: list[tuple[float, float]] = []
    for occ, d_other in others:
        if d_other >= d_target or occ is None:
            continue
        oa, ob = occ
        # Shift by whole turns to sit next to the target interval before clipping.
        shift = TWO_PI * round(((ta + tb) - (oa + ob)) / (2.0 * TWO_PI))
        lo, hi = max(ta, oa + shift), min(tb, ob + shift)
        if hi > lo:
            segments.append((lo, hi))

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
