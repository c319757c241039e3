"""Frame-level association of ground-truth objects with raw detections.

Matching is a gated one-to-one assignment: only pairs within the distance
gate may match, and among assignments that match as many pairs as possible
the one with the smallest total Euclidean center distance wins. Ties are
broken toward the lowest ground-truth id, then the lowest detection index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import PolarCoord, xy_from_polar
from .inject import GroundTruthObject

DEFAULT_GATE_M = 10.0

# Dominates any feasible total (at most min(n, m) * gate), so minimizing the
# padded total first maximizes the number of real matches.
_INFEASIBLE = 1.0e9


@dataclass(slots=True)
class MatchResult:
    """One frame's assignment: gt id -> detection index, plus the leftovers."""

    assignments: dict[int, int]
    unmatched_gt: list[int]
    unmatched_det: list[int]
    total_cost: float


def _cartesian(points: list[PolarCoord]) -> np.ndarray:
    if not points:
        return np.zeros((0, 2))
    return np.array([xy_from_polar(p) for p in points])


def match_frame(
    gt: list[GroundTruthObject],
    detections: list[PolarCoord],
    gate_m: float = DEFAULT_GATE_M,
) -> MatchResult:
    """Optimal gated assignment for one frame.

    The gate is inclusive: a pair exactly gate_m apart may match. Exact-tie
    configurations are canonicalized by pairwise exchanges so the preferred
    (lowest gt id, lowest detection index) optimum is returned.
    """
    order = sorted(range(len(gt)), key=lambda k: gt[k].id)
    gt_ids = [gt[k].id for k in order]
    n, m = len(gt_ids), len(detections)
    if n == 0 or m == 0:
        return MatchResult({}, list(gt_ids), list(range(m)), 0.0)

    rows, cols, costs = match_points(_cartesian([gt[k].position for k in order]), _cartesian(detections), gate_m)
    rows, cols = rows.tolist(), cols.tolist()
    assignments = {gt_ids[r]: c for r, c in zip(rows, cols)}
    matched_rows, matched_cols = set(rows), set(cols)
    unmatched_gt = [gt_ids[r] for r in range(n) if r not in matched_rows]
    unmatched_det = [c for c in range(m) if c not in matched_cols]
    return MatchResult(assignments, unmatched_gt, unmatched_det, float(sum(costs.tolist())))


def match_points(
    gt_xy: np.ndarray, det_xy: np.ndarray, gate_m: float = DEFAULT_GATE_M
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The array kernel of ``match_frame``: canonical gated assignment of x/y points.

    ``gt_xy`` (n, 2) must already be in preference order (ascending gt id) and
    both arrays non-empty. Returns (rows, cols, costs): matched gt rows in
    ascending order, their detection indices, and the pair distances.
    """
    # Two squares added directly: the same a0 + a1 as a sum over a length-2 axis.
    ex = gt_xy[:, 0, None] - det_xy[None, :, 0]
    ey = gt_xy[:, 1, None] - det_xy[None, :, 1]
    dist = np.sqrt(ex * ex + ey * ey)
    feasible = dist <= gate_m
    cost = np.where(feasible, dist, _INFEASIBLE)

    rows, cols = linear_sum_assignment(cost)
    keep = feasible[rows, cols]
    rows, cols = rows[keep], cols[keep]
    if _tie_move_possible(rows, cols, dist):
        n, m = dist.shape
        match = _canonicalize_ties(dict(zip(rows.tolist(), cols.tolist())), dist, feasible, n, m)
        rows = np.array(sorted(match), dtype=np.intp)
        cols = np.array([match[r] for r in rows.tolist()], dtype=np.intp)
    return rows, cols, dist[rows, cols]


def _tie_move_possible(rows: np.ndarray, cols: np.ndarray, dist: np.ndarray) -> bool:
    """False when no move of ``_canonicalize_ties`` can apply to the assignment.

    Tests a necessary condition of each of the loop's three moves on the
    whole assignment at once, so that the loop, which would return the
    assignment unchanged, runs only when a move may apply. The conditions are
    exact ties: some other entry at the distance of its row's or its
    column's match (a tie with a matched distance is within the gate), or a
    pair whose swapped total equals its kept total. The k matched entries
    always tie with themselves, hence the counts above k.
    """
    k = rows.size
    if k == 0:
        return False
    n, m = dist.shape
    d = dist[rows, cols]
    d_row = np.full(n, np.nan)
    d_row[rows] = d
    d_col = np.full(m, np.nan)
    d_col[cols] = d
    if np.count_nonzero((dist == d_row[:, None]) | (dist == d_col[None, :])) > k:
        return True
    # sub[i, j] + sub[j, i] is dist[r_i, c_j] + dist[r_j, c_i], summed in the loop's order for i < j.
    sub = dist[rows[:, None], cols]
    return np.count_nonzero(sub + sub.T == d[:, None] + d[None, :]) > k


def _canonicalize_ties(match: dict[int, int], dist, feasible, n: int, m: int) -> dict[int, int]:
    """Resolve exact-equality cost ties toward the documented preference order.

    Three cost-neutral moves are applied until a fixpoint: hand a detection to
    a lower, equally-distant unmatched row; move a row to a lower, equally
    distant free column; and swap two rows' columns when the totals tie and
    the swap lowers the lexicographic (row, column) pairing.
    """
    for _ in range(4 * (n + m) + 8):
        changed = False
        matched_cols = set(match.values())
        free_cols = [c for c in range(m) if c not in matched_cols]
        free_rows = [r for r in range(n) if r not in match]
        for r in sorted(match):
            c = match[r]
            for r2 in free_rows:
                if r2 < r and feasible[r2, c] and dist[r2, c] == dist[r, c]:
                    del match[r]
                    match[r2] = c
                    changed = True
                    break
            if changed:
                break
            for c2 in free_cols:
                if c2 < c and feasible[r, c2] and dist[r, c2] == dist[r, c]:
                    match[r] = c2
                    changed = True
                    break
            if changed:
                break
        if not changed:
            rows_sorted = sorted(match)
            for i, r1 in enumerate(rows_sorted):
                for r2 in rows_sorted[i + 1 :]:
                    c1, c2 = match[r1], match[r2]
                    if c2 < c1 and feasible[r1, c2] and feasible[r2, c1]:
                        if dist[r1, c2] + dist[r2, c1] == dist[r1, c1] + dist[r2, c2]:
                            match[r1], match[r2] = c2, c1
                            changed = True
                            break
                if changed:
                    break
        if not changed:
            return match
    return match


def brute_force_match(
    gt: list[GroundTruthObject],
    detections: list[PolarCoord],
    gate_m: float = DEFAULT_GATE_M,
) -> tuple[int, float]:
    """Exhaustive (max cardinality, min total distance) gated assignment.

    Independent oracle for small frames; returns (cardinality, total cost).
    """
    order = sorted(range(len(gt)), key=lambda k: gt[k].id)
    gp = _cartesian([gt[k].position for k in order])
    dp = _cartesian(detections)
    n, m = len(order), len(detections)
    if n == 0 or m == 0:
        return 0, 0.0
    diff = gp[:, None, :] - dp[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))

    best = (0, 0.0)

    def recurse(row: int, used: set[int], card: int, cost: float):
        nonlocal best
        if row == n:
            if card > best[0] or (card == best[0] and cost < best[1]):
                best = (card, cost)
            return
        recurse(row + 1, used, card, cost)
        for c in range(m):
            if c not in used and dist[row, c] <= gate_m:
                used.add(c)
                recurse(row + 1, used, card + 1, cost + dist[row, c])
                used.remove(c)

    recurse(0, set(), 0, 0.0)
    return best
