"""Batched runs and the aggregated safety/perception report.

``run_cells`` runs a batch of (scenario, source) cells. Each run owns the
generator its seed gives it, so a cell's report does not depend on how its
seeds are split into chunks, nor on how many processes run the chunks.
"""

from __future__ import annotations

import math
import multiprocessing
import signal
import sys
import threading
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field

from ..checks import require, require_each, require_object

# perfbench wraps experiment.min_distance and experiment.perception_metrics
from .metrics import min_distance, perception_metrics  # noqa: F401
from .runner import RunLog, run_once
from .world import PolicyConfig, ScenarioSpec

# Runs closer than this are treated as severely as a collision.
COLLISION_PROXY_M = 1.0


@dataclass(slots=True)
class CellReport:
    """Aggregate for one (scenario, perception source) combination."""

    scenario_id: str
    source_label: str
    baseline: bool
    n_runs: int
    n_aborted: int
    base_seed: int
    min_distances: list[float]
    detection_freqs: list[float | None]
    max_gaps: list[float | None]
    grid: dict | None = None  # model grid signature; None for ground truth / remote

    @property
    def fraction_below_1m(self) -> float:
        counted = self.n_runs - self.n_aborted
        if counted == 0:
            return 0.0
        return sum(1 for d in self.min_distances if d < COLLISION_PROXY_M) / counted

    @property
    def fraction_at_least_1m(self) -> float:
        counted = self.n_runs - self.n_aborted
        if counted == 0:
            return 0.0
        return 1.0 - self.fraction_below_1m

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario_id,
            "source": self.source_label,
            "baseline": self.baseline,
            "n_runs": self.n_runs,
            "n_aborted": self.n_aborted,
            "base_seed": self.base_seed,
            "fraction_below_1m": self.fraction_below_1m,
            "fraction_at_least_1m": self.fraction_at_least_1m,
            "min_distances_m": self.min_distances,
            "detection_freqs": self.detection_freqs,
            "max_non_detection_s": self.max_gaps,
            "grid": self.grid,
        }

    @classmethod
    def from_dict(cls, doc: dict, path: str = "cell") -> "CellReport":
        require_object(doc, path, _CELL_FIELDS)
        distances, freqs, gaps = (doc[key] for key in _CELL_RUNS)
        if not len(distances) == len(freqs) == len(gaps):
            raise ValueError(f"{path}: {', '.join(_CELL_RUNS)} differ in length")
        # A run without a primary obstacle has no detection frequency or gap: null.
        runs = {f"{path}.{key}": [v for v in doc[key] if v is not None or key == _CELL_RUNS[0]] for key in _CELL_RUNS}
        require_each(runs, float)
        if doc.get("grid") is not None:
            require_each({f"{path}.grid": list(require(doc["grid"], f"{path}.grid", dict).values())}, float)
        return cls(
            scenario_id=doc["scenario"],
            source_label=doc["source"],
            baseline=doc["baseline"],
            n_runs=doc["n_runs"],
            n_aborted=doc["n_aborted"],
            base_seed=doc["base_seed"],
            min_distances=list(doc["min_distances_m"]),
            detection_freqs=list(doc["detection_freqs"]),
            max_gaps=list(doc["max_non_detection_s"]),
            grid=doc.get("grid"),
        )


# The keys CellReport.from_dict reads, with their JSON types; "grid" is an optional object.
_CELL_RUNS = ("min_distances_m", "detection_freqs", "max_non_detection_s")
_CELL_FIELDS = {"scenario": str, "source": str, "baseline": bool, "n_runs": int, "n_aborted": int, "base_seed": int,
                **dict.fromkeys(_CELL_RUNS, list)}


@dataclass(slots=True)
class ExperimentReport:
    cells: list[CellReport] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"cells": [c.to_dict() for c in self.cells]}

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentReport":
        cells = require_object(doc, "", {"cells": list})["cells"]
        return cls(cells=[CellReport.from_dict(c, f"cells[{i}]") for i, c in enumerate(cells)])


@dataclass(slots=True)
class CellPlan:
    """One (scenario, perception source) cell to run: seeds base_seed .. base_seed + n_runs - 1.

    ``log_sink``, if given, is called with (seed, RunLog) after each run,
    in the process that ran it.
    """

    spec: ScenarioSpec
    source: object
    n_runs: int
    base_seed: int
    policy_cfg: PolicyConfig | None = None
    baseline: bool = False
    log_sink: Callable[[int, RunLog], None] | None = None

    def __post_init__(self):
        if self.n_runs < 1:
            raise ValueError("n_runs must be >= 1")


# Per run: (min distance, detection frequency, max non-detection interval), or None when aborted.
RunOutcome = tuple[float, float | None, float | None] | None

# Seed chunks per worker and cell. Smaller chunks let an idle worker take
# over the tail of a cell. On a 2-CPU host (TC1-TC3 x 20 seeds), 4 chunks
# beat 1 in 28 of 40 interleaved runs (median 228 vs 262 ms) in one set,
# and 1, 2, 4 and 8 chunks tied within their quartiles in another.
CHUNKS_PER_JOB = 4


def run_seeds(plan: CellPlan, seeds: range) -> list[RunOutcome]:
    """Run some of a cell's seeds in order; tick rows are recorded only for a log sink."""
    outcomes: list[RunOutcome] = []
    for seed in seeds:
        log = run_once(plan.spec, plan.source, seed, plan.policy_cfg, record_ticks=plan.log_sink is not None)
        if plan.log_sink is not None:
            plan.log_sink(seed, log)
        if log.aborted:
            outcomes.append(None)
        elif not log.obstacles:
            raise ValueError("run log has no obstacles")
        else:
            outcomes.append((log.min_distance_m, log.detection_freq, log.max_gap_s))
    return outcomes


def run_cells(plans: list[CellPlan], jobs: int = 1) -> list[ExperimentReport]:
    """One single-cell report per plan, in plan order, the same for every ``jobs``.

    With ``jobs`` > 1, capped at the number of runs, the seeds of every cell
    go in chunks to one pool of that many forked worker processes, and the
    chunks come back in seed order. The plans reach the workers through the
    fork, unpickled, so a log sink may be any callable. Off Linux (macOS
    system libraries are not fork-safe, and Windows has no fork), or while
    other threads run (a forked child would inherit the locks they hold),
    the chunks run in this process instead.
    """
    if type(jobs) is not int or jobs < 1:
        raise ValueError(f"jobs must be an integer >= 1, got {jobs!r}")
    jobs = min(jobs, sum(plan.n_runs for plan in plans))
    tasks = []
    for i, plan in enumerate(plans):
        size = math.ceil(plan.n_runs / (CHUNKS_PER_JOB * jobs)) if jobs > 1 else plan.n_runs
        seeds = range(plan.base_seed, plan.base_seed + plan.n_runs)
        tasks += [(i, seeds[k : k + size]) for k in range(0, plan.n_runs, size)]
    if jobs > 1 and sys.platform == "linux" and threading.active_count() == 1:
        chunks = _run_forked(plans, tasks, jobs)
    else:
        chunks = [_run_chunk(plans, task) for task in tasks]
    outcomes: list[list[RunOutcome]] = [[] for _ in plans]
    for (i, _), chunk in zip(tasks, chunks):
        outcomes[i] += chunk
    return [ExperimentReport(cells=[_cell_report(plan, out)]) for plan, out in zip(plans, outcomes)]


def _run_chunk(plans: list[CellPlan], task: tuple[int, range]) -> list[RunOutcome]:
    i, seeds = task
    return run_seeds(plans[i], seeds)


def _run_forked(plans: list[CellPlan], tasks: list[tuple[int, range]], jobs: int) -> list[list[RunOutcome]]:
    """The chunks' outcomes in task order, from workers that have all exited when this returns or raises.

    The executor forks every worker before it starts its own threads. A
    worker's exception is raised here; a worker that dies raises
    BrokenProcessPool rather than leaving its chunk unanswered.
    """
    context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(jobs, mp_context=context, initializer=_adopt_plans, initargs=(plans,))
    try:
        return list(pool.map(_run_adopted_chunk, tasks))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


_adopted_plans: list[CellPlan] = []  # set only in a pool worker, by _adopt_plans


def _adopt_plans(plans: list[CellPlan]) -> None:
    """Worker set-up: keep the forked copy of the plans; leave Ctrl-C to the parent."""
    global _adopted_plans
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _adopted_plans = plans


def _run_adopted_chunk(task: tuple[int, range]) -> list[RunOutcome]:
    return _run_chunk(_adopted_plans, task)


def _cell_report(plan: CellPlan, outcomes: list[RunOutcome]) -> CellReport:
    """Aggregate one cell; aborted runs are counted and excluded from the distance bins."""
    model = getattr(plan.source, "model", None)
    grid_sig = None if model is None else asdict(model.grid)
    done = [outcome for outcome in outcomes if outcome is not None]
    return CellReport(
        scenario_id=plan.spec.scenario_id,
        source_label=getattr(plan.source, "label", "?"),
        baseline=plan.baseline,
        n_runs=plan.n_runs,
        n_aborted=len(outcomes) - len(done),
        base_seed=plan.base_seed,
        min_distances=[dist for dist, _, _ in done],
        detection_freqs=[freq for _, freq, _ in done],
        max_gaps=[gap for _, _, gap in done],
        grid=grid_sig,
    )


def run_experiment(
    spec: ScenarioSpec,
    source,
    n_runs: int,
    base_seed: int,
    policy_cfg: PolicyConfig | None = None,
    baseline: bool = False,
    log_sink=None,
) -> ExperimentReport:
    """Run seeds base_seed .. base_seed + n_runs - 1 in this process and aggregate one cell.

    Aborted runs are counted and excluded from the distance bins. log_sink,
    if given, is called with (seed, RunLog) after each run.
    """
    return run_cells([CellPlan(spec, source, n_runs, base_seed, policy_cfg, baseline, log_sink)])[0]


def merge_reports(reports: list[ExperimentReport]) -> ExperimentReport:
    merged = ExperimentReport()
    for report in reports:
        merged.cells.extend(report.cells)
    return merged


def render_table(report: ExperimentReport) -> str:
    """Success-rate table: one row per source, <1m / >=1m columns per scenario."""
    scenarios = sorted({c.scenario_id for c in report.cells})
    sources: list[str] = []
    for cell in report.cells:
        if cell.source_label not in sources:
            sources.append(cell.source_label)
    by_key = {(c.source_label, c.scenario_id): c for c in report.cells}

    header = ["source"]
    for sc in scenarios:
        header += [f"{sc} <1m", f"{sc} >=1m"]
    rows = [header]
    for src in sources:
        row = [src]
        for sc in scenarios:
            cell = by_key.get((src, sc))
            if cell is None:
                row += ["-", "-"]
            else:
                row += [f"{100 * cell.fraction_below_1m:.1f}%", f"{100 * cell.fraction_at_least_1m:.1f}%"]
        rows.append(row)

    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    lines = []
    for i, row in enumerate(rows):
        lines.append(" | ".join(cell.rjust(widths[j]) if j else cell.ljust(widths[j]) for j, cell in enumerate(row)))
        if i == 0:
            lines.append("-+-".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
