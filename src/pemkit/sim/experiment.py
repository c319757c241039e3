"""Batched runs and the aggregated safety/perception report."""

from __future__ import annotations

from dataclasses import dataclass, field

from .metrics import min_distance, perception_metrics  # noqa: F401  perfbench wraps experiment.min_distance
from .runner import run_once
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
    def from_dict(cls, doc: dict) -> "CellReport":
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


@dataclass(slots=True)
class ExperimentReport:
    cells: list[CellReport] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"cells": [c.to_dict() for c in self.cells]}

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentReport":
        return cls(cells=[CellReport.from_dict(c) for c in doc["cells"]])


def run_experiment(
    spec: ScenarioSpec,
    source,
    n_runs: int,
    base_seed: int,
    policy_cfg: PolicyConfig | None = None,
    baseline: bool = False,
    log_sink=None,
) -> ExperimentReport:
    """Run seeds base_seed .. base_seed + n_runs - 1 and aggregate one cell.

    Aborted runs are counted and excluded from the distance bins. log_sink,
    if given, is called with (seed, RunLog) after each run.
    """
    if n_runs < 1:
        raise ValueError("n_runs must be >= 1")
    model = getattr(source, "model", None)
    grid_sig = None
    if model is not None:
        grid_sig = {
            "sector_width_deg": model.grid.sector_width_deg,
            "ring_depth_m": model.grid.ring_depth_m,
            "max_radius_m": model.grid.max_radius_m,
        }
    cell = CellReport(
        scenario_id=spec.scenario_id,
        source_label=getattr(source, "label", "?"),
        baseline=baseline,
        n_runs=n_runs,
        n_aborted=0,
        base_seed=base_seed,
        min_distances=[],
        detection_freqs=[],
        max_gaps=[],
        grid=grid_sig,
    )
    for seed in range(base_seed, base_seed + n_runs):
        log = run_once(spec, source, seed, policy_cfg)
        if log_sink is not None:
            log_sink(seed, log)
        if log.aborted:
            cell.n_aborted += 1
            continue
        cell.min_distances.append(log.min_distance_m)
        freq, gap = perception_metrics(log)
        cell.detection_freqs.append(freq)
        cell.max_gaps.append(gap)
    return ExperimentReport(cells=[cell])


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
