"""Deterministic 2D scenario harness: scripted actors, a longitudinal driving
policy consuming perceived worlds, and the safety / perception metrics."""

from .world import (
    ActorState,
    PolicyConfig,
    ScenarioSpec,
    make_scenario,
    make_tc1,
    make_tc2,
    make_tc3,
    scenario_from_dict,
)
from .policy import driving_policy
from .occlusion import compute_occlusion
from .metrics import min_distance, perception_metrics, rect_distance
from .runner import (
    GroundTruthSource,
    ModelSource,
    PerceptionUnavailable,
    RemoteSource,
    RunLog,
    load_runlog,
    run_once,
    save_runlog,
)
from .experiment import CellPlan, CellReport, ExperimentReport, merge_reports, render_table, run_cells, run_experiment

__all__ = [
    "ActorState",
    "CellPlan",
    "CellReport",
    "ExperimentReport",
    "GroundTruthSource",
    "ModelSource",
    "PerceptionUnavailable",
    "PolicyConfig",
    "RemoteSource",
    "RunLog",
    "ScenarioSpec",
    "compute_occlusion",
    "driving_policy",
    "load_runlog",
    "make_scenario",
    "make_tc1",
    "make_tc2",
    "make_tc3",
    "merge_reports",
    "min_distance",
    "perception_metrics",
    "rect_distance",
    "render_table",
    "run_cells",
    "run_experiment",
    "run_once",
    "save_runlog",
    "scenario_from_dict",
]
