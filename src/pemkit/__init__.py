"""pemkit: learn perception error models from paired ground-truth/detection
streams and inject them into scenario simulations to measure safety impact."""

__version__ = "0.1.0"

from .geometry import (
    Condition,
    GridSpec,
    OcclusionLevel,
    PolarCoord,
    condition_from_index,
    condition_of,
    conditions_of,
    polar_from_xy,
    wrap_angle,
    xy_from_polar,
)
from .model import (
    ErrorDistribution,
    ModelFormatError,
    PemModel,
    TransitionMatrix,
    load_model,
    never_detect_model,
    perfect_model,
    save_model,
    stationary_detection,
)
from .inject import (
    DuplicateIdError,
    GroundTruthObject,
    PerceivedObject,
    apply_pem,
    session_rng,
)
from .dataset import Frame, PerceptionDataset, Scene, load_dataset, save_dataset
from .matching import MatchResult, match_frame
from .stats import PartitionStats, accumulate_stats, estimate_mle
from .car import CarConvergenceError, CarSpec, FieldObservation, build_adjacency, fit_car, sparse_adjacency
from .learn import EmptyDatasetError, LearnDiagnostics, learn_pem
from .synthetic import SyntheticDatasetConfig, synthesize_dataset
from .server import PemServer, serve_in_thread
from .client import PemClient, RemoteError, replay_transcript

__all__ = [
    "CarConvergenceError",
    "CarSpec",
    "Condition",
    "DuplicateIdError",
    "EmptyDatasetError",
    "ErrorDistribution",
    "FieldObservation",
    "Frame",
    "GridSpec",
    "GroundTruthObject",
    "LearnDiagnostics",
    "MatchResult",
    "ModelFormatError",
    "OcclusionLevel",
    "PartitionStats",
    "PemClient",
    "PemModel",
    "PemServer",
    "PerceivedObject",
    "PerceptionDataset",
    "PolarCoord",
    "RemoteError",
    "Scene",
    "SyntheticDatasetConfig",
    "TransitionMatrix",
    "accumulate_stats",
    "apply_pem",
    "build_adjacency",
    "condition_from_index",
    "condition_of",
    "conditions_of",
    "estimate_mle",
    "fit_car",
    "learn_pem",
    "load_dataset",
    "load_model",
    "match_frame",
    "never_detect_model",
    "perfect_model",
    "polar_from_xy",
    "replay_transcript",
    "save_dataset",
    "save_model",
    "serve_in_thread",
    "session_rng",
    "sparse_adjacency",
    "stationary_detection",
    "synthesize_dataset",
    "wrap_angle",
    "xy_from_polar",
]
