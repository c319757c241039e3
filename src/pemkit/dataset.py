"""Perception datasets: paired ground-truth / detection streams and their JSONL format.

On disk a dataset is JSON-lines, one frame per line:

    {"scene": 0, "t": 0, "gt": [{"id": 3, "x": 1.0, "y": 20.0, "occ": 3}], "det": [{"x": 1.1, "y": 19.5}]}

with positions in ego-relative Cartesian meters (x right, y forward); the
loader converts to polar. Rows are validated as they are read, and a bad row
is a ``DatasetFormatError`` naming its line:

- ``scene``, ``t``, ``id`` and ``occ`` must be JSON integers (``3.7``, ``"5"``
  and ``true`` are rejected, not truncated) that fit in 64 bits, and ``occ``
  an ``OcclusionLevel``; coordinates go through ``float()``.
- Coordinates must be finite: ``NaN``, ``Infinity`` and overflowing literals
  such as ``1e999`` are rejected.
- ``t`` must strictly increase within a scene. Rows of different scenes may
  interleave. A gap in ``t`` breaks every track: no detection-state
  transition is counted across it.

In memory a dataset is columnar: flat NumPy arrays for the whole dataset,
never one Python object per position.

- per scene: ``scene_ids`` and ``scene_offsets`` (its frame range; scenes are
  ordered by id when loaded and may be empty)
- per frame: ``t`` and ``gt_offsets`` / ``det_offsets`` (its object ranges)
- per ground-truth object: ``gt_id``, ``gt_r``, ``gt_theta``, ``gt_occ``
- per detection: ``det_r``, ``det_theta``

``Scene`` / ``Frame`` objects are built only when ``scenes`` is read, and
``PerceptionDataset(scenes)`` converts such objects to columns.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .geometry import (
    N_OCCLUSION_LEVELS,
    OcclusionLevel,
    PolarCoord,
    polar_from_xy_arrays,
    xy_from_polar_arrays,
)
from .inject import GroundTruthObject

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class DatasetFormatError(ValueError):
    """A dataset file is malformed."""


@dataclass(slots=True)
class Frame:
    """One frame; ``t`` defaults to the frame's index in its scene."""

    gt: list[GroundTruthObject]
    det: list[PolarCoord]
    t: int | None = None


@dataclass(slots=True)
class Scene:
    scene_id: int
    frames: list[Frame] = field(default_factory=list)


def _offsets(counts: list[int] | np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


class DatasetBuilder:
    """Collects scenes frame by frame into flat lists, then builds the columns once."""

    def __init__(self):
        self.scene_ids: list[int] = []
        self.scene_frames: list[int] = []
        self.t: list[int] = []
        self.gt_counts: list[int] = []
        self.det_counts: list[int] = []
        self.gt_id: list[int] = []
        self.gt_r: list[float] = []
        self.gt_theta: list[float] = []
        self.gt_occ: list[int] = []
        self.det_r: list[float] = []
        self.det_theta: list[float] = []

    def add_scene(self, scene_id: int) -> None:
        self.scene_ids.append(scene_id)
        self.scene_frames.append(0)

    def add_frame(self, gt: list[GroundTruthObject], det: list[PolarCoord], t: int | None = None) -> None:
        if t is None:
            t = self.scene_frames[-1]
        if self.scene_frames[-1] and t <= self.t[-1]:
            raise ValueError(f"scene {self.scene_ids[-1]}: frame t {t} does not increase on t {self.t[-1]}")
        self.scene_frames[-1] += 1
        self.t.append(t)
        self.gt_counts.append(len(gt))
        self.det_counts.append(len(det))
        for obj in gt:
            self.gt_id.append(obj.id)
            self.gt_r.append(obj.position.r)
            self.gt_theta.append(obj.position.theta)
            self.gt_occ.append(obj.occlusion)
        for p in det:
            self.det_r.append(p.r)
            self.det_theta.append(p.theta)

    def build(self, frame_rate_hz: float = 2.0) -> "PerceptionDataset":
        return PerceptionDataset.from_columns(self.columns(), frame_rate_hz)

    def columns(self) -> dict[str, np.ndarray]:
        return dict(
            scene_ids=np.array(self.scene_ids, dtype=np.int64),
            scene_offsets=_offsets(self.scene_frames),
            t=np.array(self.t, dtype=np.int64),
            gt_offsets=_offsets(self.gt_counts),
            det_offsets=_offsets(self.det_counts),
            gt_id=np.array(self.gt_id, dtype=np.int64),
            gt_r=np.array(self.gt_r, dtype=float),
            gt_theta=np.array(self.gt_theta, dtype=float),
            gt_occ=np.array(self.gt_occ, dtype=np.int64),
            det_r=np.array(self.det_r, dtype=float),
            det_theta=np.array(self.det_theta, dtype=float),
        )


class PerceptionDataset:
    """A columnar perception dataset; see the module docstring for the layout."""

    __slots__ = (
        "frame_rate_hz",
        "scene_ids",
        "scene_offsets",
        "t",
        "gt_offsets",
        "det_offsets",
        "gt_id",
        "gt_r",
        "gt_theta",
        "gt_occ",
        "det_r",
        "det_theta",
    )

    def __init__(self, scenes: Iterable[Scene] = (), frame_rate_hz: float = 2.0):
        builder = DatasetBuilder()
        for scene in scenes:
            builder.add_scene(scene.scene_id)
            for frame in scene.frames:
                builder.add_frame(frame.gt, frame.det, frame.t)
        self._set_columns(builder.columns(), frame_rate_hz)

    @classmethod
    def from_columns(cls, columns: dict[str, np.ndarray], frame_rate_hz: float = 2.0) -> "PerceptionDataset":
        dataset = cls.__new__(cls)
        dataset._set_columns(columns, frame_rate_hz)
        return dataset

    def _set_columns(self, columns: dict[str, np.ndarray], frame_rate_hz: float) -> None:
        self.frame_rate_hz = frame_rate_hz
        for name, values in columns.items():
            setattr(self, name, values)

    @property
    def n_frames(self) -> int:
        return len(self.t)

    @property
    def scenes(self) -> list[Scene]:
        """Object view of the dataset, built on every read; editing it leaves the dataset unchanged."""
        ids = self.gt_id.tolist()
        gt_pos = list(map(PolarCoord, self.gt_r.tolist(), self.gt_theta.tolist()))
        occ = list(map(OcclusionLevel, self.gt_occ.tolist()))
        det = list(map(PolarCoord, self.det_r.tolist(), self.det_theta.tolist()))
        gt_off, det_off, t = self.gt_offsets.tolist(), self.det_offsets.tolist(), self.t.tolist()
        scenes = []
        bounds = self.scene_offsets.tolist()
        for s, scene_id in enumerate(self.scene_ids.tolist()):
            frames = []
            for f in range(bounds[s], bounds[s + 1]):
                a, b = gt_off[f], gt_off[f + 1]
                gt = list(map(GroundTruthObject, ids[a:b], gt_pos[a:b], occ[a:b]))
                frames.append(Frame(gt, det[det_off[f] : det_off[f + 1]], t[f]))
            scenes.append(Scene(scene_id, frames))
        return scenes


def save_dataset(dataset: PerceptionDataset, path: str | Path) -> None:
    gx, gy = (a.tolist() for a in xy_from_polar_arrays(dataset.gt_r, dataset.gt_theta))
    dx, dy = (a.tolist() for a in xy_from_polar_arrays(dataset.det_r, dataset.det_theta))
    ids, occ = dataset.gt_id.tolist(), dataset.gt_occ.tolist()
    gt_off, det_off, t = dataset.gt_offsets.tolist(), dataset.det_offsets.tolist(), dataset.t.tolist()
    bounds = dataset.scene_offsets.tolist()
    with Path(path).open("w", encoding="utf-8") as fh:
        for s, scene_id in enumerate(dataset.scene_ids.tolist()):
            for f in range(bounds[s], bounds[s + 1]):
                gt = [
                    {"id": ids[k], "x": gx[k], "y": gy[k], "occ": occ[k]}
                    for k in range(gt_off[f], gt_off[f + 1])
                ]
                det = [{"x": dx[k], "y": dy[k]} for k in range(det_off[f], det_off[f + 1])]
                row = {"scene": scene_id, "t": t[f], "gt": gt, "det": det}
                fh.write(json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n")


def _check_values(scene_id, t, ids: list, occ: list, coords: tuple[list[float], ...]) -> None:
    """Per-row value rules: exact ``int`` fields (not bool), 64-bit integers, valid levels, finite coordinates."""
    for name, values in (("scene", (scene_id,)), ("t", (t,)), ("id", ids), ("occ", occ)):
        if not {int}.issuperset(map(type, values)):
            bad = next(v for v in values if type(v) is not int)
            raise ValueError(f"{name} must be an integer, got {bad!r}")
    ints = [scene_id, t, *ids]
    if min(ints) < _INT64_MIN or max(ints) > _INT64_MAX:
        bad = next(v for v in ints if not _INT64_MIN <= v <= _INT64_MAX)
        raise ValueError(f"integer {bad} does not fit in 64 bits")
    if occ and (min(occ) < 0 or max(occ) >= N_OCCLUSION_LEVELS):
        bad = next(o for o in occ if not 0 <= o < N_OCCLUSION_LEVELS)
        raise ValueError(f"{bad} is not a valid {OcclusionLevel.__name__}")
    # One sum per row is the fast path; it can overflow on finite values, so
    # only a per-value check decides.
    if not math.isfinite(sum(map(sum, coords))):
        for v in (v for values in coords for v in values):
            if not math.isfinite(v):
                raise ValueError(f"non-finite coordinate {v}")


def _regroup(offsets: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Element index and new offsets that put the ranges of ``offsets`` in ``order``."""
    counts = np.diff(offsets)[order]
    new_offsets = _offsets(counts)
    index = np.repeat(offsets[:-1][order] - new_offsets[:-1], counts) + np.arange(new_offsets[-1])
    return index, new_offsets


def load_dataset(path: str | Path, frame_rate_hz: float = 2.0) -> PerceptionDataset:
    """Read a JSONL dataset into columns; scenes come out ordered by id, frames in file order."""
    scene_of_row: list[int] = []
    t_of_row: list[int] = []
    gt_counts: list[int] = []
    det_counts: list[int] = []
    gt_id: list[int] = []
    gt_x: list[float] = []
    gt_y: list[float] = []
    gt_occ: list[int] = []
    det_x: list[float] = []
    det_y: list[float] = []
    last_t: dict[int, int] = {}
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.isspace():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"line {lineno}: not valid JSON: {exc}") from exc
            try:
                scene_id = row["scene"]
                t = row["t"]
                gt = row["gt"]
                det = row["det"]
                ids = [entry["id"] for entry in gt]
                gx = [float(entry["x"]) for entry in gt]
                gy = [float(entry["y"]) for entry in gt]
                occ = [entry["occ"] for entry in gt]
                dx = [float(entry["x"]) for entry in det]
                dy = [float(entry["y"]) for entry in det]
                _check_values(scene_id, t, ids, occ, (gx, gy, dx, dy))
                prev = last_t.get(scene_id)
                if prev is not None and t <= prev:
                    raise ValueError(f"t {t} does not increase on t {prev} of scene {scene_id}")
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise DatasetFormatError(f"line {lineno}: {exc}") from exc
            last_t[scene_id] = t
            scene_of_row.append(scene_id)
            t_of_row.append(t)
            gt_counts.append(len(ids))
            det_counts.append(len(dx))
            gt_id += ids
            gt_x += gx
            gt_y += gy
            gt_occ += occ
            det_x += dx
            det_y += dy

    gt_r, gt_theta = polar_from_xy_arrays(gt_x, gt_y)
    det_r, det_theta = polar_from_xy_arrays(det_x, det_y)
    columns = dict(
        t=np.array(t_of_row, dtype=np.int64),
        gt_offsets=_offsets(gt_counts),
        det_offsets=_offsets(det_counts),
        gt_id=np.array(gt_id, dtype=np.int64),
        gt_r=gt_r,
        gt_theta=gt_theta,
        gt_occ=np.array(gt_occ, dtype=np.int64),
        det_r=det_r,
        det_theta=det_theta,
    )
    scene_of_frame = np.array(scene_of_row, dtype=np.int64)
    if np.any(scene_of_frame[1:] < scene_of_frame[:-1]):
        order = np.argsort(scene_of_frame, kind="stable")
        scene_of_frame = scene_of_frame[order]
        columns["t"] = columns["t"][order]
        gt_index, columns["gt_offsets"] = _regroup(columns["gt_offsets"], order)
        det_index, columns["det_offsets"] = _regroup(columns["det_offsets"], order)
        for name in ("gt_id", "gt_r", "gt_theta", "gt_occ"):
            columns[name] = columns[name][gt_index]
        for name in ("det_r", "det_theta"):
            columns[name] = columns[name][det_index]
    scene_ids, frames_per_scene = np.unique(scene_of_frame, return_counts=True)
    columns["scene_ids"] = scene_ids
    columns["scene_offsets"] = _offsets(frames_per_scene)
    return PerceptionDataset.from_columns(columns, frame_rate_hz=frame_rate_hz)
