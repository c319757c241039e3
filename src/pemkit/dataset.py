"""Perception datasets: paired ground-truth / detection streams and their JSONL format.

On disk a dataset is JSON-lines, one frame per line:

    {"scene": 0, "t": 0, "gt": [{"id": 3, "x": 1.0, "y": 20.0, "occ": 3}], "det": [{"x": 1.1, "y": 19.5}]}

with positions in ego-relative Cartesian meters (x right, y forward); the
loader converts to polar. Rows are validated as they are read, and a bad row
is a ``DatasetFormatError`` naming its line:

- ``scene``, ``t``, ``id`` and ``occ`` must be JSON integers (``3.7``, ``"5"``
  and ``true`` are rejected, not truncated) that fit in 64 bits, and ``occ``
  an ``OcclusionLevel``; coordinates must be numbers (see ``checks``).
- ``t`` must strictly increase within a scene. Rows of different scenes may
  interleave. A gap in ``t`` breaks every track: no detection-state
  transition is counted across it.
- The file is UTF-8; a byte that does not decode is an error of its line.
  Of several bad lines, the earliest is reported.

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

import io
import json
import os
import re
import stat
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .checks import require, require_each
from .geometry import (
    N_OCCLUSION_LEVELS,
    OcclusionLevel,
    PolarCoord,
    polar_from_xy_arrays,
    xy_from_polar_arrays,
)
from .inject import GroundTruthObject
from .parallel import fork_map

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

    def add_frame(
        self, gt: list[tuple[int, float, float, int]], det: list[tuple[float, float]], t: int | None = None
    ) -> None:
        """Append a frame to the current scene: ground truth as (id, r, theta, occ), detections as (r, theta)."""
        if t is None:
            t = self.scene_frames[-1]
        if self.scene_frames[-1] and t <= self.t[-1]:
            raise ValueError(f"scene {self.scene_ids[-1]}: frame t {t} does not increase on t {self.t[-1]}")
        self.scene_frames[-1] += 1
        self.t.append(t)
        self.gt_counts.append(len(gt))
        self.det_counts.append(len(det))
        for oid, r, theta, occ in gt:
            self.gt_id.append(oid)
            self.gt_r.append(r)
            self.gt_theta.append(theta)
            self.gt_occ.append(occ)
        for r, theta in det:
            self.det_r.append(r)
            self.det_theta.append(theta)

    def build(self) -> "PerceptionDataset":
        return PerceptionDataset.from_columns(self.columns())

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

    def __init__(self, scenes: Iterable[Scene] = ()):
        builder = DatasetBuilder()
        for scene in scenes:
            builder.add_scene(scene.scene_id)
            for frame in scene.frames:
                gt = [(obj.id, obj.position.r, obj.position.theta, obj.occlusion) for obj in frame.gt]
                builder.add_frame(gt, [(p.r, p.theta) for p in frame.det], frame.t)
        self._set_columns(builder.columns())

    @classmethod
    def from_columns(cls, columns: dict[str, np.ndarray]) -> "PerceptionDataset":
        dataset = cls.__new__(cls)
        dataset._set_columns(columns)
        return dataset

    def _set_columns(self, columns: dict[str, np.ndarray]) -> None:
        for name, values in columns.items():
            setattr(self, name, values)

    @property
    def n_frames(self) -> int:
        return len(self.t)

    def scene_range(self, start: int, stop: int) -> "PerceptionDataset":
        """Scenes ``start`` to ``stop - 1`` as a dataset whose columns view this one's."""
        f0, f1 = int(self.scene_offsets[start]), int(self.scene_offsets[stop])
        g0, g1 = int(self.gt_offsets[f0]), int(self.gt_offsets[f1])
        d0, d1 = int(self.det_offsets[f0]), int(self.det_offsets[f1])
        columns = dict(
            scene_ids=self.scene_ids[start:stop],
            scene_offsets=self.scene_offsets[start : stop + 1] - f0,
            t=self.t[f0:f1],
            gt_offsets=self.gt_offsets[f0 : f1 + 1] - g0,
            det_offsets=self.det_offsets[f0 : f1 + 1] - d0,
        )
        columns.update({name: getattr(self, name)[g0:g1] for name in ("gt_id", "gt_r", "gt_theta", "gt_occ")})
        columns.update({name: getattr(self, name)[d0:d1] for name in ("det_r", "det_theta")})
        return PerceptionDataset.from_columns(columns)

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


def _check_values(scene_id, t, ids: list, occ: list, coords: tuple[list, ...]) -> None:
    """Per-row value rules: integer fields, 64-bit integers, valid levels, finite coordinates."""
    require_each({"scene": (scene_id,), "t": (t,), "id": ids, "occ": occ}, int)
    ints = [scene_id, t, *ids]
    if min(ints) < _INT64_MIN or max(ints) > _INT64_MAX:
        bad = next(v for v in ints if not _INT64_MIN <= v <= _INT64_MAX)
        raise ValueError(f"integer {bad} does not fit in 64 bits")
    if occ and (min(occ) < 0 or max(occ) >= N_OCCLUSION_LEVELS):
        bad = next(o for o in occ if not 0 <= o < N_OCCLUSION_LEVELS)
        raise ValueError(f"{bad} is not a valid {OcclusionLevel.__name__}")
    require_each(dict(zip(("gt.x", "gt.y", "det.x", "det.y"), coords)), float)


def _regroup(offsets: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Element index and new offsets that put the ranges of ``offsets`` in ``order``."""
    counts = np.diff(offsets)[order]
    new_offsets = _offsets(counts)
    index = np.repeat(offsets[:-1][order] - new_offsets[:-1], counts) + np.arange(new_offsets[-1])
    return index, new_offsets


# Dataset files smaller than this load in-process whatever ``jobs`` is. On a
# 2-CPU host (benchmark-style files, 2 workers against 1, alternating), a
# 3.17 MB file loaded faster on workers in 10 of 11 calls (median 121 vs
# 158 ms); 2.75 MB won 3 of 11, and 1.05 MB none of 9.
MIN_SHARDED_BYTES = 3_000_000


def load_dataset(path: str | Path, jobs: int = 1) -> PerceptionDataset:
    """Read a JSONL dataset into columns; scenes come out ordered by id, frames in file order.

    With ``jobs`` > 1 and a regular file of at least ``MIN_SHARDED_BYTES``,
    the file is cut after line ends into one byte range per worker, which
    each forked worker (``parallel.fork_map``) reads and parses; otherwise,
    as for a pipe, the file is one piece, read to its end in-process. The
    columns, or the earliest bad line's error, are the same.
    """
    require(jobs, "jobs", int, at_least=1)
    info = os.stat(path)
    ranges = [(0, None)]
    if jobs > 1 and stat.S_ISREG(info.st_mode) and info.st_size >= MIN_SHARDED_BYTES:
        with open(path, "rb") as fh:
            ranges = _byte_ranges(fh, info.st_size, jobs)
    return _join_rows(fork_map(partial(_parse_rows, path), ranges, jobs))


def _byte_ranges(fh: io.BufferedIOBase, size: int, parts: int) -> list[tuple[int, int | None]]:
    r"""(start, stop) of up to ``parts`` ranges of a ``size``-byte file, the last to EOF (None), cut after line ends.

    A line ends at ``\n``, ``\r\n`` or a lone ``\r``, as in text mode; no cut falls between ``\r`` and ``\n``.
    """
    cuts = [0]
    for k in range(1, parts):
        start = max(k * size // parts, cuts[-1])
        fh.seek(start)
        end = re.search(rb"\r\n?|\n", fh.readline())  # readline stops after a \n, so \r\n is never split
        if end is None or start + end.end() >= size:
            break
        cuts.append(start + end.end())
    return list(zip(cuts, cuts[1:] + [None]))


def _lines(path: str | Path, start: int, stop: int | None) -> Iterator[bytes]:
    r"""The lines from byte ``start`` to ``stop`` (None: EOF), ``\r\n`` and ``\r`` read as ``\n`` as in text mode.

    A range that starts at 0 is read without a seek, so a pipe can be read.
    """
    with open(path, "rb") as fh:
        if start:
            fh.seek(start)
        while chunk := fh.readline(-1 if stop is None else stop - start):
            start += len(chunk)
            yield from chunk.replace(b"\r\n", b"\n").replace(b"\r", b"\n").splitlines(keepends=True)


def _parse_rows(
    path: str | Path, span: tuple[int, int | None]
) -> tuple[dict[str, np.ndarray], tuple[int, str] | None, int]:
    """Columns of one byte range's rows up to its first bad row, that row's (line, message), and its line count.

    Line numbers count from 1 at the start of the range.
    """
    line_of_row: list[int] = []
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
    error = None
    lineno = 0
    lines = enumerate(_lines(path, *span), start=1)
    for lineno, raw in lines:
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            error = (lineno, f"not valid UTF-8: {exc.reason}")
            break
        if line.isspace():
            continue
        try:
            row = json.loads(line)
        except ValueError as exc:  # also integer literals beyond the interpreter's digit limit
            error = (lineno, f"not valid JSON: {exc}")
            break
        try:
            scene_id = row["scene"]
            t = row["t"]
            gt = row["gt"]
            det = row["det"]
            ids = [entry["id"] for entry in gt]
            gx = [entry["x"] for entry in gt]
            gy = [entry["y"] for entry in gt]
            occ = [entry["occ"] for entry in gt]
            dx = [entry["x"] for entry in det]
            dy = [entry["y"] for entry in det]
            _check_values(scene_id, t, ids, occ, (gx, gy, dx, dy))
        except (KeyError, TypeError, ValueError) as exc:
            error = (lineno, str(exc))
            break
        line_of_row.append(lineno)
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
    for lineno, _ in lines:  # a bad row's piece still counts its lines, which number the next piece's
        pass

    gt_r, gt_theta = polar_from_xy_arrays(gt_x, gt_y)
    det_r, det_theta = polar_from_xy_arrays(det_x, det_y)
    columns = dict(
        line=np.array(line_of_row, dtype=np.int64),
        scene=np.array(scene_of_row, dtype=np.int64),
        t=np.array(t_of_row, dtype=np.int64),
        gt_counts=np.array(gt_counts, dtype=np.int64),
        det_counts=np.array(det_counts, dtype=np.int64),
        gt_id=np.array(gt_id, dtype=np.int64),
        gt_r=gt_r,
        gt_theta=gt_theta,
        gt_occ=np.array(gt_occ, dtype=np.int64),
        det_r=det_r,
        det_theta=det_theta,
    )
    return columns, error, lineno


def _join_rows(pieces: list) -> PerceptionDataset:
    """One dataset from the pieces in file order, or the error of the earliest bad line.

    Each piece numbers its lines from 1; the line counts of the pieces before it offset them.
    ``t`` order is checked once rows are sorted by scene: each follows the previous row of its scene.
    """
    errors, first_line = [], 0
    for rows, error, n_lines in pieces:
        rows["line"] += first_line
        if error:
            errors.append((error[0] + first_line, error[1]))
        first_line += n_lines
    columns = {name: np.concatenate([rows[name] for rows, _, _ in pieces]) for name in pieces[0][0]}
    line = columns.pop("line")
    scene_of_frame = columns.pop("scene")
    columns["gt_offsets"] = _offsets(columns.pop("gt_counts"))
    columns["det_offsets"] = _offsets(columns.pop("det_counts"))
    if np.any(scene_of_frame[1:] < scene_of_frame[:-1]):
        order = np.argsort(scene_of_frame, kind="stable")
        scene_of_frame, line = scene_of_frame[order], line[order]
        columns["t"] = columns["t"][order]
        gt_index, columns["gt_offsets"] = _regroup(columns["gt_offsets"], order)
        det_index, columns["det_offsets"] = _regroup(columns["det_offsets"], order)
        for name in ("gt_id", "gt_r", "gt_theta", "gt_occ"):
            columns[name] = columns[name][gt_index]
        for name in ("det_r", "det_theta"):
            columns[name] = columns[name][det_index]
    t = columns["t"]
    regressions = np.flatnonzero((scene_of_frame[1:] == scene_of_frame[:-1]) & (t[1:] <= t[:-1])) + 1
    if len(regressions):
        k = regressions[np.argmin(line[regressions])]
        errors.append((int(line[k]), f"t {t[k]} does not increase on t {t[k - 1]} of scene {scene_of_frame[k]}"))
    if errors:
        raise DatasetFormatError("line {}: {}".format(*min(errors)))
    scene_ids, frames_per_scene = np.unique(scene_of_frame, return_counts=True)
    columns["scene_ids"] = scene_ids
    columns["scene_offsets"] = _offsets(frames_per_scene)
    return PerceptionDataset.from_columns(columns)
