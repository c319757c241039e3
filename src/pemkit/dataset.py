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

Building (``DatasetBuilder``, behind ``synthesize_dataset`` and
``PerceptionDataset(scenes)``) and loading also hold 8 bytes a value: ids,
levels and times in ``array("q")``, positions in ``array("d")``, grown once
per frame and handed to NumPy without a copy. Every position is finite: the
builder and ``PerceptionDataset.from_columns`` reject a NaN or infinite r or
theta, so whatever ``save_dataset`` writes loads back. ``save_dataset``
converts and writes one scene at a time; each line is exactly the text of
``json.dumps(row, sort_keys=True, separators=(",", ":"))``: ``int.__repr__``
and ``float.__repr__``.
"""

from __future__ import annotations

import bisect
import io
import json
import os
import re
import stat
from array import array
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from functools import partial
from math import inf, isfinite
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


def _offsets(counts: array | np.ndarray) -> np.ndarray:
    out = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _numpy(values: array) -> np.ndarray:
    """An ``array("q")`` or ``array("d")`` as an int64 or float64 NumPy array over the same memory."""
    return np.frombuffer(values, dtype=values.typecode)


class DatasetBuilder:
    """Collects scenes frame by frame into typed columns, 8 bytes a value, then hands them to NumPy."""

    def __init__(self):
        self.scene_ids = array("q")
        self.scene_frames = array("q")
        self.t = array("q")
        self.gt_counts = array("q")
        self.det_counts = array("q")
        self.gt_id = array("q")
        self.gt_r = array("d")
        self.gt_theta = array("d")
        self.gt_occ = array("q")
        self.det_r = array("d")
        self.det_theta = array("d")

    def add_scene(self, scene_id: int) -> None:
        self.scene_ids.append(scene_id)
        self.scene_frames.append(0)

    def add_frame(
        self, gt: list[tuple[int, float, float, int]], det: list[tuple[float, float]], t: int | None = None
    ) -> None:
        """Append a frame to the current scene: ground truth as (id, r, theta, occ), detections as (r, theta).

        The whole frame is converted and checked before any column grows, so a value that does not fit
        its column (a float id, an id beyond 64 bits) or a NaN or infinite position raises and leaves the
        builder unchanged.
        """
        if t is None:
            t = self.scene_frames[-1]
        if self.scene_frames[-1] and t <= self.t[-1]:
            raise ValueError(f"scene {self.scene_ids[-1]}: frame t {t} does not increase on t {self.t[-1]}")
        gt_id, gt_r, gt_theta, gt_occ = zip(*gt, strict=True) if gt else ((),) * 4
        det_r, det_theta = zip(*det, strict=True) if det else ((),) * 2
        new = (array("q", (t,)), array("q", gt_id), array("d", gt_r), array("d", gt_theta), array("q", gt_occ),
               array("d", det_r), array("d", det_theta))
        for name, values in zip(("gt.r", "gt.theta", "det.r", "det.theta"), new[2:4] + new[5:]):
            if not isfinite(sum(values)):  # a non-finite value, or finite ones whose sum overflows
                for value in values:
                    require(value, name, float)
        columns = (self.t, self.gt_id, self.gt_r, self.gt_theta, self.gt_occ, self.det_r, self.det_theta)
        for column, values in zip(columns, new):
            column.extend(values)
        self.gt_counts.append(len(gt))
        self.det_counts.append(len(det))
        self.scene_frames[-1] += 1

    def build(self) -> "PerceptionDataset":
        return PerceptionDataset._unchecked(self.columns())  # add_frame checked every position

    def columns(self) -> dict[str, np.ndarray]:
        """The columns as NumPy arrays that take over the builder's memory uncopied; the builder starts empty again."""
        columns = dict(
            scene_ids=_numpy(self.scene_ids),
            scene_offsets=_offsets(self.scene_frames),
            t=_numpy(self.t),
            gt_offsets=_offsets(self.gt_counts),
            det_offsets=_offsets(self.det_counts),
            gt_id=_numpy(self.gt_id),
            gt_r=_numpy(self.gt_r),
            gt_theta=_numpy(self.gt_theta),
            gt_occ=_numpy(self.gt_occ),
            det_r=_numpy(self.det_r),
            det_theta=_numpy(self.det_theta),
        )
        self.__init__()
        return columns


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
        """A dataset over ``columns``, uncopied; a NaN or infinite position raises ValueError naming its column."""
        for name in ("gt_r", "gt_theta", "det_r", "det_theta"):
            values = columns[name]
            if not np.isfinite(values).all():
                require(float(values[np.argmin(np.isfinite(values))]), name, float)
        return cls._unchecked(columns)

    @classmethod
    def _unchecked(cls, columns: dict[str, np.ndarray]) -> "PerceptionDataset":
        """``from_columns`` without the finite check, for columns built, loaded or sliced from checked values."""
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
        return PerceptionDataset._unchecked(columns)

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


# Most objects (ground truth plus detections) that ``save_dataset`` converts at
# once; a scene with more is converted alone. A full block peaked at about
# 2.5 MB of Python objects (tracemalloc, 20,000 scenes of ~5.5 objects); a cap
# of 65,536 peaked at 27 MB and wrote no faster.
SAVE_BLOCK_OBJECTS = 4096


def save_dataset(dataset: PerceptionDataset, path: str | Path) -> None:
    """Write the dataset as JSONL, converting and writing a block of whole scenes at a time.

    A block holds as many scenes as fit in ``SAVE_BLOCK_OBJECTS`` objects, and
    at least one. Each line is the text of
    ``json.dumps(row, sort_keys=True, separators=(",", ":"))``.
    """
    bounds = dataset.scene_offsets
    objects = (dataset.gt_offsets[bounds] + dataset.det_offsets[bounds]).tolist()  # before each scene
    n_scenes = len(dataset.scene_ids)
    with Path(path).open("w", encoding="utf-8") as fh:
        start = 0
        while start < n_scenes:
            stop = bisect.bisect_right(objects, objects[start] + SAVE_BLOCK_OBJECTS, start + 2, n_scenes + 1) - 1
            fh.writelines(_scene_lines(dataset.scene_range(start, stop)))
            start = stop


def _scene_lines(block: PerceptionDataset) -> list[str]:
    """The JSONL lines of every frame of ``block``."""
    r, theta = np.concatenate((block.gt_r, block.det_r)), np.concatenate((block.gt_theta, block.det_theta))
    # r and theta are finite (every constructor checks them), so x and y are, and repr writes them as json.dumps does.
    x, y = (list(map(repr, v.tolist())) for v in xy_from_polar_arrays(r, theta))  # ground truth, then detections
    ids, occ, n_gt = block.gt_id.tolist(), block.gt_occ.tolist(), len(block.gt_id)
    gt = [f'{{"id":{i},"occ":{o},"x":{gx},"y":{gy}}}' for i, o, gx, gy in zip(ids, occ, x, y)]
    det = [f'{{"x":{dx},"y":{dy}}}' for dx, dy in zip(x[n_gt:], y[n_gt:])]
    gt_off, det_off, t = block.gt_offsets.tolist(), block.det_offsets.tolist(), block.t.tolist()
    bounds = block.scene_offsets.tolist()
    lines = []
    for s, scene_id in enumerate(block.scene_ids.tolist()):
        for f in range(bounds[s], bounds[s + 1]):
            gt_text = ",".join(gt[gt_off[f] : gt_off[f + 1]])
            det_text = ",".join(det[det_off[f] : det_off[f + 1]])
            lines.append(f'{{"det":[{det_text}],"gt":[{gt_text}],"scene":{scene_id},"t":{t[f]}}}\n')
    return lines


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


# Most bytes one read takes. A line longer than this, or a run of lines that
# end in a lone \r (which readline does not stop at), is read in such pieces.
READ_BYTES = 1 << 16


def _byte_ranges(fh: io.BufferedIOBase, size: int, parts: int) -> list[tuple[int, int | None]]:
    r"""(start, stop) of up to ``parts`` ranges of a ``size``-byte file, the last to EOF (None), cut after line ends.

    A line end is ``\n``, ``\r\n`` or a lone ``\r``, as in text mode; no cut falls between ``\r`` and ``\n``.
    """
    cuts = [0]
    for k in range(1, parts):
        end = _line_end(fh, max(k * size // parts, cuts[-1]))
        if end is None or end >= size:
            break
        cuts.append(end)
    return list(zip(cuts, cuts[1:] + [None]))


def _line_end(fh: io.BufferedIOBase, pos: int) -> int | None:
    r"""The offset just after the first line end at or after byte ``pos``, None if none; read ``READ_BYTES`` at a time."""
    fh.seek(pos)
    while chunk := fh.readline(READ_BYTES):
        end = re.search(rb"\r\n?|\n", chunk)
        if end is not None:
            # A \r that ends a piece may be the first half of a \r\n.
            split = end.group() == b"\r" and end.end() == len(chunk) and fh.read(1) == b"\n"
            return pos + end.end() + split
        pos += len(chunk)
    return None


def _lines(path: str | Path, start: int, stop: int | None) -> Iterator[bytes]:
    r"""The lines from byte ``start`` to ``stop`` (None: EOF), ``\r\n`` and ``\r`` read as ``\n`` as in text mode.

    A range that starts at 0 is read without a seek, so a pipe can be read.
    Each read takes at most ``READ_BYTES``, so lines that end in a lone
    ``\r`` are read a piece at a time, not as one whole range.
    """
    text_mode = lambda raw: raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n").splitlines(keepends=True)
    head: list[bytes] = []  # a line read in part: its end, or the \n after its \r, is still to come
    left = inf if stop is None else stop - start
    with open(path, "rb") as fh:
        if start:
            fh.seek(start)
        while chunk := fh.readline(min(READ_BYTES, left)):
            left -= len(chunk)
            # A piece that readline did not end at a \n holds none; it ends lines at each \r
            # but a last one, which may be the first half of a \r\n.
            cut = len(chunk) if chunk[-1] == 10 else chunk.rfind(b"\r", 0, -1) + 1
            if not cut:
                head.append(chunk)
                continue
            if head:
                yield from text_mode(b"".join(head) + chunk[:cut])
                head.clear()
            else:
                yield from text_mode(chunk[:cut])
            if cut < len(chunk):
                head.append(chunk[cut:])
    yield from text_mode(b"".join(head))


def _parse_rows(
    path: str | Path, span: tuple[int, int | None]
) -> tuple[dict[str, np.ndarray], tuple[int, str] | None, int]:
    """Columns of one byte range's rows up to its first bad row, that row's (line, message), and its line count.

    Line numbers count from 1 at the start of the range.
    """
    line_of_row, scene_of_row, t_of_row, gt_counts, det_counts, gt_id, gt_occ = (array("q") for _ in range(7))
    gt_x, gt_y, det_x, det_y = (array("d") for _ in range(4))
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
        except (ValueError, RecursionError) as exc:  # also integers beyond the digit limit, and deep nesting
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
        gt_id.fromlist(ids)
        gt_x.fromlist(gx)
        gt_y.fromlist(gy)
        gt_occ.fromlist(occ)
        det_x.fromlist(dx)
        det_y.fromlist(dy)
    for lineno, _ in lines:  # a bad row's piece still counts its lines, which number the next piece's
        pass

    gt_r, gt_theta = polar_from_xy_arrays(gt_x, gt_y)
    det_r, det_theta = polar_from_xy_arrays(det_x, det_y)
    overflows = [  # the line of the first row whose finite x and y have a range beyond the float range
        line_of_row[int(np.searchsorted(np.cumsum(counts), np.argmin(np.isfinite(r)), side="right"))]
        for r, counts in ((gt_r, gt_counts), (det_r, det_counts))
        if not np.isfinite(r).all()
    ]
    if overflows:
        error = (min(overflows), "a position's range overflows a float")
    columns = dict(
        line=_numpy(line_of_row),
        scene=_numpy(scene_of_row),
        t=_numpy(t_of_row),
        gt_counts=_numpy(gt_counts),
        det_counts=_numpy(det_counts),
        gt_id=_numpy(gt_id),
        gt_r=gt_r,
        gt_theta=gt_theta,
        gt_occ=_numpy(gt_occ),
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
    return PerceptionDataset._unchecked(columns)  # _parse_rows checked every position
