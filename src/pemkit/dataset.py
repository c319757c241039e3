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

import contextlib
import io
import json
from collections.abc import Iterable
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
                gt = [(obj.id, obj.position.r, obj.position.theta, obj.occlusion) for obj in frame.gt]
                builder.add_frame(gt, [(p.r, p.theta) for p in frame.det], frame.t)
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
        return PerceptionDataset.from_columns(columns, self.frame_rate_hz)

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


def load_dataset(path: str | Path, frame_rate_hz: float = 2.0, jobs: int = 1) -> PerceptionDataset:
    """Read a JSONL dataset into columns; scenes come out ordered by id, frames in file order.

    With ``jobs`` > 1 and a file of at least ``MIN_SHARDED_BYTES``, the text
    is cut after line ends into one piece per worker, the pieces are parsed
    on forked workers (``parallel.fork_map``) and joined in file order. The
    columns, and the error raised for a bad row, are those of the
    in-process read.
    """
    require(jobs, "jobs", int, at_least=1)
    path = Path(path)
    text = None
    if jobs > 1 and path.stat().st_size >= MIN_SHARDED_BYTES:
        # Universal newlines, as when iterating the file. A file that does not
        # decode is read in-process, which raises the error where that read meets it.
        with contextlib.suppress(UnicodeDecodeError):
            text = path.read_text(encoding="utf-8")
    if text is None:
        with path.open("r", encoding="utf-8") as fh:
            pieces = [_parse_rows(fh, 1)]
    else:
        pieces = fork_map(partial(_parse_piece, text), _line_pieces(text, jobs), jobs)
    return _join_rows(pieces, frame_rate_hz)


def _line_pieces(text: str, parts: int) -> list[tuple[int, int, int]]:
    r"""(start, stop, first line number) of up to ``parts`` pieces of ``text``, each cut after a newline.

    Only ``\n`` ends a line, as in text-mode iteration; ``str.splitlines``
    would also split on characters such as ``\x0c`` and ``\u2028``.
    """
    cuts = [0]
    for k in range(1, parts):
        cut = text.find("\n", max(k * len(text) // parts, cuts[-1])) + 1
        if cut in (0, len(text)):
            break
        cuts.append(cut)
    cuts.append(len(text))
    first_lines = [1]
    for start, stop in zip(cuts, cuts[1:-1]):
        first_lines.append(first_lines[-1] + text.count("\n", start, stop))
    return list(zip(cuts, cuts[1:], first_lines))


@dataclass(slots=True)
class _Rows:
    """The rows of one piece of a dataset file, up to its first bad row.

    ``firsts`` holds (line, scene, t) of each scene's first row in the piece,
    which only the rows of earlier pieces can make a ``t`` regression, and
    ``last_t`` each scene's last ``t``. ``error`` is (line, message) of the
    first bad row, if any.
    """

    columns: dict[str, np.ndarray]
    firsts: list[tuple[int, int, int]]
    last_t: dict[int, int]
    error: tuple[int, str] | None


def _parse_piece(text: str, piece: tuple[int, int, int]) -> _Rows:
    start, stop, first_line = piece
    return _parse_rows(io.StringIO(text[start:stop]), first_line)


def _parse_rows(lines: Iterable[str], first_line: int) -> _Rows:
    """Parse and check rows, numbering lines from ``first_line``; stop at the first bad row."""
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
    firsts: list[tuple[int, int, int]] = []
    error = None
    for lineno, line in enumerate(lines, start=first_line):
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
            prev = last_t.get(scene_id)
            if prev is None:
                firsts.append((lineno, scene_id, t))
            elif t <= prev:
                raise ValueError(_regression(scene_id, t, prev))
        except (KeyError, TypeError, ValueError) as exc:
            error = (lineno, str(exc))
            break
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
    return _Rows(columns, firsts, last_t, error)


def _regression(scene_id: int, t: int, prev: int) -> str:
    return f"t {t} does not increase on t {prev} of scene {scene_id}"


def _join_rows(pieces: list[_Rows], frame_rate_hz: float) -> PerceptionDataset:
    """One dataset from the pieces in file order, or the error of the earliest bad line."""
    last_t: dict[int, int] = {}
    for piece in pieces:
        seen = (first for first in piece.firsts if first[1] in last_t)
        errors = [(line, _regression(s, t, last_t[s])) for line, s, t in seen if t <= last_t[s]]
        errors += [piece.error] if piece.error else []
        if errors:
            line, message = min(errors)
            raise DatasetFormatError(f"line {line}: {message}")
        last_t.update(piece.last_t)
    columns = {name: np.concatenate([piece.columns[name] for piece in pieces]) for name in pieces[0].columns}
    scene_of_frame = columns.pop("scene")
    columns["gt_offsets"] = _offsets(columns.pop("gt_counts"))
    columns["det_offsets"] = _offsets(columns.pop("det_counts"))
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
