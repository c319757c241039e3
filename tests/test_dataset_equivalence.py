"""``load_dataset`` against the line-by-line reader it replaced.

``_Rows``, ``_parse_rows``, ``_regression`` and ``_join_rows`` are the
previous reader's, kept verbatim: it checked ``t`` row by row as it streamed
the file, and stitched pieces together with each scene's first and last
``t``. ``oracle_load`` runs it over the lines that text-mode iteration
yields, decoded one line at a time (``text_lines``). Text mode reported an
undecodable byte for a whole chunk of the file; the oracle reports it at its
line, unless an earlier row is bad, which is the rule ``load_dataset`` states.
"""

import json
import re
import threading
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pemkit import dataset
from pemkit.dataset import (
    DatasetFormatError,
    PerceptionDataset,
    _check_values,
    _offsets,
    _regroup,
    load_dataset,
)
from pemkit.geometry import polar_from_xy_arrays

pytestmark = pytest.mark.usefixtures("no_fork_from_threads")

COLUMNS = ("scene_ids", "scene_offsets", "t", "gt_offsets", "det_offsets",
           "gt_id", "gt_r", "gt_theta", "gt_occ", "det_r", "det_theta")


class Undecodable(Exception):
    def __init__(self, lineno, reason):
        super().__init__(lineno, reason)
        self.lineno, self.reason = lineno, reason


def text_lines(data: bytes):
    """The lines text-mode iteration yields (universal newlines), decoded one by one."""
    for lineno, raw in enumerate(re.findall(rb"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+\Z", data), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise Undecodable(lineno, exc.reason) from exc
        yield line.replace("\r\n", "\n").replace("\r", "\n")


def oracle_load(data: bytes, frame_rate_hz: float = 2.0) -> PerceptionDataset:
    try:
        pieces = [_parse_rows(text_lines(data), 1)]
    except Undecodable as exc:
        raise DatasetFormatError(f"line {exc.lineno}: not valid UTF-8: {exc.reason}") from None
    return _join_rows(pieces, frame_rate_hz)


# ---- the previous reader, verbatim ----

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


# ---- the single read path against it ----

SCENES = (7, 3, 0, 12)  # not in sorted order, so loading sorts the rows
NOTES = ("", "é", "€ and 𝄞", "  \x85")  # multi-byte characters; line separators that do not end a line
BAD_BYTES = (b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xf0\x9f\x98")


def row(scene, t, n_gt=1, n_det=1, note="", x=1.5):
    gt = [{"id": i, "x": x + i, "y": 10.0 - i, "occ": i % 4} for i in range(n_gt)]
    det = [{"x": x - i, "y": 9.5 + i} for i in range(n_det)]
    return json.dumps({"scene": scene, "t": t, "gt": gt, "det": det, "note": note}, ensure_ascii=False).encode()


def two_scene_file(lines=None, bad_bytes=(), end=b"\n"):
    """Scenes 3 and 7 alternating over 16 lines: line index 2t holds scene 3, 2t + 1 scene 7.

    ``lines`` replaces lines by index; ``bad_bytes`` holds (index, offset, bytes) to insert.
    """
    encoded = [(lines or {}).get(2 * t + k, row(scene, t)) for t in range(8) for k, scene in enumerate((3, 7))]
    for i, at, bad in bad_bytes:
        encoded[i] = encoded[i][:at] + bad + encoded[i][at:]
    return b"\n".join(encoded) + end


def boundary_lines(lines: list[bytes], newline: bytes) -> list[int]:
    """Indexes of the lines on each side of the cuts that 2 and 3 pieces make."""
    text = newline.join(lines).decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    firsts = {first for parts in (2, 3) for _, _, first in dataset._line_pieces(text, parts)[1:]}
    return sorted({i for first in firsts for i in (first - 2, first - 1) if 0 <= i < len(lines)})


@st.composite
def dataset_files(draw):
    """Interleaved scenes with gaps in ``t``, then bad values, ``t`` regressions, broken JSON and bad bytes."""
    next_t, docs = {}, []
    for _ in range(draw(st.integers(0, 24))):
        scene = draw(st.sampled_from(SCENES))
        t = next_t.get(scene, draw(st.integers(-2, 2)))
        next_t[scene] = t + draw(st.integers(1, 2))
        docs.append(json.loads(row(scene, t, draw(st.integers(0, 3)), draw(st.integers(0, 2)),
                                   draw(st.sampled_from(NOTES)), draw(st.sampled_from((1.5, -3.25, 40.0))))))
    newline = draw(st.sampled_from((b"\n", b"\r\n", b"\r")))
    near_cuts = boundary_lines([json.dumps(doc, ensure_ascii=False).encode() for doc in docs], newline)
    line_index = st.integers(0, len(docs) - 1)
    if near_cuts:
        line_index = st.one_of(st.sampled_from(near_cuts), line_index)
    for _ in range(draw(st.integers(0, 3)) if docs else 0):
        doc = docs[draw(line_index)]
        key = draw(st.sampled_from(("t", "t", "scene")))
        doc[key] = draw(st.one_of(st.integers(-3, 4), st.sampled_from((2.5, "3", True, 2**64))))
    lines = [json.dumps(doc, ensure_ascii=False).encode() for doc in docs]
    for _ in range(draw(st.integers(0, 3)) if lines else 0):
        i = draw(line_index)
        kind = draw(st.sampled_from(("json", "byte", "blank")))
        if kind == "json":
            lines[i] = lines[i].replace(b"{", b"[", 1)
        elif kind == "byte":
            at = draw(st.one_of(st.sampled_from((0, len(lines[i]))), st.integers(0, len(lines[i]))))
            lines[i] = lines[i][:at] + draw(st.sampled_from(BAD_BYTES)) + lines[i][at:]
        else:
            lines.insert(i, draw(st.sampled_from((b"", b" \x0c ", b"\t"))))
    return newline.join(lines) + (newline if draw(st.booleans()) else b"")


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    for thread in threading.enumerate():  # let server threads of earlier tests finish, so that loading may fork
        if thread is not threading.current_thread():
            thread.join(timeout=10)
    return tmp_path_factory.mktemp("equivalence") / "dataset.jsonl"


def test_two_pieces_of_the_two_scene_file_start_at_lines_1_and_10():
    assert [first for _, _, first in dataset._line_pieces(two_scene_file().decode(), 2)] == [1, 10]


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=dataset_files())
@example(data=two_scene_file())
@example(data=two_scene_file(lines={9: row(7, 3)}))  # a t regression across the cut
@example(data=two_scene_file(lines={3: row(7, 0), 12: row(3, 5)}))  # the later scene regresses first
@example(data=two_scene_file(bad_bytes=[(9, 0, b"\xff")]))  # the second piece's first byte
@example(data=two_scene_file(bad_bytes=[(8, len(row(3, 4)), b"\xe2\x82")]))  # the end of the first piece
@example(data=two_scene_file(lines={10: b"["}, bad_bytes=[(12, 3, b"\xff")]))  # bad JSON before a bad byte
@example(data=two_scene_file(lines={10: b"["}, bad_bytes=[(4, 3, b"\xff")]))  # a bad byte before bad JSON
@example(data=two_scene_file(bad_bytes=[(15, len(row(7, 7)), b"\xf0\x9f\x98")], end=b""))  # cut short
@example(data=b"")
def test_load_dataset_gives_the_oracles_columns_or_error(scratch, data):
    try:
        expected, error = oracle_load(data), None
    except DatasetFormatError as exc:
        expected, error = None, str(exc)
    scratch.write_bytes(data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        pass
    else:
        with scratch.open(encoding="utf-8") as fh:
            assert list(text_lines(data)) == list(fh)  # the oracle reads the lines text mode yields
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataset, "MIN_SHARDED_BYTES", 0)
        for jobs in (1, 2, 3):
            if error is not None:
                with pytest.raises(DatasetFormatError) as got:
                    load_dataset(scratch, jobs=jobs)
                assert str(got.value) == error, jobs
                continue
            got = load_dataset(scratch, jobs=jobs)
            for name in COLUMNS:
                a, b = getattr(got, name), getattr(expected, name)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (jobs, name)
