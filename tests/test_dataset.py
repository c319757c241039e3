import io
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pemkit import (
    ErrorDistribution,
    GridSpec,
    GroundTruthObject,
    OcclusionLevel,
    PerceptionDataset,
    PolarCoord,
    PemModel,
    Scene,
    SyntheticDatasetConfig,
    TransitionMatrix,
    accumulate_stats,
    load_dataset,
    save_dataset,
    synthesize_dataset,
)
from pemkit import dataset
from pemkit.dataset import DatasetBuilder, DatasetFormatError, Frame

GRID = GridSpec(sector_width_deg=90.0, ring_depth_m=10.0, max_radius_m=20.0)


def row(t, scene=0, x=1.0, y=5.0, det=True, oid=1):
    doc = {"scene": scene, "t": t, "gt": [{"id": oid, "x": x, "y": y, "occ": 3}], "det": []}
    if det:
        doc["det"] = [{"x": x, "y": y}]
    return json.dumps(doc)


def write(tmp_path, lines):
    path = tmp_path / "ds.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("where", ["gt.x", "gt.y", "det.x", "det.y"])
def test_non_finite_coordinates_rejected_with_line(tmp_path, literal, where):
    part, key = where.split(".")
    bad = json.loads(row(1))
    bad[part][0][key] = "@"
    line = json.dumps(bad).replace('"@"', literal)
    path = write(tmp_path, [row(0), line])
    with pytest.raises(DatasetFormatError, match=rf"^line 2: {where} must be a finite number, got "):
        load_dataset(path)


def test_integer_beyond_digit_limit_rejected_with_line(tmp_path):
    line = row(1).replace('"x": 1.0', '"x": 1' + "0" * 5000)
    with pytest.raises(DatasetFormatError, match=r"^line 2: not valid JSON"):
        load_dataset(write(tmp_path, [row(0), line]))


def test_time_gap_counts_no_transition(tmp_path):
    consecutive = load_dataset(write(tmp_path, [row(0), row(1), row(2)]))
    assert accumulate_stats(consecutive, GRID).total_transitions == 2
    gapped = load_dataset(write(tmp_path, [row(0), row(1), row(5)]))
    assert gapped.t.tolist() == [0, 1, 5]
    assert accumulate_stats(gapped, GRID).total_transitions == 1


@pytest.mark.parametrize(
    "times, bad_line",
    [([0, 2, 1], 3), ([0, 1, 1], 3), ([0, 1.0], 2), ([0, "1"], 2), ([0, True], 2), ([0, 2**63], 2)],
)
def test_t_must_be_an_increasing_integer(tmp_path, times, bad_line):
    path = write(tmp_path, [row(t) for t in times])
    with pytest.raises(DatasetFormatError, match=rf"^line {bad_line}: "):
        load_dataset(path)


def test_missing_t_rejected(tmp_path):
    doc = json.loads(row(0))
    del doc["t"]
    with pytest.raises(DatasetFormatError, match=r"^line 1: "):
        load_dataset(write(tmp_path, [json.dumps(doc)]))


@pytest.mark.parametrize(
    "field, value",
    [
        ("id", 2**64),
        ("id", float("inf")),
        ("id", 3.0),
        ("id", "3"),
        ("id", True),
        ("occ", 4),
        ("occ", -1),
        ("occ", "2"),
        ("x", "far"),
        ("x", 10**400),
    ],
)
def test_bad_gt_values_rejected_with_line(tmp_path, field, value):
    doc = json.loads(row(1))
    doc["gt"][0][field] = value
    with pytest.raises(DatasetFormatError, match=r"^line 2: "):
        load_dataset(write(tmp_path, [row(0), json.dumps(doc)]))


@pytest.mark.parametrize("scene", [5.0, 5.5, "5", True, None])
def test_non_integer_scene_rejected_with_line(tmp_path, scene):
    doc = json.loads(row(1))
    doc["scene"] = scene
    with pytest.raises(DatasetFormatError, match=r"^line 2: scene must be an integer"):
        load_dataset(write(tmp_path, [row(0), json.dumps(doc)]))


@pytest.mark.parametrize("field, value", [("id", 3.7), ("occ", 2.9)])
def test_non_integer_values_are_named_not_truncated(tmp_path, field, value):
    doc = json.loads(row(0))
    doc["gt"][0][field] = value
    with pytest.raises(DatasetFormatError, match=rf"^line 1: {field} must be an integer, got {value}$"):
        load_dataset(write(tmp_path, [json.dumps(doc)]))


def test_interleaved_scenes_are_grouped_in_file_order(tmp_path):
    lines = [row(0, scene=1, x=1.0), row(0, scene=0, x=2.0), row(3, scene=1, x=3.0), row(1, scene=0, x=4.0)]
    ds = load_dataset(write(tmp_path, lines))
    assert ds.scene_ids.tolist() == [0, 1]
    assert ds.t.tolist() == [0, 1, 0, 3]
    xs = [round(-o.position.r * np.sin(o.position.theta), 9) for s in ds.scenes for f in s.frames for o in f.gt]
    assert xs == [2.0, 4.0, 1.0, 3.0]
    assert ds.det_offsets.tolist() == [0, 1, 2, 3, 4]


def test_saved_file_keeps_frame_times(tmp_path):
    ds = load_dataset(write(tmp_path, [row(0), row(4)]))
    again = tmp_path / "again.jsonl"
    save_dataset(ds, again)
    assert [json.loads(line)["t"] for line in again.read_text().splitlines()] == [0, 4]


def test_scene_objects_round_trip_through_columns():
    obj = GroundTruthObject(7, PolarCoord(3.0, 0.25), OcclusionLevel.VIS1)
    scenes = [
        Scene(2, [Frame([obj], [PolarCoord(3.5, 0.2)]), Frame([], [], t=4)]),
        Scene(2, []),
        Scene(0, [Frame([obj, GroundTruthObject(1, PolarCoord(0.0, 0.0), OcclusionLevel.VIS0)], [])]),
    ]
    ds = PerceptionDataset(scenes)
    assert ds.n_frames == 3
    assert ds.t.tolist() == [0, 4, 0]
    back = ds.scenes
    assert [s.scene_id for s in back] == [2, 2, 0]
    assert back[0].frames[0] == Frame([obj], [PolarCoord(3.5, 0.2)], 0)
    assert back[1].frames == []
    assert [o.id for o in back[2].frames[0].gt] == [7, 1]


@pytest.mark.parametrize(
    "gt, error",
    [
        ([(1, 2.0, 0.5, 3), (2**63, 3.0, 0.5, 3)], OverflowError),  # an id beyond 64 bits
        ([(1, 2.0, 0.5, 3), (2.0, 3.0, 0.5, 3)], TypeError),  # a float id is not truncated
        ([(1, 2.0, 0.5, 3), (2, "3", 0.5, 3)], TypeError),
        ([(1, 2.0, 0.5, 3), (2, 3.0, 0.5)], ValueError),  # a tuple without its level
    ],
    ids=["id-overflow", "float-id", "string-r", "short-tuple"],
)
def test_a_frame_that_does_not_fit_leaves_the_builder_unchanged(gt, error):
    builder = DatasetBuilder()
    builder.add_scene(0)
    builder.add_frame([(7, 1.0, 0.25, 2)], [(1.5, 0.2)])
    with pytest.raises(error):
        builder.add_frame(gt, [(2.5, 0.3)], t=4)
    builder.add_frame([], [(3.5, 0.1)], t=5)
    ds = builder.build()
    assert ds.t.tolist() == [0, 5]
    assert ds.gt_id.tolist() == [7] and ds.gt_occ.tolist() == [2] and ds.gt_r.tolist() == [1.0]
    assert ds.det_r.tolist() == [1.5, 3.5] and ds.det_theta.tolist() == [0.2, 0.1]
    assert ds.gt_offsets.tolist() == [0, 1, 1] and ds.det_offsets.tolist() == [0, 1, 2]
    assert ds.scene_ids.tolist() == [0] and ds.scene_offsets.tolist() == [0, 2]


def test_in_memory_frame_times_must_increase():
    with pytest.raises(ValueError, match="does not increase"):
        PerceptionDataset([Scene(0, [Frame([], [], t=3), Frame([], [], t=3)])])


def test_duplicate_id_names_scene_and_frame_index(tmp_path):
    doc = json.loads(row(7, scene=4))
    doc["gt"].append(dict(doc["gt"][0]))
    ds = load_dataset(write(tmp_path, [row(5, scene=4), json.dumps(doc)]))
    with pytest.raises(ValueError, match="scene 4 frame 1: duplicate gt id 1"):
        accumulate_stats(ds, GRID)


# --- lines that end in a lone \r ------------------------------------------------


def lf_rows(tmp_path):
    """The rows of a small saved dataset, and its file."""
    truth = PemModel.uniform(GRID, TransitionMatrix(0.5, 0.8), ErrorDistribution(1.0, 0.0, 0.05, 0.02, 0.1))
    path = tmp_path / "lf.jsonl"
    save_dataset(synthesize_dataset(SyntheticDatasetConfig(true_model=truth, n_scenes=3, seed=2)), path)
    return path.read_text().splitlines(), path


class RecordingFile(io.BufferedReader):
    """A binary file that records the size of every chunk the text reader takes (``read1``)."""

    def __init__(self, path, reads):
        super().__init__(io.FileIO(path))
        self.reads = reads.setdefault(Path(path).name, [])

    def read1(self, size=-1):
        chunk = super().read1(size)
        self.reads.append(len(chunk))
        return chunk


TEXT_READ_BYTES = io.TextIOWrapper(io.BytesIO())._CHUNK_SIZE  # the bytes the text reader asks for at a time: 8192


@pytest.mark.parametrize("bad_line", [None, 17])
def test_a_lone_cr_file_loads_like_its_lf_twin_and_is_read_in_pieces(tmp_path, monkeypatch, bad_line):
    rows, lf = lf_rows(tmp_path)
    if bad_line:
        rows[bad_line - 1] = rows[bad_line - 1].replace('"occ":', '"occ":7,"was":')
        lf.write_text("\n".join(rows) + "\n")
    cr = tmp_path / "cr.jsonl"
    cr.write_bytes(("\r".join(rows) + "\r").encode())
    reads = {}
    monkeypatch.setattr(dataset, "open", lambda path, mode: RecordingFile(path, reads), raising=False)
    if bad_line:
        with pytest.raises(DatasetFormatError) as lf_error:
            load_dataset(lf)
        with pytest.raises(DatasetFormatError) as cr_error:
            load_dataset(cr)
        assert str(cr_error.value) == str(lf_error.value) and str(lf_error.value).startswith(f"line {bad_line}:")
    else:
        expected, got = load_dataset(lf), load_dataset(cr)
        for name in PerceptionDataset.__slots__:
            assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    size = cr.stat().st_size
    assert max(reads[cr.name]) <= TEXT_READ_BYTES < size  # never the whole file as one piece
    assert len(reads[cr.name]) > size // TEXT_READ_BYTES


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("lines") / "lines.txt"


def text_mode_lines(path):
    with open(path, encoding="utf-8", errors="surrogateescape", newline=None) as fh:
        return fh.readlines()


def piece_lines(path, cuts):
    """The lines of the pieces that ``cuts`` (byte offsets >= 0, any order, past EOF too) make, joined in file order."""
    starts = sorted({0, *cuts})
    return [line for start, stop in zip(starts, starts[1:] + [None]) for line in dataset._lines(path, start, stop)]


@settings(max_examples=300, deadline=None)
@given(data=st.text(alphabet="ab \r\n\xe9", max_size=60), cuts=st.lists(st.integers(0, 120), max_size=6))
def test_lines_read_in_pieces_are_the_text_mode_lines(scratch, data, cuts):
    scratch.write_bytes(data.encode())
    assert piece_lines(scratch, cuts) == text_mode_lines(scratch)


UNITS = (b"a", b" ", "\xe9".encode(), "\u20ac".encode(), "\U0001d11e".encode(), b"\xff", b"\xe2\x82", b"\xed\xa0\x80")
ENDS = (b"\n", b"\r\n", b"\r")


@st.composite
def long_lines(draw):
    """8-45 KB of lines, with the ends of lines at offsets near every multiple of ``TEXT_READ_BYTES``.

    The line ending near offset B starts at B - 2 .. B + 1, so a ``\r\n`` may straddle the read that ends at B.
    Lines are filled with one unit each, multibyte characters and invalid bytes among them. Returns the
    data and the offsets around those line ends: the line's last byte, its ``\r``, ``\n`` and the next line start.
    """
    data, near_ends = b"", []
    for boundary in range(TEXT_READ_BYTES, draw(st.integers(1, 4)) * TEXT_READ_BYTES + 1, TEXT_READ_BYTES):
        for _ in range(draw(st.integers(0, 3))):
            data += draw(st.sampled_from(UNITS)) * draw(st.integers(0, 20)) + draw(st.sampled_from(ENDS))
        unit, fill = draw(st.sampled_from(UNITS)), boundary + draw(st.integers(-2, 1)) - len(data)
        data += unit * (fill // len(unit)) + b"a" * (fill % len(unit))
        near_ends += range(len(data) - 1, len(data) + 4)
        data += draw(st.sampled_from(ENDS))
    last = draw(st.sampled_from(UNITS)) * draw(st.integers(1, 3000)) + draw(st.sampled_from((b"", *ENDS)))
    return data + last, near_ends


@settings(max_examples=150, deadline=None)
@given(lines=long_lines(), parts=st.integers(1, 7), shifts=st.lists(st.integers(-1, 1), min_size=6, max_size=6),
       picks=st.lists(st.integers(0, 10**6), max_size=3))
def test_pieces_of_kilobytes_join_to_the_text_mode_lines(scratch, lines, parts, shifts, picks):
    data, near_ends = lines
    scratch.write_bytes(data)
    cuts = [k * len(data) // parts + shift for k, shift in zip(range(1, parts), shifts)]  # equal cuts, moved ±1
    cuts += [near_ends[pick % len(near_ends)] for pick in picks]  # on line starts, between \r and \n
    assert piece_lines(scratch, cuts) == text_mode_lines(scratch)


# --- finite positions -------------------------------------------------------------


@pytest.mark.parametrize(
    "gt, det, message",
    [
        ([(1, 2.0, 0.5, 3), (2, math.nan, 0.5, 3)], [], "gt.r must be a finite number, got nan"),
        ([(1, 2.0, math.inf, 3)], [], "gt.theta must be a finite number, got inf"),
        ([], [(1.0, 0.1), (-math.inf, 0.1)], "det.r must be a finite number, got -inf"),
        ([], [(1.0, math.nan)], "det.theta must be a finite number, got nan"),
    ],
)
def test_a_non_finite_position_is_named_and_leaves_the_builder_unchanged(gt, det, message):
    builder = DatasetBuilder()
    builder.add_scene(0)
    builder.add_frame([(7, 1.0, 0.25, 2)], [(1.5, 0.2)])
    with pytest.raises(ValueError, match=re.escape(message)):
        builder.add_frame(gt, det, t=4)
    builder.add_frame([(1, 1.7e308, 0.0, 3), (2, 1.7e308, 0.0, 3)], [], t=5)  # finite values whose sum overflows
    ds = builder.build()
    assert ds.t.tolist() == [0, 5] and ds.gt_id.tolist() == [7, 1, 2] and ds.det_r.tolist() == [1.5]


@pytest.mark.parametrize("name", ["gt_r", "gt_theta", "det_r", "det_theta"])
def test_from_columns_names_a_non_finite_position(name):
    ds = PerceptionDataset([Scene(0, [Frame([GroundTruthObject(1, PolarCoord(3.0, 0.5), OcclusionLevel.VIS2)],
                                            [PolarCoord(3.1, 0.4)])])])
    columns = {column: getattr(ds, column).copy() for column in PerceptionDataset.__slots__}
    columns[name][0] = math.inf
    with pytest.raises(ValueError, match=f"^{name} must be a finite number, got inf$"):
        PerceptionDataset.from_columns(columns)


def test_a_range_that_overflows_on_load_names_its_line(tmp_path):
    far = '{"det":[{"x":1.7e308,"y":1.7e308}],"gt":[],"scene":0,"t":1}'
    with pytest.raises(DatasetFormatError, match="^line 2: a position's range overflows a float$"):
        load_dataset(write(tmp_path, [row(0), far, row(2)]))


finite = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]),
                   st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=200, deadline=None)
@given(frames=st.lists(st.tuples(
    st.lists(st.tuples(st.integers(-(2**63), 2**63 - 1), finite, finite, st.integers(0, 3)), max_size=3),
    st.lists(st.tuples(finite, finite), max_size=3),
), max_size=4))
def test_what_the_builder_accepts_saves_loads_and_saves_again(scratch, frames):
    builder = DatasetBuilder()
    builder.add_scene(0)
    for gt, det in frames:
        builder.add_frame(gt, det)
    save_dataset(builder.build(), scratch)
    first = scratch.read_text()
    save_dataset(load_dataset(scratch), scratch)
    second = scratch.read_text()
    load_dataset(scratch)
    # Positions go x, y -> r, theta -> x, y, which floating point does not always return bit for bit;
    # every other byte of each row must be the same.
    positions = lambda text: [[(o["x"], o["y"]) for o in json.loads(line)[key]]
                              for line in text.splitlines() for key in ("gt", "det")]
    masked = lambda text: re.sub(r'"([xy])":[^,}]+', r'"\1":_', text)
    assert masked(second) == masked(first)
    for a, b in zip(positions(first), positions(second)):
        for (x0, y0), (x1, y1) in zip(a, b):
            scale = max(abs(x0), abs(y0))
            assert abs(x1 - x0) <= 1e-12 * scale + 1e-300 and abs(y1 - y0) <= 1e-12 * scale + 1e-300
