import json

import numpy as np
import pytest

from pemkit import (
    GridSpec,
    GroundTruthObject,
    OcclusionLevel,
    PerceptionDataset,
    PolarCoord,
    Scene,
    accumulate_stats,
    load_dataset,
    save_dataset,
)
from pemkit.dataset import DatasetFormatError, Frame

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


def test_in_memory_frame_times_must_increase():
    with pytest.raises(ValueError, match="does not increase"):
        PerceptionDataset([Scene(0, [Frame([], [], t=3), Frame([], [], t=3)])])


def test_duplicate_id_names_scene_and_frame_index(tmp_path):
    doc = json.loads(row(7, scene=4))
    doc["gt"].append(dict(doc["gt"][0]))
    ds = load_dataset(write(tmp_path, [row(5, scene=4), json.dumps(doc)]))
    with pytest.raises(ValueError, match="scene 4 frame 1: duplicate gt id 1"):
        accumulate_stats(ds, GRID)
