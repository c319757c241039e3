"""``save_dataset`` against the writer it replaced, which built each row as a dict for ``json.dumps``.

``reference_save`` is that writer, kept verbatim: it converted every column
of the dataset to Python lists at once. The streaming writer converts a
block of whole scenes at a time and formats the text itself, and must write
the same bytes for any block size.
"""

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from pemkit import (
    ErrorDistribution,
    GridSpec,
    PemModel,
    SyntheticDatasetConfig,
    TransitionMatrix,
    save_dataset,
    synthesize_dataset,
)
from pemkit import dataset as dataset_module
from pemkit.dataset import PerceptionDataset, _offsets
from pemkit.geometry import xy_from_polar_arrays

INT64_MAX = 2**63 - 1


def reference_save(dataset: PerceptionDataset, path: Path) -> None:
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


# Floats whose text is easy to get wrong: signed zero, the smallest subnormal, the largest finite.
# A dataset holds no NaN or infinite position (``from_columns`` rejects one), so the writer meets none.
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                  1e16, 1e-7, 0.1, 123456.789)
SPECIAL_INTS = (0, -1, INT64_MAX, -INT64_MAX, -INT64_MAX - 1)

floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
ints = st.one_of(st.sampled_from(SPECIAL_INTS), st.integers(-INT64_MAX - 1, INT64_MAX))
# At theta 0 the writer's y is r itself, so every special float reaches the text.
angles = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def datasets(draw):
    """Any columns the writer may meet, including scenes without frames and frames without objects."""
    frames_per_scene = draw(st.lists(st.integers(0, 3), max_size=4))
    n_frames = sum(frames_per_scene)
    gt_counts, det_counts = (draw(st.lists(st.integers(0, 3), min_size=n_frames, max_size=n_frames)) for _ in "gd")
    n_gt, n_det = sum(gt_counts), sum(det_counts)
    column = lambda values, n, dtype: np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=dtype)
    return PerceptionDataset.from_columns(dict(
        scene_ids=column(ints, len(frames_per_scene), np.int64),
        scene_offsets=_offsets(frames_per_scene),
        t=column(ints, n_frames, np.int64),
        gt_offsets=_offsets(gt_counts),
        det_offsets=_offsets(det_counts),
        gt_id=column(ints, n_gt, np.int64),
        gt_r=column(floats, n_gt, float),
        gt_theta=column(angles, n_gt, float),
        gt_occ=column(st.integers(0, 3), n_gt, np.int64),
        det_r=column(floats, n_det, float),
        det_theta=column(angles, n_det, float),
    ))


def special_dataset() -> PerceptionDataset:
    """Each special value as an id and a position, a frame with no objects, then a scene without frames."""
    k = len(SPECIAL_FLOATS)
    return PerceptionDataset.from_columns(dict(
        scene_ids=np.array([INT64_MAX, -INT64_MAX]),
        scene_offsets=_offsets([3, 0]),
        t=np.array([-INT64_MAX, 0, INT64_MAX]),
        gt_offsets=_offsets([k, 0, 0]),
        det_offsets=_offsets([0, 0, k]),
        gt_id=np.resize(np.array(SPECIAL_INTS, dtype=np.int64), k),
        gt_r=np.array(SPECIAL_FLOATS),
        gt_theta=np.zeros(k),
        gt_occ=np.arange(k) % 4,
        det_r=np.array(SPECIAL_FLOATS[::-1]),
        det_theta=np.zeros(k),
    ))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("writer")
    return root / "saved.jsonl", root / "reference.jsonl"


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dataset=datasets())
@example(dataset=special_dataset())
@example(dataset=PerceptionDataset())
def test_save_dataset_writes_the_reference_bytes(files, dataset):
    saved, reference = files
    save_dataset(dataset, saved)
    reference_save(dataset, reference)
    assert saved.read_bytes() == reference.read_bytes()


def test_special_values_reach_the_text(files):
    saved, _ = files
    save_dataset(special_dataset(), saved)
    text = saved.read_text()
    for token in ("-0.0", "5e-324", "1.7976931348623157e+308", f"{-INT64_MAX - 1}", '"det":[]'):
        assert token in text, token
    assert len(text.splitlines()) == 3


# sha256 of the README quick start's dataset.jsonl, as the dict-and-json.dumps writer wrote it.
README_DATASET_SHA256 = "cc3f164738a0b03cad4e2b3f7fc0dea8951919cea971a8616cccb968711a6c7d"


def test_readme_dataset_keeps_its_bytes(tmp_path):
    grid = GridSpec(sector_width_deg=90.0, ring_depth_m=10.0, max_radius_m=20.0)
    truth = PemModel.uniform(
        grid,
        TransitionMatrix(a01=0.4, a11=0.85),
        ErrorDistribution(mu_r=1.02, mu_theta=0.0, sigma_r=0.03, sigma_theta=0.02, rho=0.1),
    )
    path = tmp_path / "dataset.jsonl"
    save_dataset(synthesize_dataset(SyntheticDatasetConfig(true_model=truth, n_scenes=50, seed=7)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == README_DATASET_SHA256


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(dataset=datasets(), cap=st.integers(0, 8))
@example(dataset=special_dataset(), cap=3)
def test_every_block_size_writes_the_reference_bytes(files, dataset, cap):
    # Small caps split the scenes into many blocks, and put scenes larger than the cap alone in one.
    saved, reference = files
    with mock.patch.object(dataset_module, "SAVE_BLOCK_OBJECTS", cap):
        save_dataset(dataset, saved)
    reference_save(dataset, reference)
    assert saved.read_bytes() == reference.read_bytes()
