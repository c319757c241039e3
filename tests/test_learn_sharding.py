"""Sharded learn: the forked load, match+count and fits give the in-process results.

The size floors are lowered so that small files shard. The in-process path
(``jobs=1``, the whole file as one piece) is the reference for every column,
output byte and error message; ``test_dataset_equivalence`` checks it against
the previous line-by-line reader.
"""

import json
import multiprocessing
import os
import shutil
import sys
import threading

import numpy as np
import pytest

from pemkit import cli, dataset, learn, parallel
from pemkit.car import CarConvergenceError
from pemkit.cli import EXIT_OK, main
from pemkit.dataset import DatasetFormatError, load_dataset, save_dataset
from pemkit.geometry import GridSpec
from pemkit.inject import DuplicateIdError
from pemkit.learn import learn_pem
from pemkit.model import PemModel, model_to_dict
from pemkit.stats import FIELD_NAMES
from pemkit.synthetic import SyntheticDatasetConfig, synthesize_dataset

pytestmark = pytest.mark.usefixtures("no_fork_from_threads")
forks_workers = pytest.mark.skipif(sys.platform != "linux", reason="learn forks workers on Linux only")

GRID = GridSpec(sector_width_deg=90.0, ring_depth_m=10.0, max_radius_m=20.0)
COLUMNS = ("scene_ids", "scene_offsets", "t", "gt_offsets", "det_offsets",
           "gt_id", "gt_r", "gt_theta", "gt_occ", "det_r", "det_theta")


@pytest.fixture(autouse=True)
def shard_everything(monkeypatch):
    monkeypatch.setattr(dataset, "MIN_SHARDED_BYTES", 0)
    monkeypatch.setattr(learn, "MIN_SHARDED_OBJECTS", 0)
    monkeypatch.setattr(learn, "MIN_SHARDED_CONDITIONS", 0)
    for thread in threading.enumerate():  # let server threads of earlier tests finish, so that learn may fork
        if thread is not threading.current_thread():
            thread.join(timeout=10)


@pytest.fixture
def pids(tmp_path, monkeypatch):
    """The ids of the processes that parsed a piece, counted a scene range or fitted a group since the last call."""
    log = tmp_path / "pids"

    def record(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)  # the forked workers inherit it

    for module, name in ((dataset, "_parse_rows"), (learn, "accumulate_stats"), (learn, "_fit_group")):
        record(module, name)

    def taken():
        ids = set(log.read_text().split()) if log.exists() else set()
        log.unlink(missing_ok=True)
        return ids

    return taken


def truth():
    rng = np.random.default_rng(8)
    n = GRID.n_conditions
    return PemModel(grid=GRID, metadata="truth", a01=rng.uniform(0.3, 0.7, n), a11=rng.uniform(0.6, 0.9, n),
                    mu_r=np.full(n, 1.01), mu_theta=np.full(n, 0.005), sigma_r=np.full(n, 0.03),
                    sigma_theta=np.full(n, 0.02), rho=np.full(n, 0.1))


@pytest.fixture(scope="module")
def rows(tmp_path_factory):
    """The rows of a 6-scene dataset, interleaved: every scene's frames spread over the whole file."""
    path = tmp_path_factory.mktemp("data") / "dataset.jsonl"
    cfg = SyntheticDatasetConfig(true_model=truth(), n_scenes=6, frames_per_scene=12, objects_per_scene=8,
                                 occlusion_levels=(0, 1), seed=3)
    save_dataset(synthesize_dataset(cfg), path)
    by_scene = {}
    for line in path.read_text().splitlines():
        by_scene.setdefault(json.loads(line)["scene"], []).append(line)
    return [line for frame in zip(*by_scene.values()) for line in frame]


def write(path, lines, newline="\n", end="\n"):
    path.write_bytes((newline.join(lines) + end).encode())
    return path


def pieces_of(path, jobs):
    """Each piece's first line number and the scenes whose rows it holds."""
    text = path.read_text(encoding="utf-8")
    return [(first, {json.loads(line)["scene"] for line in text[a:b].split("\n") if line.strip()})
            for a, b, first in dataset._line_pieces(text, jobs)]


def assert_same_columns(a, b):
    for name in COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


@forks_workers
@pytest.mark.parametrize(
    "newline, end, blank",
    [("\n", "\n", False), ("\r\n", "\r\n", True), ("\r", "", True), ("\n", "", False)],
    ids=["lf", "crlf-blank-lines", "cr-blank-lines-no-last-newline", "no-last-newline"],
)
def test_sharded_load_reads_the_in_process_columns(tmp_path, rows, pids, newline, end, blank):
    lines = [x for line in rows for x in ((line, " \x0c ") if blank else (line,))]
    path = write(tmp_path / "d.jsonl", lines, newline, end)
    expected = load_dataset(path)
    assert pids() == {str(os.getpid())}
    assert len(expected.scene_ids) == 6 and expected.n_frames == len(rows)
    for jobs in (2, 3):
        pieces = pieces_of(path, jobs)
        assert len(pieces) == jobs
        assert set.intersection(*(scenes for _, scenes in pieces))  # scenes straddle every boundary
        assert_same_columns(load_dataset(path, jobs=jobs), expected)
        workers = pids()
        assert workers and str(os.getpid()) not in workers  # every piece went to a worker
    assert multiprocessing.active_children() == []


def two_scene_rows(frames=10):
    """Scenes 0 and 1 alternating, one object each: line 2k + 1 is scene 0 at t = k, line 2k + 2 scene 1."""
    row = '{{"det":[{{"x":1.0,"y":5.1}}],"gt":[{{"id":1,"occ":3,"x":1.0,"y":5.0}}],"scene":{},"t":{}}}'
    return [row.format(scene, t) for t in range(frames) for scene in (0, 1)]


@forks_workers
def test_sharded_load_raises_the_error_of_the_earliest_bad_line(tmp_path):
    rows = two_scene_rows()
    path = write(tmp_path / "d.jsonl", rows)
    text = path.read_text()
    second = text.count("\n", 0, len(text) // 2) + 2  # two pieces: cut after the line holding the middle
    assert pieces_of(path, 2)[1][0] == second and 4 < second < len(rows) - 2
    # The row after the second piece's first row is the first of its scene there.
    scene, t = json.loads(rows[second])["scene"], json.loads(rows[second])["t"]
    regression = (second + 1, f'"t":{t}', f'"t":{t - 1}')
    cases = {
        "json-second-piece": ([(second + 2, '{"', '["')], f"line {second + 2}: not valid JSON"),
        # The decoder's position is past the line's newline, which the first piece must keep.
        "json-end-of-first-piece": ([(second - 1, "}", " ")], f"line {second - 1}: not valid JSON"),
        "t-across-boundary": ([regression], f"line {second + 1}: t {t - 1} does not increase on t {t - 1} "
                                            f"of scene {scene}"),
        "json-each-piece": ([(2, '{"', '["'), (second + 1, '{"', '["')], "line 2: not valid JSON"),
        "json-before-t": ([regression, (second, '{"', '["')], f"line {second}: not valid JSON"),
        "t-before-json": ([regression, (second + 2, '{"', '["')], f"line {second + 1}: t {t - 1} does not"),
    }
    for name, (edits, message) in cases.items():
        lines = list(rows)
        for lineno, old, new in edits:  # each edit keeps the line's length, so the pieces stay put
            lines[lineno - 1] = new.join(lines[lineno - 1].rsplit(old, 1))
        bad = write(tmp_path / f"{name}.jsonl", lines)
        with pytest.raises(DatasetFormatError) as expected:
            load_dataset(bad)
        assert str(expected.value).startswith(message), name
        for jobs in (2, 3):
            with pytest.raises(DatasetFormatError) as sharded:
                load_dataset(bad, jobs=jobs)
            assert str(sharded.value) == str(expected.value), name
    assert multiprocessing.active_children() == []


def test_a_file_that_does_not_decode_raises_the_in_process_error(tmp_path, rows):
    data = "\n".join(rows).encode()
    late = data.count(b"\n", 0, len(data) - 100) + 1  # the line that holds the late bad byte
    cases = {"late": ([len(data) - 100], f"line {late}: not valid UTF-8: invalid start byte"),
             "after-a-bad-row": ([len(data) - 100, 0], "line 1: not valid JSON: ")}
    for name, (bad_bytes, message) in cases.items():
        broken = bytearray(data)
        for at in bad_bytes:
            broken[at] = 0xFF if at else ord("[")
        path = tmp_path / f"{name}.jsonl"
        path.write_bytes(bytes(broken))
        with pytest.raises(DatasetFormatError) as expected:
            load_dataset(path)
        assert str(expected.value).startswith(message), name
        for jobs in (2, 3):
            with pytest.raises(DatasetFormatError) as sharded:
                load_dataset(path, jobs=jobs)
            assert str(sharded.value) == str(expected.value), name


@forks_workers
def test_learn_outputs_do_not_depend_on_workers(tmp_path, rows, pids, monkeypatch, capsys):
    (tmp_path / "data").mkdir()
    data = write(tmp_path / "data" / "d.jsonl", rows)
    out = tmp_path / "out"
    args = ["learn", "--dataset", str(data), "--out", str(out / "model.json"),
            "--sector-deg", "90", "--ring-depth-m", "10", "--max-radius-m", "20"]
    snapshots, forked = [], []
    pids()
    for workers in (1, 2, 3):
        monkeypatch.setattr(cli, "usable_workers", lambda: workers)
        assert main(args) == EXIT_OK
        timings = [line for line in capsys.readouterr().err.splitlines() if line.startswith("learn timings: ")]
        stages = [part.rsplit(" ", 1)[0] for part in timings[0].removeprefix("learn timings: ").split(", ")]
        assert stages == ["load", "match+count", "estimate", *(f"fit {name}" for name in FIELD_NAMES)]
        snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        forked.append(pids())
        shutil.rmtree(out)
        assert multiprocessing.active_children() == []
    assert sorted(snapshots[0]) == ["manifest.json", "model.diagnostics.json", "model.json"]
    assert snapshots[1] == snapshots[0] and snapshots[2] == snapshots[0]
    assert forked[0] == {str(os.getpid())}
    for workers in forked[1:]:  # one pool or more per stage; a worker may take several tasks
        assert str(os.getpid()) not in workers and len(workers) >= 3


def synthetic(n_scenes=6):
    cfg = SyntheticDatasetConfig(true_model=truth(), n_scenes=n_scenes, frames_per_scene=12, objects_per_scene=8,
                                 occlusion_levels=(0, 1), seed=3)
    return synthesize_dataset(cfg)


@forks_workers
def test_sharded_counting_raises_the_first_duplicate_id():
    ds = synthetic()
    assert learn._scene_ranges(ds, 2) == [(0, 3), (3, 6)]
    for scene in (5, 4):  # both in the second of two scene ranges; then scene 4's comes first
        a = int(ds.gt_offsets[ds.scene_offsets[scene] + 4])
        ds.gt_id[a + 1] = ds.gt_id[a]
        with pytest.raises(DuplicateIdError) as expected:
            learn_pem(ds, GRID)
        assert f"scene {scene} frame 4: duplicate gt id" in str(expected.value)
        for jobs in (2, 3):
            with pytest.raises(DuplicateIdError) as sharded:
                learn_pem(ds, GRID, jobs=jobs)
            assert str(sharded.value) == str(expected.value)
    assert multiprocessing.active_children() == []


@forks_workers
def test_a_fit_that_fails_on_a_worker_raises_the_in_process_error(monkeypatch):
    from pemkit import car

    monkeypatch.setattr(car, "MAX_ITERATIONS", 1)
    ds = synthetic()
    with pytest.raises(CarConvergenceError) as expected:
        learn_pem(ds, GRID)
    with pytest.raises(CarConvergenceError) as sharded:
        learn_pem(ds, GRID, jobs=2)
    assert str(sharded.value) == str(expected.value)
    assert (sharded.value.grad_norm, sharded.value.iterations) == (expected.value.grad_norm, 1)
    assert multiprocessing.active_children() == []


def test_learn_stays_in_process_while_other_threads_run(tmp_path, rows, pids):
    path = write(tmp_path / "d.jsonl", rows)
    expected_ds = load_dataset(path)
    expected = learn_pem(expected_ds, GRID)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        ds = load_dataset(path, jobs=2)
        model, diagnostics = learn_pem(ds, GRID, jobs=2)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert_same_columns(ds, expected_ds)
    assert model_to_dict(model) == model_to_dict(expected[0])
    assert diagnostics.to_dict() == expected[1].to_dict()
    assert pids() == {str(os.getpid())}


def test_jobs_must_be_a_positive_integer(tmp_path, rows):
    path = write(tmp_path / "d.jsonl", rows)
    ds = load_dataset(path)
    for jobs in (0, 2.5, True):
        for call in (lambda: load_dataset(path, jobs=jobs), lambda: learn_pem(ds, GRID, jobs=jobs),
                     lambda: parallel.fork_map(abs, [1], jobs)):
            with pytest.raises(ValueError, match="jobs must be an integer >= 1"):
                call()
