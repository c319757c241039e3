"""``parallel.fork_map`` in a process that may not fork workers."""

import multiprocessing
import os
import sys
import threading

import pytest

from pemkit import cli, perfect_model, save_model
from pemkit.parallel import fork_map

pytestmark = [
    pytest.mark.usefixtures("no_fork_from_threads"),
    pytest.mark.skipif(sys.platform != "linux", reason="fork_map forks workers on Linux only"),
]


def pid_and_square(x):
    return os.getpid(), x * x


def map_in_pool_worker(tasks):
    return os.getpid(), fork_map(pid_and_square, tasks, 2)


def simulate_in_pool_worker(args):
    return cli.main(args)


@pytest.fixture
def pool():
    """A one-worker ``multiprocessing.Pool``, whose worker is a daemonic process."""
    for thread in threading.enumerate():  # let server threads of earlier tests finish, so that the pool may fork
        if thread is not threading.current_thread():
            thread.join(timeout=10)
    with multiprocessing.get_context("fork").Pool(1) as workers:
        yield workers


def test_fork_map_runs_in_process_inside_a_pool_worker(pool):
    worker, results = pool.apply(map_in_pool_worker, ([1, 2, 3],))
    assert [square for _, square in results] == [1, 4, 9]
    assert {pid for pid, _ in results} == {worker} != {os.getpid()}


def test_simulate_runs_inside_a_pool_worker(pool, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "usable_workers", lambda: 2)  # the pool worker inherits it
    save_model(perfect_model(), tmp_path / "m.json")
    args = ["simulate", "--scenario", "TC1", "--model", f"m={tmp_path / 'm.json'}", "--runs", "3",
            "--out-dir", str(tmp_path / "sim")]
    assert pool.apply(simulate_in_pool_worker, (args,)) == cli.EXIT_OK
    assert (tmp_path / "sim" / "report.json").exists()
