"""Forked worker processes, shared by ``simulate`` and ``learn``.

``fork_map(fn, tasks, jobs)`` computes ``[fn(task) for task in tasks]`` on a
pool of at most ``jobs`` forked worker processes. ``fn``, and all the state it
refers to, reach the workers through the fork, unpickled, so ``fn`` may be
any callable; only the tasks and the results are pickled. Results come back
in task order, and an exception is raised for the first failing task in that
order. Off Linux (macOS system libraries are not fork-safe, and Windows has
no fork), or while other threads run (a forked child would inherit the locks
they hold), the tasks run in this process instead.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import sys
import threading
from collections.abc import Callable, Iterable
from concurrent.futures import ProcessPoolExecutor
from typing import TypeVar

from .checks import require

T = TypeVar("T")
R = TypeVar("R")

# On a 2-CPU host, 2 simulate workers ran 2.0x as many runs per second as
# one; 4 and 8 workers there were slower than 2. Larger hosts were not measured.
MAX_WORKERS = 2


def usable_workers() -> int:
    """Worker processes for a command: the CPUs this process may run on, at most MAX_WORKERS."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(cpus, MAX_WORKERS)


def fork_map(fn: Callable[[T], R], tasks: Iterable[T], jobs: int) -> list[R]:
    """``fn`` of each task, in task order, from workers that have all exited when this returns or raises.

    The pool has ``jobs`` workers, or one per task if there are fewer tasks;
    a single worker is this process. The executor forks every worker before
    it starts its own threads. A worker's exception is raised here; a worker
    that dies raises BrokenProcessPool rather than leaving its task unanswered.
    """
    require(jobs, "jobs", int, at_least=1)
    tasks = list(tasks)
    workers = min(jobs, len(tasks))
    if workers < 2 or sys.platform != "linux" or threading.active_count() > 1:
        return [fn(task) for task in tasks]
    context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(workers, mp_context=context, initializer=_adopt, initargs=(fn,))
    try:
        return list(pool.map(_call_adopted, tasks))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


_adopted: Callable | None = None  # set only in a pool worker, by _adopt


def _adopt(fn: Callable) -> None:
    """Worker set-up: keep the forked copy of ``fn``; leave Ctrl-C to the parent."""
    global _adopted
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    _adopted = fn


def _call_adopted(task):
    return _adopted(task)
