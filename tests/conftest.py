import pytest


@pytest.fixture
def no_fork_from_threads(recwarn):
    """Fail a test in which os.fork() ran while the process had other threads.

    From Python 3.12, os.fork() warns when it does, and the child may deadlock
    on a lock another thread held. The warning cannot be turned into an error
    with ``-W error``: os.fork() clears the exception, so it is recorded and
    checked here. Earlier Pythons never warn.
    """
    yield
    forks = [str(w.message) for w in recwarn if "multi-threaded, use of fork()" in str(w.message)]
    assert not forks, forks
