"""`sfr.workers`: forked jobs and their results in submission order. The
autouse fixture in conftest.py checks after every test that no child is
left."""

import os
import signal
import time

import pytest

from sfr.workers import CAN_FORK, Workers

pytestmark = pytest.mark.skipif(not CAN_FORK, reason="workers are forked on Linux only")


def no_child_left() -> bool:
    """Whether this process has no child, running or exited; reaps nothing."""
    try:
        os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return True
    return False


def after(seconds, job):
    def delayed():
        time.sleep(seconds)
        return job()

    return delayed


def fail(message):
    raise ValueError(message)


def test_results_come_back_in_submission_order():
    # The later a job is submitted, the sooner it finishes.
    with Workers("test") as workers:
        for k in range(4):
            workers.submit(after(0.05 * (3 - k), lambda k=k: (k, os.getpid())))
        results = list(workers.results())
    assert [k for k, _ in results] == [0, 1, 2, 3]
    assert len({pid for _, pid in results} | {os.getpid()}) == 5


def test_the_first_failure_in_submission_order_is_raised():
    # Jobs 1 and 2 fail and job 3 kills itself, each sooner than the one before.
    jobs = [
        lambda: "zero",
        after(0.2, lambda: fail("job 1")),
        after(0.1, lambda: fail("job 2")),
        lambda: os.kill(os.getpid(), signal.SIGKILL),
    ]
    with Workers("test") as workers:
        for job in jobs:
            workers.submit(job)
        results = workers.results()
        assert next(results) == "zero"
        with pytest.raises(ValueError, match="job 1"):
            next(results)


@pytest.mark.parametrize("interrupt", [RuntimeError("parent fault"), KeyboardInterrupt()], ids=["exception", "interrupt"])
def test_a_parent_fault_before_collecting_leaves_no_child(interrupt):
    start = time.monotonic()
    with pytest.raises(type(interrupt)):
        with Workers("test") as workers:
            for _ in range(2):
                workers.submit(lambda: time.sleep(60))
            raise interrupt
    assert no_child_left()
    assert time.monotonic() - start < 30  # killed, not waited for


def test_sent_stays_false_until_the_child_sends():
    go_read, go_write = os.pipe()
    try:
        with Workers("test") as workers:
            workers.submit(lambda: os.read(go_read, 1))
            for _ in range(5):
                assert not workers.sent(0)
                time.sleep(0.02)
            os.write(go_write, b"x")
            deadline = time.monotonic() + 10.0
            while not workers.sent(0) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert workers.sent(0)
            assert list(workers.results()) == [b"x"]
    finally:
        os.close(go_read)
        os.close(go_write)


@pytest.mark.parametrize(
    ("job", "how"),
    [
        (lambda: lambda: None, "exited with code 1"),  # a lambda cannot be pickled
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "was killed by signal 9"),
    ],
    ids=["unpicklable", "killed"],
)
def test_a_child_that_sends_nothing_is_reported_with_its_exit(job, how):
    with Workers("test") as workers:
        workers.submit(job)
        with pytest.raises(ChildProcessError, match=rf"^test worker \d+ {how} and sent no result$"):
            list(workers.results())
