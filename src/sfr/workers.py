"""Jobs run in forked worker processes, their results handed back in order.

`sfr match` ranks probe chunks in forked workers, which inherit the built
gallery copy-on-write, and `sfr train-demo` computes its monitor loss in one,
which inherits the monitor batch's images (OpenBLAS restarts its threads on
demand after a fork). Fork is used on Linux only (`CAN_FORK`), and directly:
before Python 3.14 `ProcessPoolExecutor` cannot kill a running worker, and
its `BrokenProcessPool` maps to no exit code.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys
from typing import Any, BinaryIO, Callable, Iterator

CAN_FORK = sys.platform.startswith("linux") and hasattr(os, "fork")


class Workers:
    """A context manager that runs each submitted job in its own forked
    child, which sends back the pickled result, or the job's exception,
    through its own pipe. On every exit from the context the pipes are
    closed and every child not yet reaped is killed and reaped."""

    def __init__(self, role: str) -> None:
        self.role = role  # names a worker in ChildProcessError's message
        self._children: list[tuple[int, BinaryIO]] = []  # (pid, result pipe), in submission order
        self._reaped: set[int] = set()

    def __enter__(self) -> Workers:
        return self

    def __exit__(self, *exc_info) -> None:
        for pid, pipe in self._children:
            pipe.close()
            if pid not in self._reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)

    def submit(self, job: Callable[[], Any]) -> None:
        """Fork a child that runs job() and leaves through os._exit, so that
        none of the parent's cleanup, buffered output or callers run in it."""
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except BaseException:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                try:
                    result = job()
                except BaseException as exc:  # handed to the parent, which re-raises it
                    result = exc
                payload = pickle.dumps(result)
                with os.fdopen(write_fd, "wb") as fh:
                    fh.write(payload)
                status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self._children.append((pid, os.fdopen(read_fd, "rb")))

    def sent(self, index: int) -> bool:
        """Whether the index-th job's child has sent or exited; never blocks."""
        return bool(select.select([self._children[index][1]], [], [], 0)[0])

    def results(self) -> Iterator[Any]:
        """Each job's result in submission order, its child reaped once its
        pipe ends. The first failure in that order is raised: the job's
        exception, or ChildProcessError when its child sent nothing."""
        for pid, pipe in self._children:
            payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            self._reaped.add(pid)
            if not payload:
                how = f"exited with code {code}" if code >= 0 else f"was killed by signal {-code}"
                raise ChildProcessError(f"{self.role} worker {pid} {how} and sent no result")
            result = pickle.loads(payload)
            if isinstance(result, BaseException):
                raise result
            yield result
