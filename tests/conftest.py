"""Checks that every test gets."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_outlives_the_test():
    """After each test this process has no child, running or exited and not
    reaped. The check reaps nothing, so it changes no state that a later
    test could see."""
    yield
    if not hasattr(os, "waitid"):
        return
    try:
        child = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return
    pytest.fail(f"a child process outlived the test: {child or 'still running'}")
