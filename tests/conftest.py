"""Fixtures shared by every test module."""

import faulthandler
import os

import pytest

# seconds one test may run; the slowest takes a few
TEST_TIME_LIMIT = 300

# a copy of the stderr descriptor taken before any test runs, since output
# capture points descriptor 2 at a file that is lost when the process exits
STDERR = pytest.StashKey[int]()


def pytest_configure(config):
    config.stash[STDERR] = os.dup(2)


def pytest_unconfigure(config):
    os.close(config.stash[STDERR])


@pytest.fixture(autouse=True)
def bounded_test_time(request):
    """End the run when a test outlives ``TEST_TIME_LIMIT``: every thread's
    traceback goes to stderr and the process exits, so a hang fails the
    suite within the bound instead of running until it is killed."""
    faulthandler.dump_traceback_later(TEST_TIME_LIMIT, exit=True,
                                      file=request.config.stash[STDERR])
    yield
    faulthandler.cancel_dump_traceback_later()
