"""Shared pytest plumbing: collects one status line per acceptance criterion
and prints them in a dedicated terminal section at the end of the run, and
hands tests the one-worker executor that mmd_loss and generator_step take."""

from concurrent.futures import ThreadPoolExecutor

import pytest

CRITERION_LINES = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)


@pytest.fixture
def pool():
    """A one-worker executor, as fit makes; joined when the test ends."""
    with ThreadPoolExecutor(1, thread_name_prefix="ctdr-test-worker") as executor:
        yield executor
