"""Pytest hooks and shared checks.

Acceptance tests register one PASS/FAIL line each via ``record_verdict``;
the lines are printed in the terminal summary so they survive output
capture regardless of the -s flag. ``assert_no_child_left`` checks that a
forked worker was reaped.
"""

import os

import pytest

_VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    _VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in _VERDICTS:
        terminalreporter.write_line(line)


def assert_no_child_left() -> None:
    """This process has no child, running or unreaped: waitpid(-1) finds none."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
