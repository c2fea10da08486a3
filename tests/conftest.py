import multiprocessing
import sys

import pytest


@pytest.fixture(autouse=True)
def no_process_outlives_the_test():
    """Fail a test that leaves a multiprocessing child alive, as a forked
    pair's worker would be, and end the child so no later test sees it."""
    yield
    alive = multiprocessing.active_children()
    for child in alive:
        child.terminate()
        child.join()
    assert not alive, f"left a process running: {alive}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Replay the acceptance PASS/FAIL lines after capture is released so they
    # show up in a plain `pytest -v` run, not just under -s.
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num, ok, title in sorted(results):
        terminalreporter.write_line(
            f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {title}"
        )
