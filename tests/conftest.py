import sys

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite", deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("suite")


@pytest.fixture()
def shallow_recursion():
    """Lower the recursion limit to this fixture's stack depth plus 60
    frames for one test, so a recursive walk of a large input fails at
    once instead of only past the default limit of 1000 frames."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    yield
    sys.setrecursionlimit(limit)


_CRITERIA = {
    1: "layered WMC matches brute force on a 200-CNF corpus",
    2: "constraint example: WMC, loss, and symbol permutation goldens",
    3: "structural properties hold and mutations are caught",
    4: "gradients match central finite differences",
    5: "layered equals recursive evaluation",
    6: "addition task matches the convolution oracle",
    7: "batched evaluation beats and amortizes over recursive",
    8: "semantics substitution agrees on Boolean corners",
    9: "fuzzy factory reproduces connective and quantifier goldens",
    10: "composition laws: associativity, DAG, transforms, rejection",
    11: "projected descent on the semantic loss reaches < 0.05",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion, keyed by test name."""
    status: dict[int, str] = {}
    for outcome, verdict in (("failed", "FAIL"), ("error", "FAIL"),
                             ("skipped", "SKIP"), ("passed", "PASS")):
        for report in terminalreporter.stats.get(outcome, []):
            nodeid = getattr(report, "nodeid", "")
            marker = "test_acceptance.py::test_criterion_"
            if marker not in nodeid:
                continue
            num = int(nodeid.split(marker, 1)[1][:2])
            status.setdefault(num, verdict)
    if not status:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for num, description in sorted(_CRITERIA.items()):
        terminalreporter.write_line(
            f"  criterion {num:2d}: {status.get(num, 'NOT RUN'):4s} {description}")
