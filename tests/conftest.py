"""Shared fixtures: one instance per problem family and one full
``holder-vi verify`` run, all session scoped.

Builders are cheap but the bilinear solution oracle does a dense solve,
so reuse across tests keeps the suite fast.  The verify run is the
expensive one: the acceptance scorecard reads four of its groups instead
of recomputing them.
"""

import numpy as np
import pytest

from holder_vi.problems import (
    make_bilinear,
    make_piecewise,
    make_power,
    make_quartic_saddle,
)
from holder_vi.verify import run_checks


@pytest.fixture(scope="session")
def power_nu1():
    return make_power(5, 1.0, 1.0)


@pytest.fixture(scope="session")
def power_nu_half():
    return make_power(5, 0.5, 1.0)


@pytest.fixture(scope="session")
def bilinear():
    return make_bilinear(10, 1.0, 1.0, 0)


@pytest.fixture(scope="session")
def quartic():
    return make_quartic_saddle(4, 1.0, 0)


@pytest.fixture(scope="session")
def piecewise():
    return make_piecewise(5, 1.0, 1.0)


@pytest.fixture(scope="session")
def verify_results():
    return run_checks()


def verify_checks(results, group, prefix=""):
    """The verify checks of ``group`` whose name starts with ``prefix``;
    an empty match fails, so a renamed check cannot pass vacuously."""
    checks = [r for r in results if r.group == group and r.name.startswith(prefix)]
    assert checks, f"no verify check {group}/{prefix}*"
    return checks


@pytest.fixture
def rng():
    return np.random.default_rng(0)


# The acceptance tests append one verdict line each; echo them after the
# summary so a plain ``pytest -v`` log still shows the whole scorecard.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance scorecard")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
