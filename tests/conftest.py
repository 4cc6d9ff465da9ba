import numpy as np
import pytest

from pontrylie import PmpSolverConfig
from pontrylie.heisenberg import (
    heisenberg_algebra,
    heisenberg_problem,
    heisenberg_reduced_problem,
    unit_cylinder_costate,
)
from pontrylie.pmp import integrate_pmp
from pontrylie.reduction import ReducedState, integrate_reduced

ACCEPTANCE_LINES = []

# Full-period Heisenberg runs from mu0 = p0 = (cos theta, sin theta, k), the full ones from x0 = 0.  Each
# set is integrated once per session in one batch and shared by every module.  A member of a batch is bit
# for bit its own solve, so a test reads the same trajectory it would integrate alone.
TWO_PI = 2.0 * np.pi
STEP = 1e-3
CONFIG = PmpSolverConfig(rk_step=STEP)
THETAS = (0.0, np.pi / 4)
KS = (0.5, 1.0, 2.0)
FULL_CASES = ((0.0, 1.0), (np.pi / 4, 0.5))
# FULL_CASES plus the momentum-channel case of test_pmp
FULL_PERIOD_CASES = FULL_CASES + ((0.2, 1.0),)
# the Casimir cases of test_pmp, at the coarser step 2e-3
CASIMIR_KS = (0.5, 2.0)


def record_acceptance(line: str) -> None:
    """Collect acceptance verdict lines; they are echoed in the terminal summary."""
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def heis_algebra():
    return heisenberg_algebra()


@pytest.fixture(scope="session")
def heis_problem():
    return heisenberg_problem()


@pytest.fixture(scope="session")
def heis_reduced():
    return heisenberg_reduced_problem()


@pytest.fixture(scope="session")
def default_config():
    return PmpSolverConfig()


def so3_algebra():
    """so(3) with the cross-product structure constants and its matrix basis.

    Used as a second validated algebra (and as a non-nilpotent one for the
    exponential error path).
    """
    from pontrylie.lie import LieAlgebraSpec

    c = np.zeros((3, 3, 3))
    for i, j, k, s in ((0, 1, 2, 1.0), (1, 2, 0, 1.0), (2, 0, 1, 1.0)):
        c[i, j, k] = s
        c[j, i, k] = -s
    l1 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    l2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    l3 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    return LieAlgebraSpec(dim=3, structure_constants=c, matrix_basis=(l1, l2, l3))


@pytest.fixture(scope="session")
def reduced_runs(heis_reduced):
    """Every (theta, k) of THETAS x KS, one period at STEP, integrated in one batch."""
    cases = [(theta, k) for theta in THETAS for k in KS]
    states = [ReducedState(np.zeros(0), np.zeros(0), unit_cylinder_costate(theta, k), np.zeros(2))
              for theta, k in cases]
    return dict(zip(cases, integrate_reduced(heis_reduced, states, TWO_PI, CONFIG)))


@pytest.fixture(scope="session")
def full_period_runs(heis_problem):
    """Every case of FULL_PERIOD_CASES, one period at STEP, integrated in one batch."""
    p0 = [unit_cylinder_costate(theta, k) for theta, k in FULL_PERIOD_CASES]
    return dict(zip(FULL_PERIOD_CASES, integrate_pmp(heis_problem, np.zeros(3), p0, TWO_PI, CONFIG)))


@pytest.fixture(scope="session")
def full_runs(full_period_runs):
    """The acceptance cases FULL_CASES of ``full_period_runs``."""
    return {case: full_period_runs[case] for case in FULL_CASES}


@pytest.fixture(scope="session")
def casimir_runs(heis_problem):
    """p0 = (1, 0, k) for every k of CASIMIR_KS, one period at step 2e-3, integrated in one batch."""
    p0 = [unit_cylinder_costate(0.0, k) for k in CASIMIR_KS]
    config = PmpSolverConfig(rk_step=2e-3)
    return dict(zip(CASIMIR_KS, integrate_pmp(heis_problem, np.zeros(3), p0, TWO_PI, config)))
