import sys

import numpy as np
import pytest

from pontrylie import PmpSolverConfig
from pontrylie.ocp import ControlProblem, ProblemJacobians, constant, hamiltonian_partials, left_translations, stacked
from pontrylie.heisenberg import (
    heisenberg_algebra,
    heisenberg_problem,
    heisenberg_reduced_problem,
    unit_cylinder_costate,
)
from pontrylie.pmp import integrate_pmp
from pontrylie.reduction import ReducedProblem, ReducedState, integrate_reduced, reduced_partials

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


def hamiltonian(problem, point) -> float:
    """H = <p, f> - L(x, u) at a Pontryagin point, f = dH/dp from ``hamiltonian_partials``."""
    return float(point.p @ hamiltonian_partials(problem, point).dH_dp) - float(problem.lagrangian(point.x, point.u))


def reduced_hamiltonian(problem, state) -> float:
    """h = <(p_z, mu), (base, fiber)> - l(z, u) at a reduced state, (base, fiber) = dh/d(p_z, mu) from
    ``reduced_partials``."""
    parts = reduced_partials(problem, state.z, state.p_z, state.mu, state.u)
    return float(np.concatenate([state.p_z, state.mu]) @ parts.dH_dp) - float(problem.lagrangian(state.z, state.u))


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


# ---------------------------------------------------------------- hand-written Heisenberg oracle
# The builtin is the README problem file compiled; these stacked callables write the same problem out by
# hand (x_dot = u1, y_dot = u2, z_dot = (x u2 - y u1)/2, L = (u1^2 + u2^2)/2) and must agree bit for bit.


def _columns(*columns) -> np.ndarray:
    """The stack whose last axis holds the given per-member columns."""
    out = np.empty(columns[0].shape + (len(columns),))
    for i, column in enumerate(columns):
        out[..., i] = column
    return out


@stacked
def _oracle_dynamics(x, u):
    return _columns(u[..., 0], u[..., 1], 0.5 * (x[..., 0] * u[..., 1] - x[..., 1] * u[..., 0]))


@stacked
def _oracle_lagrangian(x, u):
    return 0.5 * (u[..., 0] ** 2 + u[..., 1] ** 2)


@stacked
def _oracle_fiber_dynamics(z, u):
    return _columns(u[..., 0], u[..., 1], np.zeros(u.shape[:-1]))


# The gradient of H = p1 u1 + p2 u2 + p3 (x1 u2 - x2 u1)/2 - L in the float operations of its compiled tree:
# dH/du1 = (p1 + p3 (x2 / -2)) - u1, dH/du2 = (p2 + p3 (x1 / 2)) - u2, dH/dx = (p3 (u2 / 2), p3 (u1 / -2), 0).


@stacked
def _oracle_dH(x, p, u):
    f = _oracle_dynamics(x, u)
    return _columns((p[..., 0] + p[..., 2] * (x[..., 1] / -2.0)) - u[..., 0],
                    (p[..., 1] + p[..., 2] * (x[..., 0] / 2.0)) - u[..., 1],
                    p[..., 2] * (u[..., 1] / 2.0), p[..., 2] * (u[..., 0] / -2.0),
                    np.zeros(x.shape[:-1]), f[..., 0], f[..., 1], f[..., 2])


# the reduced h = mu1 u1 + mu2 u2 - L: dh/du = mu[:2] - u, and dh/dlam is the fiber (u1, u2, 0)


@stacked
def _oracle_reduced_dH(z, mu, u):
    return _columns(mu[..., 0] - u[..., 0], mu[..., 1] - u[..., 1], u[..., 0], u[..., 1], np.zeros(u.shape[:-1]))


def heisenberg_oracle_problem() -> ControlProblem:
    """The hand-written full problem."""
    return ControlProblem(n=3, r=2, dynamics=_oracle_dynamics, lagrangian=_oracle_lagrangian,
                          jacobians=ProblemJacobians(dH=_oracle_dH, d2H_du2=constant(-np.eye(2))),
                          symmetry=left_translations(heisenberg_algebra()), name="heisenberg")


def heisenberg_oracle_reduced() -> ReducedProblem:
    """The hand-written reduced problem."""
    return ReducedProblem(base_dim=0, algebra=heisenberg_algebra(), control_dim=2, lagrangian=_oracle_lagrangian,
                          base_dynamics=constant(np.zeros(0)), fiber_dynamics=_oracle_fiber_dynamics,
                          jacobians=ProblemJacobians(dH=_oracle_reduced_dH, d2H_du2=constant(-np.eye(2))),
                          casimirs={"casimir_mu3": lambda mu: float(mu[2])}, name="heisenberg")


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


def counting(calls, name, fn):
    """``fn`` adding one to ``calls[name]`` per call; its ``stacked`` and ``constant`` marks are kept."""

    def called(*args):
        calls[name] += 1
        return fn(*args)

    called.__dict__.update(vars(fn))
    return called


def wrap_float_sweeps(monkeypatch, wrap):
    """Every generated sweep compiled from now on (by ``expr.float_stage``, for a view not yet swept on floats)
    replaced by ``wrap(sweep, source)``, ``source`` the text it was compiled from, which ``pmp._rk4_dae`` then calls
    once per member: the hook through which a test sees the float sweep."""
    from pontrylie import expr

    compile_sweep = expr.float_stage

    def compiled(ham):
        sources = []
        with monkeypatch.context() as patch:
            patch.setattr(expr, "compile", lambda text, *args: sources.append(text) or compile(text, *args),
                          raising=False)
            sweep = compile_sweep(ham)
        return None if sweep is None else wrap(sweep, sources[-1])

    monkeypatch.setattr(expr, "float_stage", compiled)


def count_float_solves(monkeypatch, counts):
    """Count into ``counts``, for every generated sweep compiled from now on, the Newton solves it finishes ("float
    solves": the finiteness check of dH after each solve's loop) and its evaluations of the inlined dH and L lines
    ("dH": one per iterate, the line assigning the entries, node 0 reading ``check`` instead; "lagrangian": one per
    node, the line assigning L), by tracing the line events of the generated code with ``sys.settrace``.  Neither
    counts its guarded fallback, whose call of the compiled dH or L a counting wrapper of that table counts."""

    def traced(sweep, source):
        kinds = {}
        for number, line in enumerate(source.splitlines(), start=1):
            text = line.strip()
            if text.startswith("if not _isfinite(0.0 * _d0"):
                kinds[number] = "float solves"
            elif text.startswith("_d0,") and "_check(" not in text and "_dH(" not in text:
                kinds[number] = "dH"
            elif text.startswith("_lagrangian, = ") and "_L(" not in text:
                kinds[number] = "lagrangian"

        def lines(frame, event, arg):
            if event == "line" and frame.f_lineno in kinds:
                counts[kinds[frame.f_lineno]] += 1
            return lines

        def run(*args):
            previous = sys.gettrace()
            sys.settrace(lambda frame, event, arg: lines if frame.f_code is sweep.__code__ else None)
            try:
                return sweep(*args)
            finally:
                sys.settrace(previous)

        return run

    wrap_float_sweeps(monkeypatch, traced)
