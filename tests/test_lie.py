"""Bracket, coadjoint action, nilpotent exponential and logarithm, on plain coefficient arrays."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import so3_algebra
from pontrylie.errors import DimensionMismatchError, EvaluationError, InvalidAlgebraError, NonNilpotentError
from pontrylie.lie import (
    GroupElement,
    LieAlgebraSpec,
    _exp_series,
    algebra_from_dict,
    bracket,
    coadjoint,
    exp_nilpotent,
    left_invariant_frame,
    log_nilpotent,
)

G1 = np.array([1.0, 0.0, 0.0])
G2 = np.array([0.0, 1.0, 0.0])
G3 = np.array([0.0, 0.0, 1.0])


def test_bracket_generators(heis_algebra):
    assert np.allclose(bracket(heis_algebra, G1, G2), G3)
    assert np.allclose(bracket(heis_algebra, G1, G3), 0.0)
    assert np.allclose(bracket(heis_algebra, G2, G3), 0.0)


def test_bracket_and_coadjoint_return_plain_coefficient_arrays(heis_algebra):
    for out in (bracket(heis_algebra, G1, G2), coadjoint(heis_algebra, G1, G3)):
        assert type(out) is np.ndarray and out.shape == (3,) and out.dtype == float


def test_bracket_antisymmetry_diagonal(heis_algebra):
    xi = np.array([0.3, -1.2, 2.0])
    assert np.allclose(bracket(heis_algebra, xi, xi), 0.0)


def test_bracket_dimension_mismatch(heis_algebra):
    with pytest.raises(DimensionMismatchError):
        bracket(heis_algebra, np.ones(2), G1)


def test_pairing_dual_basis(heis_algebra):
    """<lam, xi> is the plain dot product of coefficient arrays; a coalgebra element of the wrong length is
    refused where the library pairs it, in the coadjoint action."""
    assert G1 @ G1 == 1.0
    assert G1 @ G2 == 0.0
    # plain dot product: 2*3 + 0*5 + 1*(-1) = 5
    assert np.array([2.0, 0.0, 1.0]) @ np.array([3.0, 5.0, -1.0]) == 5.0
    with pytest.raises(DimensionMismatchError):
        coadjoint(heis_algebra, G1, [1.0, 2.0])


def test_coadjoint_hand_example(heis_algebra):
    # <ad*_{g1} t3, zeta> = <t3, [g1, zeta]>; only zeta = g2 contributes
    # ([g1, g2] = g3 pairs to 1), so ad*_{g1} t3 = t2.
    out = coadjoint(heis_algebra, G1, G3)
    assert np.allclose(out, G2, atol=1e-15)


def test_coadjoint_zero_momentum(heis_algebra):
    assert np.allclose(coadjoint(heis_algebra, np.array([0.4, 1.0, -2.0]), np.zeros(3)), 0.0)


def test_coadjoint_reproduces_lie_poisson_block(heis_algebra):
    # horizontal xi: ad*_xi lam = (-xi2 lam3, xi1 lam3, 0)
    rng = np.random.default_rng(7)
    for _ in range(10):
        xi1, xi2 = rng.normal(size=2)
        lam = rng.normal(size=3)
        out = coadjoint(heis_algebra, np.array([xi1, xi2, 0.0]), lam)
        expected = np.array([-xi2 * lam[2], xi1 * lam[2], 0.0])
        assert np.allclose(out, expected, atol=1e-14)


@pytest.mark.parametrize("alg_factory", [so3_algebra, None])
def test_coadjoint_pairing_identity(alg_factory, heis_algebra):
    """<ad*_xi lam, zeta> == <lam, [xi, zeta]> for 100 random triples."""
    alg = alg_factory() if alg_factory else heis_algebra
    rng = np.random.default_rng(11)
    for _ in range(100):
        xi, zeta, lam = rng.normal(size=(3, alg.dim))
        lhs = coadjoint(alg, xi, lam) @ zeta
        rhs = lam @ bracket(alg, xi, zeta)
        assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))


@pytest.mark.parametrize("alg_factory", [so3_algebra, None])
def test_bracket_jacobi_identity(alg_factory, heis_algebra):
    alg = alg_factory() if alg_factory else heis_algebra
    rng = np.random.default_rng(3)
    for _ in range(50):
        a, b, c = rng.normal(size=(3, alg.dim))
        total = (
            bracket(alg, a, bracket(alg, b, c))
            + bracket(alg, b, bracket(alg, c, a))
            + bracket(alg, c, bracket(alg, a, b))
        )
        assert np.max(np.abs(total)) <= 1e-12


def test_exp_closed_form(heis_algebra):
    a, b, c = 0.7, -1.3, 0.25
    g = exp_nilpotent(heis_algebra, np.array([a, b, c]))
    expected = np.array([[1.0, a, c + a * b / 2.0], [0.0, 1.0, b], [0.0, 0.0, 1.0]])
    assert np.allclose(g.matrix, expected, atol=1e-15)
    assert np.array_equal(np.diag(g.matrix), np.ones(3)) and not np.tril(g.matrix, k=-1).any()


def test_exp_zero_is_identity(heis_algebra):
    assert np.array_equal(exp_nilpotent(heis_algebra, np.zeros(3)).matrix, np.eye(3))


def test_exp_central_generator(heis_algebra):
    # gamma3 squares to zero, so the series stops after the linear term
    g = exp_nilpotent(heis_algebra, G3)
    expected = np.eye(3)
    expected[0, 2] = 1.0
    assert np.array_equal(g.matrix, expected)


def test_exp_inverse_property(heis_algebra):
    rng = np.random.default_rng(5)
    for _ in range(25):
        xi = rng.normal(size=3)
        prod = exp_nilpotent(heis_algebra, xi).matrix @ exp_nilpotent(heis_algebra, -xi).matrix
        assert np.max(np.abs(prod - np.eye(3))) <= 1e-12


def test_exp_rejects_non_nilpotent():
    with pytest.raises(NonNilpotentError):
        exp_nilpotent(so3_algebra(), np.array([0.4, 0.2, 1.0]))


def test_structure_constant_validation():
    bad = np.zeros((2, 2, 2))
    bad[0, 1, 0] = 1.0  # not antisymmetric: c[1,0,0] missing
    with pytest.raises(InvalidAlgebraError):
        LieAlgebraSpec(dim=2, structure_constants=bad)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_structure_constants_are_rejected(value):
    """A NaN constant passes the antisymmetry and Jacobi comparisons, so finiteness is checked first; a problem
    file's algebra goes through the same check (exit 1)."""
    with pytest.raises(InvalidAlgebraError, match="must be finite"):
        algebra_from_dict({"dim": 3, "structure": [[0, 1, 2, value]]})


def test_jacobi_validation():
    # dim-3 constants violating Jacobi: [e1,e2]=e3, [e1,e3]=e1, [e2,e3]=e2
    c = np.zeros((3, 3, 3))
    for i, j, k in ((0, 1, 2), (0, 2, 0), (1, 2, 1)):
        c[i, j, k] = 1.0
        c[j, i, k] = -1.0
    with pytest.raises(InvalidAlgebraError):
        LieAlgebraSpec(dim=3, structure_constants=c)


def test_matrix_basis_consistency_checked(heis_algebra):
    mats = list(heis_algebra.matrix_basis)
    mats[2] = 2.0 * mats[2]  # breaks [g1, g2] = g3
    with pytest.raises(InvalidAlgebraError):
        LieAlgebraSpec(
            dim=3, structure_constants=heis_algebra.structure_constants, matrix_basis=tuple(mats)
        )


def test_group_element_unitriangular_check(heis_algebra):
    """Ones on the diagonal and zeros below it are what the logarithm checks: the identity has coordinates 0, and
    1e-6 below the diagonal is refused."""
    assert np.array_equal(log_nilpotent(heis_algebra, GroupElement(np.eye(3))), np.zeros(3))
    m = np.eye(3)
    m[2, 0] = 1e-6
    with pytest.raises(DimensionMismatchError, match="not unipotent"):
        log_nilpotent(heis_algebra, GroupElement(m))


def test_algebra_from_dict_roundtrip(heis_algebra):
    data = {
        "dim": 3,
        "structure": [[0, 1, 2, 1.0]],
        "matrix_basis": [m.tolist() for m in heis_algebra.matrix_basis],
    }
    alg = algebra_from_dict(data)
    assert np.array_equal(alg.structure_constants, heis_algebra.structure_constants)
    g = exp_nilpotent(alg, np.array([1.0, 2.0, 0.0]))
    assert abs(g.matrix[0, 2] - 1.0) <= 1e-15  # c + ab/2 with c=0, a=1, b=2


def test_algebra_from_dict_fills_each_implicit_counterpart_as_the_entrywise_loop():
    """The (j, i, k) entries left out are filled with -c[i, j, k]; given entries stay as given.  The validation
    of the result is switched off: random entries are not a Lie algebra."""
    rng = np.random.default_rng(5)
    for _ in range(50):
        given = rng.normal(size=(4, 4, 4)) * (rng.random((4, 4, 4)) < 0.3)
        expected = given.copy()
        for i, j, k in np.ndindex(expected.shape):
            if expected[i, j, k] != 0.0 and expected[j, i, k] == 0.0:
                expected[j, i, k] = -expected[i, j, k]
        captured = {}
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("pontrylie.lie.LieAlgebraSpec", lambda **kw: captured.update(kw))
            algebra_from_dict({"dim": 4, "structure": [[*index, given[index]] for index in zip(*np.nonzero(given))]})
        assert np.array_equal(captured["structure_constants"], expected)


def test_matrix_basis_must_be_independent(heis_algebra):
    mats = list(heis_algebra.matrix_basis)
    with pytest.raises(InvalidAlgebraError, match="linearly dependent"):
        LieAlgebraSpec(dim=2, structure_constants=np.zeros((2, 2, 2)), matrix_basis=(mats[2], 2.0 * mats[2]))


def test_log_equals_the_heisenberg_chart_formula_bit_for_bit(heis_algebra):
    rng = np.random.default_rng(17)
    a, b, c = rng.normal(size=(3, 10_000)) * 10.0 ** rng.integers(-8, 6, size=(3, 10_000))
    stack = np.tile(np.eye(3), (10_000, 1, 1))
    stack[:, 0, 1], stack[:, 1, 2], stack[:, 0, 2] = a, b, c
    assert np.array_equal(log_nilpotent(heis_algebra, stack), np.stack([a, b, c - 0.5 * a * b], axis=-1))


def upper_triangular_4x4():
    """The 6-dim algebra of strictly upper-triangular 4x4 matrices, basis E_ij for i < j."""
    mats = []
    for i, j in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)):
        m = np.zeros((4, 4))
        m[i, j] = 1.0
        mats.append(m)
    flat = np.stack(mats).reshape(6, -1)
    c = np.array([[flat @ (x @ y - y @ x).ravel() for y in mats] for x in mats])
    return LieAlgebraSpec(dim=6, structure_constants=c, matrix_basis=tuple(mats))


UT4 = upper_triangular_4x4()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
def test_exp_log_round_trip_on_upper_triangular_4x4(entries):
    g = np.eye(4)
    g[np.triu_indices(4, k=1)] = entries
    xi = log_nilpotent(UT4, GroupElement(g))
    assert np.max(np.abs(exp_nilpotent(UT4, xi).matrix - g)) <= 1e-12
    assert np.max(np.abs(log_nilpotent(UT4, exp_nilpotent(UT4, xi)) - xi)) <= 1e-12


def test_log_accepts_stacks_and_rejects_non_unipotent(heis_algebra):
    xi = np.arange(24, dtype=float).reshape(2, 4, 3) / 7.0
    stack = np.array([[exp_nilpotent(heis_algebra, row).matrix for row in block] for block in xi])
    assert np.allclose(log_nilpotent(heis_algebra, stack), xi, atol=1e-14)
    with pytest.raises(DimensionMismatchError):
        log_nilpotent(heis_algebra, np.diag([2.0, 1.0, 1.0]))
    with pytest.raises(DimensionMismatchError):
        log_nilpotent(heis_algebra, np.eye(4))
    with pytest.raises(InvalidAlgebraError):
        log_nilpotent(LieAlgebraSpec(dim=1, structure_constants=np.zeros((1, 1, 1))), np.eye(1))


def test_stacked_exponential_equals_one_element_at_a_time():
    rng = np.random.default_rng(17)
    xi = rng.normal(scale=2.0, size=(4, 5, 6))
    stacked = _exp_series(UT4, xi)
    assert stacked.shape == (4, 5, 4, 4)
    assert np.array_equal(stacked, [[exp_nilpotent(UT4, row).matrix for row in block] for block in xi])
    with pytest.raises(NonNilpotentError):
        _exp_series(so3_algebra(), np.vstack([np.zeros((3, 3)), [[0.0, 0.0, 1.0]]]))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=6, max_size=6))
def test_invariant_frames_are_the_derivatives_of_translation_on_upper_triangular_4x4(entries):
    """Column j of L(x) is d/dt log(exp(x) exp(t e_j)); of the right frame L(-x), d/dt log(exp(t e_j) exp(x))."""
    x, h = np.array(entries), 1e-5
    left, right = left_invariant_frame(UT4, x), left_invariant_frame(UT4, -x)
    for j, e in enumerate(np.eye(6)):
        g, step = exp_nilpotent(UT4, x).matrix, exp_nilpotent(UT4, h * e).matrix
        back = exp_nilpotent(UT4, -h * e).matrix
        d_left = (log_nilpotent(UT4, g @ step) - log_nilpotent(UT4, g @ back)) / (2.0 * h)
        d_right = (log_nilpotent(UT4, step @ g) - log_nilpotent(UT4, back @ g)) / (2.0 * h)
        assert np.max(np.abs(left[:, j] - d_left)) <= 1e-7
        assert np.max(np.abs(right[:, j] - d_right)) <= 1e-7


def test_left_invariant_frame_takes_stacks(heis_algebra):
    x = np.random.default_rng(3).normal(size=(4, 2, 3))
    stacked = left_invariant_frame(heis_algebra, x)
    assert stacked.shape == (4, 2, 3, 3)
    assert np.array_equal(stacked[2, 1], left_invariant_frame(heis_algebra, x[2, 1]))
    assert np.array_equal(left_invariant_frame(heis_algebra, np.zeros(3)), np.eye(3))


def test_group_checks_reject_non_finite_values(heis_algebra):
    """A NaN or infinite coefficient or matrix entry is refused before any arithmetic, so NumPy warns of nothing."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for bad in (np.nan, np.inf):
            with pytest.raises(EvaluationError, match=r"coefficient xi\[1, 0\] is (nan|inf)"):
                _exp_series(heis_algebra, np.array([[0.1, 0.2, 0.3], [bad, 0.0, 0.0]]))
            with pytest.raises(EvaluationError, match=r"coefficient xi\[1\] is (nan|inf)"):
                exp_nilpotent(heis_algebra, [0.0, bad, 0.0])
            g = np.eye(3)
            g[0, 2] = bad
            with pytest.raises(DimensionMismatchError, match="non-finite"):
                log_nilpotent(heis_algebra, g)
            with pytest.raises(DimensionMismatchError, match="non-finite"):
                log_nilpotent(heis_algebra, np.stack([np.eye(3), g]))
    assert not caught, [str(w.message) for w in caught]
