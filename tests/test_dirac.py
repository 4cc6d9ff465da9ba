"""Linear Dirac structures: graphs, isotropy, membership, backward/forward images."""

import numpy as np
import pytest

from pontrylie import dirac
from pontrylie.dirac import (
    LinearDiracStructure,
    TwoForm,
    backward,
    canonical_two_form,
    contains,
    forward,
    graph_of_two_form,
    is_dirac,
    membership_residual,
    pontryagin_projection,
    pontryagin_two_form,
    reduced_dirac_fiber,
    subspaces_equal,
)
from pontrylie.errors import DimensionMismatchError, DiracPropertyError, PontrylieError
from pontrylie.lie import LieAlgebraSpec


def random_two_form(rng, d):
    raw = rng.normal(size=(d, d))
    return TwoForm(raw - raw.T)


def test_two_form_requires_antisymmetry():
    with pytest.raises(DimensionMismatchError):
        TwoForm(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_graph_of_canonical_symplectic_d2():
    # d = 2 with Omega(e1, e2) = 1: basis {(e1; e2*), (e2; -e1*)} up to span
    omega = TwoForm(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    graph = graph_of_two_form(omega)
    expected = LinearDiracStructure(
        2, np.array([[1.0, 0.0, 0.0, 1.0], [0.0, 1.0, -1.0, 0.0]])
    )
    assert subspaces_equal(graph, expected)
    assert is_dirac(graph)


def test_graph_of_zero_form_is_v_plus_zero():
    graph = graph_of_two_form(TwoForm(np.zeros((3, 3))))
    expected = LinearDiracStructure(3, np.hstack([np.eye(3), np.zeros((3, 3))]))
    assert subspaces_equal(graph, expected)


def test_pontryagin_fiber_local_form():
    """On a 5-dim (x, p, u) fiber the graph has v_x = p_p, v_p = -p_x, p_u = 0."""
    n, r = 2, 1
    graph = graph_of_two_form(pontryagin_two_form(n, r))
    rows = []
    for i in range(n):  # (e_x_i ; e_p_i*)
        row = np.zeros(2 * (2 * n + r))
        row[i] = 1.0
        row[2 * n + r + n + i] = 1.0
        rows.append(row)
    for i in range(n):  # (e_p_i ; -e_x_i*)
        row = np.zeros(2 * (2 * n + r))
        row[n + i] = 1.0
        row[2 * n + r + i] = -1.0
        rows.append(row)
    for a in range(r):  # (e_u_a ; 0)
        row = np.zeros(2 * (2 * n + r))
        row[2 * n + a] = 1.0
        rows.append(row)
    assert subspaces_equal(graph, LinearDiracStructure(2 * n + r, np.array(rows)))


def test_is_dirac_rejects_full_space_and_non_isotropic():
    assert not is_dirac(LinearDiracStructure(1, np.eye(2)))  # dimension 2d
    assert not is_dirac(LinearDiracStructure(1, np.array([[1.0, 1.0]])))  # <<.,.>> = 2
    assert is_dirac(graph_of_two_form(TwoForm(np.zeros((1, 1)))))


def test_contains_graph_members():
    omega = canonical_two_form(1)  # d = 2, coords (x, p)
    graph = graph_of_two_form(omega)
    v = np.array([1.0, 0.0])
    alpha = omega.matrix.T @ v
    assert contains(graph, v, alpha, tol=1e-12)
    assert not contains(graph, v, np.zeros(2), tol=1e-6)
    # residual grows with the perturbation
    assert membership_residual(graph, v, np.zeros(2)) > 0.1


def test_backward_identity_is_identity():
    rng = np.random.default_rng(1)
    structure = graph_of_two_form(random_two_form(rng, 4))
    assert subspaces_equal(backward(np.eye(4), structure), structure)


def test_forward_identity_is_identity():
    rng = np.random.default_rng(2)
    structure = graph_of_two_form(random_two_form(rng, 4))
    assert subspaces_equal(forward(np.eye(4), structure), structure)


@pytest.mark.parametrize("n,r", [(2, 1), (3, 2)])
def test_backward_of_cotangent_graph_along_projection(n, r):
    """Pulling the symplectic graph back along (x,p,u) -> (x,p) gives the
    presymplectic local form with a free control block."""
    proj = pontryagin_projection(n, r)
    pulled = backward(proj, graph_of_two_form(canonical_two_form(n)))
    assert subspaces_equal(pulled, graph_of_two_form(pontryagin_two_form(n, r)))


@pytest.mark.parametrize("n,r", [(2, 1), (3, 2)])
def test_forward_of_presymplectic_graph_is_cotangent_graph(n, r):
    proj = pontryagin_projection(n, r)
    pushed = forward(proj, graph_of_two_form(pontryagin_two_form(n, r)))
    assert subspaces_equal(pushed, graph_of_two_form(canonical_two_form(n)))


def test_backward_of_v_plus_zero():
    rng = np.random.default_rng(3)
    psi = rng.normal(size=(2, 5))  # surjective almost surely
    target = LinearDiracStructure(2, np.hstack([np.eye(2), np.zeros((2, 2))]))
    pulled = backward(psi, target)
    expected = LinearDiracStructure(5, np.hstack([np.eye(5), np.zeros((5, 5))]))
    assert subspaces_equal(pulled, expected)


def test_forward_of_v_plus_zero_is_image_plus_annihilator():
    psi = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    source = LinearDiracStructure(2, np.hstack([np.eye(2), np.zeros((2, 2))]))
    pushed = forward(psi, source)
    assert is_dirac(pushed)
    # image(psi) = span{e1}; annihilator of the image = span{e2*, e3*}
    expected = LinearDiracStructure(
        3,
        np.array(
            [
                [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
            ]
        ),
    )
    assert subspaces_equal(pushed, expected)


def test_dimension_mismatch_raises():
    structure = graph_of_two_form(canonical_two_form(2))
    with pytest.raises(DimensionMismatchError):
        backward(np.eye(3), structure)
    with pytest.raises(DimensionMismatchError):
        forward(np.eye(3), structure)
    with pytest.raises(DimensionMismatchError):
        contains(structure, np.zeros(3), np.zeros(3))


def test_constructor_rejects_dependent_basis():
    with pytest.raises(DimensionMismatchError):
        LinearDiracStructure(2, np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]))


@pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-11])
def test_scaled_graph_basis_is_accepted(scale):
    """Rank is relative to the largest singular value, so scaling never makes rows dependent."""
    graph = graph_of_two_form(random_two_form(np.random.default_rng(5), 3))
    scaled = LinearDiracStructure(3, scale * graph.basis)
    assert is_dirac(scaled)
    assert subspaces_equal(scaled, graph)


def test_orthonormal_basis_is_computed_once(monkeypatch):
    calls = []
    original = dirac._orthonormal_rows

    def counted(rows, *args):
        calls.append(rows)
        return original(rows, *args)

    monkeypatch.setattr(dirac, "_orthonormal_rows", counted)
    structure = graph_of_two_form(canonical_two_form(2))
    assert len(calls) == 1
    same = LinearDiracStructure(4, structure.basis[::-1])
    assert len(calls) == 2
    structure.orthonormal()
    assert is_dirac(structure)
    membership_residual(structure, np.ones(4), np.zeros(4))
    assert subspaces_equal(structure, same)
    assert len(calls) == 2
    assert not structure.orthonormal().flags.writeable


@pytest.mark.parametrize("image", [backward, forward])
def test_failed_image_check_is_a_package_error(monkeypatch, image):
    structure = graph_of_two_form(random_two_form(np.random.default_rng(9), 3))
    monkeypatch.setattr(dirac, "is_dirac", lambda s, tol=1e-10: s is structure)
    with pytest.raises(DiracPropertyError) as err:
        image(np.eye(3), structure)
    assert isinstance(err.value, PontrylieError)
    assert not isinstance(err.value, AssertionError)


def test_random_graphs_are_dirac():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        d = int(rng.integers(1, 9))
        assert is_dirac(graph_of_two_form(random_two_form(rng, d)))


def test_forward_backward_roundtrip_surjective():
    rng = np.random.default_rng(17)
    for _ in range(30):
        m_in = int(rng.integers(2, 7))
        m_out = int(rng.integers(1, m_in + 1))
        psi = rng.normal(size=(m_out, m_in))
        target = graph_of_two_form(random_two_form(rng, m_out))
        pulled = backward(psi, target)
        assert is_dirac(pulled)
        assert subspaces_equal(forward(psi, pulled), target)


def test_images_preserve_dirac_property():
    rng = np.random.default_rng(23)
    for _ in range(30):
        m_in = int(rng.integers(1, 6))
        m_out = int(rng.integers(1, 6))
        psi = rng.normal(size=(m_out, m_in))
        assert is_dirac(forward(psi, graph_of_two_form(random_two_form(rng, m_in))))
        assert is_dirac(backward(psi, graph_of_two_form(random_two_form(rng, m_out))))


def test_reduced_fiber_abelian_is_canonical(heis_algebra):
    abelian = LieAlgebraSpec(3, np.zeros((3, 3, 3)))
    fiber = reduced_dirac_fiber(abelian, np.array([0.3, -1.0, 2.0]))
    assert subspaces_equal(fiber, graph_of_two_form(canonical_two_form(3)))
    # zero momentum kills the bracket term on any algebra
    fiber0 = reduced_dirac_fiber(heis_algebra, np.zeros(3))
    assert subspaces_equal(fiber0, graph_of_two_form(canonical_two_form(3)))


def test_reduced_fiber_encodes_lie_poisson_flow(heis_algebra):
    """((xi, mu_dot), (0, dh_dmu)) belongs iff xi = dh_dmu and mu_dot = ad*_xi mu."""
    from pontrylie.lie import coadjoint

    rng = np.random.default_rng(31)
    for _ in range(20):
        mu = rng.normal(size=3)
        fiber = reduced_dirac_fiber(heis_algebra, mu)
        assert is_dirac(fiber)
        xi = np.array([mu[0], mu[1], 0.0])  # dh/dmu for h = (mu1^2 + mu2^2)/2
        mu_dot = coadjoint(heis_algebra, xi, mu).coeffs
        velocity = np.concatenate([xi, mu_dot])
        covector = np.concatenate([np.zeros(3), xi])
        assert contains(fiber, velocity, covector, tol=1e-10)
        bad = velocity.copy()
        bad[3] += 1e-2
        assert not contains(fiber, bad, covector, tol=1e-6)


def test_reduced_fiber_random_momenta_are_dirac(heis_algebra):
    rng = np.random.default_rng(37)
    for _ in range(100):
        assert is_dirac(reduced_dirac_fiber(heis_algebra, rng.normal(size=3)))
