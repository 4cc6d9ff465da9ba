"""Linear Dirac structures on finite-dimensional fibers.

A structure on a d-dimensional space V is a subspace D of V (+) V* stored as a
basis of vectors in R^{2d}, each split into a vector part v and a covector
part alpha.  D is Dirac when it is maximally isotropic for the symmetric
pairing  <<(v, a), (w, b)>> = <b, v> + <a, w>,  i.e. isotropic with dim D = d.

Everything here is fiberwise linear algebra; bundle-level objects are handled
by mapping base points to fibers.  Subspace computations use SVD with one
rank rule: singular values above _RANK_RTOL times the largest one count.
Graphs of forms also have a closed-form distance, ``graph_residuals``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, DiracPropertyError
from .lie import LieAlgebraSpec, _coeffs, _lie_poisson_form

_RANK_RTOL = 1e-10

ArrayLike = Union[np.ndarray, Sequence[float]]


def _rank(s: np.ndarray, rtol: float = _RANK_RTOL) -> int:
    """Numerical rank from descending singular values: those above rtol * s[0] count."""
    return int(np.sum(s > rtol * s[0])) if s.size else 0


def _orthonormal_rows(rows: np.ndarray, rtol: float = _RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (as rows) of the row span of ``rows``."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if rows.shape[0] == 0 or not np.any(rows):
        return np.zeros((0, rows.shape[1]))
    _, s, vt = np.linalg.svd(rows, full_matrices=False)
    return vt[: _rank(s, rtol)]


@dataclass(frozen=True)
class TwoForm:
    """An antisymmetric bilinear form, Omega(v, w) = v^T M w."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"two-form matrix must be square, got {m.shape}")
        if np.max(np.abs(m + m.T), initial=0.0) > 1e-12:
            raise DimensionMismatchError("two-form matrix is not antisymmetric")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class LinearDiracStructure:
    """A subspace of V (+) V* over a d-dimensional V, stored as basis rows.

    Each basis row has length 2d: the first d entries are the vector part,
    the last d the covector part.  The constructor enforces shape and linear
    independence and orthonormalizes the rows once; every subspace
    computation reads that read-only basis.  Isotropy and maximality are
    checked by ``is_dirac`` (which must be able to return False on
    deliberately non-Dirac subspaces).
    """

    base_dim: int
    basis: np.ndarray
    _orthonormal: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.size == 0:
            b = b.reshape(0, 2 * self.base_dim)
        b = np.atleast_2d(b)
        if b.shape[1] != 2 * self.base_dim:
            raise DimensionMismatchError(
                f"basis rows must have length {2 * self.base_dim}, got {b.shape[1]}"
            )
        q = _orthonormal_rows(b)
        if q.shape[0] < b.shape[0]:
            raise DimensionMismatchError("basis rows are linearly dependent")
        q.flags.writeable = False
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "_orthonormal", q)

    @property
    def vector_part(self) -> np.ndarray:
        return self.basis[:, : self.base_dim]

    @property
    def covector_part(self) -> np.ndarray:
        return self.basis[:, self.base_dim :]

    def orthonormal(self) -> np.ndarray:
        return self._orthonormal


def graph_of_two_form(omega: TwoForm) -> LinearDiracStructure:
    """The graph D = {(v, Omega(v, .))}, always a Dirac structure.

    Basis row i is (e_i, Omega(e_i, .)) whose covector part is row i of the
    form matrix.
    """
    d = omega.dim
    return LinearDiracStructure(base_dim=d, basis=np.hstack([np.eye(d), omega.matrix]))


def is_dirac(structure: LinearDiracStructure, tol: float = 1e-10) -> bool:
    """True iff the subspace is isotropic under <<.,.>> and has dimension d."""
    d = structure.base_dim
    q = structure.orthonormal()
    if q.shape[0] != d:
        return False
    v, a = q[:, :d], q[:, d:]
    gram = v @ a.T + a @ v.T
    return float(np.max(np.abs(gram), initial=0.0)) <= tol


def membership_residual(structure: LinearDiracStructure, v: ArrayLike, alpha: ArrayLike) -> float:
    """Normalized least-squares distance of (v, alpha) from the subspace.

    Returns dist / (1 + ||(v, alpha)||), to be compared with a tolerance.
    """
    d = structure.base_dim
    v = np.asarray(v, dtype=float)
    alpha = np.asarray(alpha, dtype=float)
    if v.shape != (d,) or alpha.shape != (d,):
        raise DimensionMismatchError(
            f"expected vector and covector of length {d}, got {v.shape} and {alpha.shape}"
        )
    w = np.concatenate([v, alpha])
    q = structure.orthonormal()
    resid = w - q.T @ (q @ w) if q.shape[0] else w
    return float(np.linalg.norm(resid) / (1.0 + np.linalg.norm(w)))


def graph_residuals(m: np.ndarray, v: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """``membership_residual`` of rows (v, alpha) of length k + r against the graphs of forms m.

    ``m`` is a k-by-k antisymmetric matrix or a stack of them, extended by
    zero on the last r coordinates.  The nearest graph point (c, M^T c) has
    c = (I + M M^T)^-1 (v + M alpha) on the first k coordinates and c = v on
    the last r, which so add just |alpha|: no SVD and no structure per row.
    """
    m, v, alpha = (np.asarray(a, dtype=float) for a in (m, v, alpha))
    k = m.shape[-1]
    if m.shape[-2] != k or v.shape[-1] != alpha.shape[-1] or v.shape[-1] < k:
        raise DimensionMismatchError(f"forms {m.shape} do not fit rows {v.shape} and {alpha.shape}")
    vk, ak = v[..., :k], alpha[..., :k]
    a = np.eye(k) + m @ np.swapaxes(m, -1, -2)
    c = np.linalg.solve(a, (vk + np.einsum("...ij,...j->...i", m, ak))[..., None])[..., 0]
    gap = np.concatenate([vk - c, ak - np.einsum("...ji,...j->...i", m, c), alpha[..., k:]], axis=-1)
    return np.linalg.norm(gap, axis=-1) / (1.0 + np.linalg.norm(np.concatenate([v, alpha], axis=-1), axis=-1))


def _nullspace(m: np.ndarray, rtol: float = _RANK_RTOL) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of ``m``."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    return vt[_rank(s, rtol) :].T


def _pullback(psi: np.ndarray, pv: np.ndarray, pa: np.ndarray):
    """Vector and covector parts of a spanning set of B_psi(D'), D' spanned by the rows (pv, pa).

    (psi v, b) lies in D' iff psi v = pv^T c and b = pa^T c for some c, so the
    kernel of [psi | -pv^T] in (v, c) gives the rows (v, psi^T pa^T c).  The
    forward image is the same problem by duality: with sigma(v, a) = (a, v),
    F_psi(D) = sigma B_{psi^T}(sigma D).
    """
    m_in = psi.shape[1]
    null = _nullspace(np.hstack([psi, -pv.T]))
    return null[:m_in].T, null[m_in:].T @ pa @ psi


def backward(psi: np.ndarray, target: LinearDiracStructure) -> LinearDiracStructure:
    """Backward image of a structure on V' along a linear map psi: V -> V'.

    B_psi(D') = {(v, psi^T b) : (psi v, b) in D'}, from the kernel problem of
    ``_pullback``.  The result of a Dirac input is again Dirac.
    """
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    m_out, m_in = psi.shape
    if m_out != target.base_dim:
        raise DimensionMismatchError(
            f"map codomain dimension {m_out} does not match structure dimension {target.base_dim}"
        )
    vs, alphas = _pullback(psi, target.vector_part, target.covector_part)
    result = LinearDiracStructure(base_dim=m_in, basis=_orthonormal_rows(np.hstack([vs, alphas])))
    if is_dirac(target) and not is_dirac(result):
        raise DiracPropertyError("backward image of a Dirac structure failed the Dirac check")
    return result


def forward(psi: np.ndarray, source: LinearDiracStructure) -> LinearDiracStructure:
    """Forward image of a structure on V along a linear map psi: V -> V'.

    F_psi(D) = {(psi u, a) : (u, psi^T a) in D}: the backward image along
    psi^T of D with its parts swapped, swapped back (see ``_pullback``).
    """
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    m_out, m_in = psi.shape
    if m_in != source.base_dim:
        raise DimensionMismatchError(
            f"map domain dimension {m_in} does not match structure dimension {source.base_dim}"
        )
    alphas, vs = _pullback(psi.T, source.covector_part, source.vector_part)
    result = LinearDiracStructure(base_dim=m_out, basis=_orthonormal_rows(np.hstack([vs, alphas])))
    if is_dirac(source) and not is_dirac(result):
        raise DiracPropertyError("forward image of a Dirac structure failed the Dirac check")
    return result


def subspaces_equal(a: LinearDiracStructure, b: LinearDiracStructure, rtol: float = _RANK_RTOL) -> bool:
    """Mutual containment: the stacked orthonormal bases have the rank of either one."""
    if a.base_dim != b.base_dim:
        return False
    qa, qb = a.orthonormal(), b.orthonormal()
    if qa.shape[0] != qb.shape[0]:
        return False
    return _rank(np.linalg.svd(np.vstack([qa, qb]), compute_uv=False), rtol) == qa.shape[0]


def canonical_two_form(n: int) -> TwoForm:
    """The canonical symplectic form dx^i wedge dp_i on R^{2n} = (x, p)."""
    return pontryagin_two_form(n, 0)


def _pontryagin_matrix(b: np.ndarray, r: int = 0) -> np.ndarray:
    """[[B, I, 0], [-I, 0, 0], [0, 0, 0]] for B of shape (..., d, d), with an r-dimensional last block."""
    d = b.shape[-1]
    m = np.zeros(b.shape[:-2] + (2 * d + r, 2 * d + r))
    m[..., :d, :d] = b
    m[..., :d, d : 2 * d] = np.eye(d)
    m[..., d : 2 * d, :d] = -np.eye(d)
    return m


def pontryagin_two_form(n: int, r: int) -> TwoForm:
    """The presymplectic form on a (x, p, u) fiber: dx^i wedge dp_i, degenerate on u.

    Its graph is the local Dirac structure with v_x = p_p, v_p = -p_x, p_u = 0:
    ``reduced_dirac_fiber``'s form for the abelian algebra R^n (B = 0).
    """
    return TwoForm(_pontryagin_matrix(np.zeros((n, n)), r))


def pontryagin_projection(n: int, r: int) -> np.ndarray:
    """The linear projection (v_x, v_p, v_u) -> (v_x, v_p) of a Pontryagin fiber."""
    return np.hstack([np.eye(2 * n), np.zeros((2 * n, r))])


def reduced_dirac_fiber(alg: LieAlgebraSpec, lam, r: int = 0) -> LinearDiracStructure:
    """The reduced Dirac fiber at a coalgebra point, on V = g (+) g* (+) U with dim U = r.

    It is the graph of the presymplectic form

        w_lam((xi, rho, v), (zeta, sigma, w))
            = <sigma, xi> - <rho, zeta> + <lam, [xi, zeta]>,

    degenerate on the control directions U like ``pontryagin_two_form``.  Its
    matrix in (algebra, coalgebra, control) block coordinates is
    [[B(lam), I, 0], [-I, 0, 0], [0, 0, 0]] with B_ij = sum_k c[i][j][k] lam_k.
    Membership of ((xi, mu_dot, 0), (0, dh_dmu, dh_du)) is equivalent to the
    Lie-Poisson equations xi = dh_dmu, mu_dot = ad*_xi(lam), together with
    the stationarity dh_du = 0.
    """
    return graph_of_two_form(TwoForm(_pontryagin_matrix(_lie_poisson_form(alg, _coeffs(lam, alg.dim)), r)))
