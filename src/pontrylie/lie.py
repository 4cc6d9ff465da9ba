"""Finite-dimensional Lie algebra and nilpotent matrix group machinery.

An algebra is described by its structure constants c[i][j][k], meaning

    [e_i, e_j] = sum_k c[i][j][k] e_k

in a fixed basis.  Elements of the algebra and its dual are plain coefficient
vectors in that basis and the dual basis respectively.

Sign convention (fixed package-wide, conventions differ across texts):

    <ad*_xi(lam), zeta> = <lam, [xi, zeta]>

With this choice the Lie-Poisson evolution used by the reduction module is
``mu_dot = +ad*_xi(mu)``; for the Heisenberg algebra that reads
``mu1_dot = -mu3*xi2, mu2_dot = +mu3*xi1, mu3_dot = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Optional, Sequence, Union

import numpy as np

from .errors import DimensionMismatchError, EvaluationError, InvalidAlgebraError, NonNilpotentError

Coeffs = Union[np.ndarray, Sequence[float], "AlgebraElement", "CoalgebraElement"]

_STRUCTURE_TOL = 1e-12


@dataclass(frozen=True)
class LieAlgebraSpec:
    """A Lie algebra given by structure constants and an optional matrix realization.

    Validated on construction: antisymmetry of c in its first two indices, the
    Jacobi identity, and (if ``matrix_basis`` is present) that the matrices
    are linearly independent and their commutators reproduce the structure
    constants entrywise to 1e-12.
    """

    dim: int
    structure_constants: np.ndarray
    matrix_basis: Optional[tuple] = None
    labels: Optional[tuple] = None

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidAlgebraError("algebra dimension must be positive")
        c = np.asarray(self.structure_constants, dtype=float)
        if c.shape != (self.dim, self.dim, self.dim):
            raise InvalidAlgebraError(
                f"structure constants must have shape {(self.dim,) * 3}, got {c.shape}"
            )
        object.__setattr__(self, "structure_constants", c)
        if np.max(np.abs(c + np.swapaxes(c, 0, 1))) > _STRUCTURE_TOL:
            raise InvalidAlgebraError("structure constants are not antisymmetric in (i, j)")
        # Jacobi: sum_m c[i,j,m] c[m,k,l] + cyclic in (i,j,k) must vanish.
        jac = (
            np.einsum("ijm,mkl->ijkl", c, c)
            + np.einsum("jkm,mil->ijkl", c, c)
            + np.einsum("kim,mjl->ijkl", c, c)
        )
        if np.max(np.abs(jac)) > _STRUCTURE_TOL:
            raise InvalidAlgebraError(
                f"Jacobi identity violated, max residual {np.max(np.abs(jac)):.3e}"
            )
        if self.matrix_basis is not None:
            mats = tuple(np.asarray(m, dtype=float) for m in self.matrix_basis)
            if len(mats) != self.dim:
                raise InvalidAlgebraError("matrix_basis must contain one matrix per basis element")
            m0 = mats[0].shape
            if len(m0) != 2 or m0[0] != m0[1] or any(m.shape != m0 for m in mats):
                raise InvalidAlgebraError("matrix_basis entries must be square and equally sized")
            for i in range(self.dim):
                for j in range(self.dim):
                    comm = mats[i] @ mats[j] - mats[j] @ mats[i]
                    expected = sum(c[i, j, k] * mats[k] for k in range(self.dim))
                    if np.max(np.abs(comm - expected)) > _STRUCTURE_TOL:
                        raise InvalidAlgebraError(
                            f"matrix commutator [e_{i}, e_{j}] disagrees with structure constants"
                        )
            if np.linalg.matrix_rank(np.stack(mats).reshape(self.dim, -1)) < self.dim:
                raise InvalidAlgebraError("matrix_basis entries are linearly dependent")
            object.__setattr__(self, "matrix_basis", mats)
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != self.dim:
                raise InvalidAlgebraError("labels length must equal dim")
            object.__setattr__(self, "labels", labels)

    @property
    def matrix_size(self) -> int:
        if self.matrix_basis is None:
            raise InvalidAlgebraError("algebra has no matrix realization")
        return self.matrix_basis[0].shape[0]


@dataclass(frozen=True)
class _Coefficients:
    """A flat float coefficient vector."""

    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.atleast_1d(np.asarray(self.coeffs, dtype=float)))

    def __array__(self, dtype=None, copy=None):
        return np.asarray(self.coeffs, dtype=dtype)

    def __len__(self) -> int:
        return self.coeffs.shape[0]


class AlgebraElement(_Coefficients):
    """An algebra element as a coefficient vector in the chosen basis."""


class CoalgebraElement(_Coefficients):
    """A dual-space element as a coefficient vector in the dual basis."""


@dataclass(frozen=True)
class GroupElement:
    """A group element realized as a square real matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatchError(f"group element matrix must be square, got {m.shape}")
        object.__setattr__(self, "matrix", m)

    def is_unitriangular(self, tol: float = 1e-12) -> bool:
        """Ones on the diagonal and zeros below it, within tol."""
        m = self.matrix
        if np.max(np.abs(np.diag(m) - 1.0)) > tol:
            return False
        return np.max(np.abs(np.tril(m, k=-1))) <= tol


def _coeffs(x: Coeffs, dim: int) -> np.ndarray:
    """Coerce to a flat float vector of length ``dim``."""
    if isinstance(x, _Coefficients):
        v = x.coeffs
    else:
        v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (dim,):
        raise DimensionMismatchError(f"expected coefficient vector of length {dim}, got shape {v.shape}")
    return v


def bracket(alg: LieAlgebraSpec, xi: Coeffs, zeta: Coeffs) -> AlgebraElement:
    """Lie bracket [xi, zeta] in basis coordinates."""
    a = _coeffs(xi, alg.dim)
    b = _coeffs(zeta, alg.dim)
    return AlgebraElement(np.einsum("ijk,i,j->k", alg.structure_constants, a, b))


def pairing(lam: Coeffs, xi: Coeffs) -> float:
    """Natural pairing <lam, xi> between the dual and the algebra."""
    a = np.atleast_1d(np.asarray(lam, dtype=float))
    b = np.atleast_1d(np.asarray(xi, dtype=float))
    if a.shape != b.shape:
        raise DimensionMismatchError(f"pairing length mismatch: {a.shape} vs {b.shape}")
    return float(a @ b)


def coadjoint(alg: LieAlgebraSpec, xi: Coeffs, lam: Coeffs) -> CoalgebraElement:
    """Coadjoint action ad*_xi(lam), with <ad*_xi(lam), zeta> = <lam, [xi, zeta]>.

    Component k is sum_{i,j} xi_i c[i][k][j] lam_j, that is -(B(lam) xi)_k with B from ``_lie_poisson_form``.
    """
    return CoalgebraElement(-(_lie_poisson_form(alg, _coeffs(lam, alg.dim)) @ _coeffs(xi, alg.dim)))


def _lie_poisson_form(alg: LieAlgebraSpec, mu: np.ndarray) -> np.ndarray:
    """B(mu)_ij = sum_k c_ijk mu_k for mu of shape (..., dim): the Lie-Poisson bracket as a (..., dim, dim) form."""
    dim = alg.dim
    return (mu @ alg.structure_constants.reshape(dim * dim, dim).T).reshape(mu.shape[:-1] + (dim, dim))


def exp_nilpotent(alg: LieAlgebraSpec, xi: Coeffs) -> GroupElement:
    """Matrix exponential of a nilpotent algebra element by truncated power series.

    The series is summed through order dim + 1; if the next term does not
    vanish (Frobenius norm above 1e-12) the algebra element is rejected as
    non-nilpotent.  General matrix exponentials are out of scope.
    """
    return GroupElement(_exp_series(alg, _coeffs(xi, alg.dim)))


def _exp_series(alg: LieAlgebraSpec, xi: np.ndarray) -> np.ndarray:
    """``exp_nilpotent`` of coefficient rows (..., dim) as matrices (..., m, m), each tail checked.

    A non-finite coefficient is refused before any arithmetic, naming its index.
    """
    size = alg.matrix_size
    xi = np.asarray(xi, dtype=float)
    bad = np.argwhere(~np.isfinite(xi))
    if bad.size:
        index = tuple(int(i) for i in bad[0])
        raise EvaluationError(
            f"exponential of a non-finite algebra element: coefficient xi{list(index)} is {xi[index]}"
        )
    x = np.tensordot(xi, np.stack(alg.matrix_basis), axes=1)
    term = result = np.broadcast_to(np.eye(size), x.shape)
    for k in range(1, alg.dim + 2):
        term = term @ x / k
        result = result + term
        if not np.any(term):
            return result
    tail = np.linalg.norm(term @ x / (alg.dim + 2), axis=(-2, -1))
    if not np.all(tail <= 1e-12):  # also rejects terms that overflowed
        raise NonNilpotentError(
            f"exponential series did not terminate after {alg.dim + 1} terms "
            f"(next term has norm {np.max(tail):.3e})"
        )
    return result


def log_nilpotent(alg: LieAlgebraSpec, g: Union[GroupElement, np.ndarray]) -> np.ndarray:
    """Exponential coordinates of the first kind: the inverse of ``exp_nilpotent``.

    ``g`` is a group element or a stack of matrices of shape (..., m, m); the
    result has shape (..., dim).  With n = g - 1 the series
    log(1 + n) = n - n^2/2 + n^3/3 - ... ends once n^m = 0, and the logarithm
    is expanded in the matrix basis.  A matrix that is not unipotent (a
    non-finite entry is checked first), or whose logarithm leaves the span of
    the basis, is rejected.
    """
    size = alg.matrix_size
    m = np.asarray(g.matrix if isinstance(g, GroupElement) else g, dtype=float)
    if m.ndim < 2 or m.shape[-2:] != (size, size):
        raise DimensionMismatchError(f"expected {size}x{size} matrices, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise DimensionMismatchError("matrix has a non-finite entry, so it is not unipotent")
    n = m.reshape(-1, size, size) - np.eye(size)
    log, power = n, n
    for k in range(2, size + 1):
        power = power @ n
        log = log + ((-1) ** (k + 1) / k) * power
    flat, b = log.reshape(-1, size * size), np.stack(alg.matrix_basis).reshape(alg.dim, -1)
    coords = np.linalg.solve(b @ b.T, b @ flat.T).T
    # roundoff in the powers of n grows like |n|^m
    tol = _STRUCTURE_TOL * (1.0 + np.max(np.abs(flat), axis=1, initial=0.0)) ** size
    off = np.max(np.abs(power.reshape(flat.shape)) + np.abs(coords @ b - flat), axis=1, initial=0.0)
    if not np.all(np.isfinite(tol) & (off <= tol)):
        raise DimensionMismatchError("matrix is not unipotent or its logarithm is not in the span of the basis")
    return coords.reshape(m.shape[:-2] + (alg.dim,))


@lru_cache(maxsize=None)
def _psi_coefficients(count: int) -> tuple:
    """Taylor coefficients of psi(z) = z / (1 - e^-z) through z^(count - 1), from (1 - e^-z)/z * psi = 1."""
    a = [1.0]
    for k in range(1, count):
        a.append(-sum(a[j] * (-1) ** (k - j) / factorial(k + 1 - j) for j in range(k)))
    return tuple(a)


def left_invariant_frame(alg: LieAlgebraSpec, x) -> np.ndarray:
    """Left-invariant basis fields at exponential coordinates x of shape (..., dim).

    Column j of the (..., dim, dim) result is the field of e_j at exp(x), psi(ad_x) e_j with
    psi(z) = z / (1 - e^-z) = 1 + z/2 + z^2/12 - ...  In a nilpotent algebra ad_x^dim = 0, so the
    dim terms summed here are the whole series.  Inversion is x -> -x, so the right-invariant
    fields at x are the left-invariant ones at -x.
    """
    dim, x = alg.dim, np.asarray(x, dtype=float)
    # ad_t[..., j, k] = [x, e_j]_k, the transpose of ad_x, from one matmul
    ad_t = (x @ alg.structure_constants.reshape(dim, -1)).reshape(x.shape[:-1] + (dim, dim))
    c = _psi_coefficients(dim + 1)
    term, frame = ad_t, np.eye(dim) + c[1] * ad_t
    for k in range(2, dim):
        term = term @ ad_t
        frame = frame + c[k] * term
    return np.swapaxes(frame, -1, -2)


def _is_nilpotent(alg: LieAlgebraSpec) -> bool:
    """True iff the lower central series g, [g, g], [g, [g, g]], ... reaches 0."""
    span = np.eye(alg.dim)  # orthonormal rows spanning the current term
    for _ in range(alg.dim):
        brackets = np.einsum("ijk,mj->imk", alg.structure_constants, span).reshape(-1, alg.dim)
        _, s, vt = np.linalg.svd(brackets, full_matrices=False)
        span = vt[: int(np.sum(s > _STRUCTURE_TOL * np.max(s, initial=1.0)))]
    return not span.size


def algebra_from_dict(data: dict) -> LieAlgebraSpec:
    """Build a LieAlgebraSpec from its JSON form.

    ``{"dim": d, "structure": [[i, j, k, value], ...], "matrix_basis": [...]}``
    with 0-based indices; only the (i, j) entries with i < j need to be given,
    the antisymmetric counterparts are filled in automatically when absent.
    """
    dim = int(data["dim"])
    c = np.zeros((dim, dim, dim))
    for entry in data.get("structure", []):
        i, j, k, value = entry
        i, j, k = int(i), int(j), int(k)
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise InvalidAlgebraError(f"structure index out of range in {entry!r}")
        c[i, j, k] = float(value)
    # fill antisymmetric counterparts that were left implicit
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if c[i, j, k] != 0.0 and c[j, i, k] == 0.0:
                    c[j, i, k] = -c[i, j, k]
    basis = data.get("matrix_basis")
    mats = tuple(np.asarray(m, dtype=float) for m in basis) if basis is not None else None
    labels = tuple(data["labels"]) if "labels" in data else None
    return LieAlgebraSpec(dim=dim, structure_constants=c, matrix_basis=mats, labels=labels)
