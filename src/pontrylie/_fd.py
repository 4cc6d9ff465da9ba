"""Central finite-difference helpers shared by the derivative fallbacks."""

from __future__ import annotations

from typing import Callable

import numpy as np


def fd_jacobian(fun: Callable, v: np.ndarray, step: float) -> np.ndarray:
    """Central differences of a vector function, step scaled by 1 + |coordinate|; rows index outputs."""
    if not v.shape[0]:
        return np.zeros((np.asarray(fun(v)).shape[0], 0))
    hs = step * (1.0 + np.abs(v))
    return np.column_stack([
        (np.asarray(fun(v + e), dtype=float) - np.asarray(fun(v - e), dtype=float)) / (2.0 * h)
        for h, e in zip(hs, np.diag(hs))
    ])


def fd_gradient(fun: Callable, v: np.ndarray, step: float) -> np.ndarray:
    """Central differences of a scalar function (``fd_jacobian`` of its one output)."""
    return fd_jacobian(lambda w: [fun(w)], v, step)[0]


def fd_hessian_from_gradient(grad_fun: Callable, v: np.ndarray, step: float) -> np.ndarray:
    """Hessian as central differences of a (possibly analytic) gradient; symmetrized."""
    h = fd_jacobian(grad_fun, v, step)
    return 0.5 * (h + h.T)


def fd_hessian_direct(fun: Callable, v: np.ndarray, step: float) -> np.ndarray:
    """Hessian by direct second differences of a scalar function.

    Uses a step of sqrt(step) scaling so the second-difference roundoff noise
    stays well below typical rank tolerances.
    """
    m = v.shape[0]
    w = np.empty((m, m))
    hs = np.sqrt(step) * (1.0 + np.abs(v))
    e = np.diag(hs)  # e[a] shifts coordinate a by hs[a]
    f0 = fun(v)
    for a in range(m):
        w[a, a] = (fun(v + e[a]) - 2.0 * f0 + fun(v - e[a])) / hs[a] ** 2
        for b in range(a + 1, m):
            cross = fun(v + e[a] + e[b]) - fun(v + e[a] - e[b]) - fun(v - e[a] + e[b]) + fun(v - e[a] - e[b])
            w[a, b] = w[b, a] = cross / (4.0 * hs[a] * hs[b])
    return w
