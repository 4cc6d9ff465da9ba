"""Central finite-difference helpers shared by the derivative fallbacks.

Each takes a point v of shape (..., m), leading axes indexing members of a
stack, and a function of such stacks; every member is differenced exactly as
it would be on its own.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def fd_jacobian(fun: Callable, v: np.ndarray, step: float) -> np.ndarray:
    """Central differences of a vector function (..., m) -> (..., k), step scaled by 1 + |coordinate|.

    The result has shape (..., k, m): rows index outputs.
    """
    if not v.shape[-1]:
        return np.zeros(np.shape(fun(v)) + (0,))
    hs = step * (1.0 + np.abs(v))
    e = hs[..., None, :] * np.eye(v.shape[-1])  # e[..., a, :] shifts coordinate a by hs[..., a]
    return np.stack([
        (np.asarray(fun(v + e[..., a, :]), dtype=float) - np.asarray(fun(v - e[..., a, :]), dtype=float))
        / (2.0 * hs[..., a, None])
        for a in range(v.shape[-1])
    ], axis=-1)


def fd_gradient(fun: Callable, v: np.ndarray, step: float) -> np.ndarray:
    """Central differences of a scalar function (``fd_jacobian`` of its one output)."""
    return fd_jacobian(lambda w: np.asarray(fun(w), dtype=float)[..., None], v, step)[..., 0, :]


def fd_hessian_direct(fun: Callable, v: np.ndarray, step: float) -> np.ndarray:
    """Hessian by direct second differences of a scalar function.

    Uses a step of sqrt(step) scaling so the second-difference roundoff noise
    stays well below typical rank tolerances.
    """
    m = v.shape[-1]
    w = np.empty(v.shape + (m,))
    hs = np.sqrt(step) * (1.0 + np.abs(v))
    e = np.moveaxis(hs[..., None, :] * np.eye(m), -2, 0)  # e[a] shifts coordinate a by hs[..., a]
    f0 = fun(v)
    for a in range(m):
        w[..., a, a] = (fun(v + e[a]) - 2.0 * f0 + fun(v - e[a])) / hs[..., a] ** 2
        for b in range(a + 1, m):
            cross = fun(v + e[a] + e[b]) - fun(v + e[a] - e[b]) - fun(v - e[a] + e[b]) + fun(v - e[a] - e[b])
            w[..., a, b] = w[..., b, a] = cross / (4.0 * hs[..., a] * hs[..., b])
    return w
