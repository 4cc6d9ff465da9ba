"""Exception hierarchy shared by all pontrylie modules."""

from __future__ import annotations


class PontrylieError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatchError(PontrylieError, ValueError):
    """An argument has the wrong length or shape for the owning object."""


class InvalidAlgebraError(PontrylieError, ValueError):
    """Structure constants violate antisymmetry, Jacobi, or the matrix realization."""


class NonNilpotentError(PontrylieError):
    """Exponential series did not terminate within the allowed number of terms."""


class EvaluationError(PontrylieError):
    """A dynamics/Lagrangian/Hamiltonian evaluation produced a non-finite value.

    Carries the probe point so the failure can be reproduced, the index of
    the failing member of the stack evaluated (None when unknown) and, from
    an integration, the time (nan when unknown).
    """

    def __init__(self, message: str, point=None, t: float = float("nan"), member=None):
        super().__init__(message)
        self.point = point
        self.t = t
        self.member = member


class SolverError(PontrylieError):
    """A control solve failed.

    Carries the last residual norm, the time (nan when unknown), the
    (q, lam) state row where Newton failed (None when unknown) and the index
    of the failing member of a batch (None when unknown).
    """

    def __init__(self, message: str, residual: float = float("nan"), t: float = float("nan"), state=None,
                 member=None):
        super().__init__(message)
        self.residual = residual
        self.t = t
        self.state = state
        self.member = member


class ConvergenceError(SolverError):
    """Newton iteration exhausted its budget."""


class RegularityError(SolverError):
    """The control Hessian is (numerically) singular where it must be invertible."""


class ExprEvaluationError(PontrylieError, ArithmeticError):
    """Runtime failure (division by zero, domain error) of an expression; carries the node offset and, from an
    integration, the time (nan when unknown) and the failing member's flat index (None when unknown)."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos, self.t, self.member = pos, float("nan"), None


class DiracPropertyError(PontrylieError):
    """An image of a Dirac structure along a linear map is not Dirac."""


class ReductionUnsupportedError(PontrylieError):
    """The problem lacks the trivialization data needed to reduce it."""


class TrajectoryFormatError(PontrylieError, ValueError):
    """A trajectory file or in-memory trajectory violates the expected layout."""
