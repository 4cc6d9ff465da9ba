"""Geometric optimal control with symmetry reduction.

Regular optimal control problems are solved through their first-order
maximum-principle conditions, formulated three equivalent ways: as Hamilton
equations with Newton-eliminated controls, as membership in a linear Dirac
structure, and (for group-invariant problems) as reduced Lie-Poisson dynamics
with exponential reconstruction of the group trajectory.  The Heisenberg-group
subriemannian geodesic problem ships as the builtin worked example.
"""

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    DiracPropertyError,
    EvaluationError,
    InvalidAlgebraError,
    NonNilpotentError,
    PontrylieError,
    RegularityError,
    ReductionUnsupportedError,
    TrajectoryFormatError,
)
from .lie import (
    GroupElement,
    LieAlgebraSpec,
    bracket,
    coadjoint,
    exp_nilpotent,
    left_invariant_frame,
    log_nilpotent,
)
from .dirac import (
    LinearDiracStructure,
    TwoForm,
    backward,
    canonical_two_form,
    forward,
    graph_of_two_form,
    is_dirac,
    membership_residual,
    pontryagin_projection,
    pontryagin_two_form,
    reduced_dirac_fiber,
    subspaces_equal,
)
from .ocp import (
    ControlProblem,
    PontryaginPoint,
    ProblemJacobians,
    SymmetryHandle,
    check_invariance,
    constant,
    hamiltonian_partials,
    left_translations,
    stacked,
)
from .pmp import (
    PmpSolverConfig,
    Trajectory,
    dirac_membership_residuals,
    integrate_pmp,
    lagrange_pontryagin_action,
    momentum_map,
    optimal_feedback,
)
from .reduction import (
    ReducedProblem,
    ReducedState,
    eliminate_controls_reduced,
    integrate_reduced,
    project_full_to_reduced,
    reduced_dirac_residuals,
    reduced_pmp_rhs,
)
from .reconstruct import (
    audit_geodesic_forms,
    chart_trajectory,
    heisenberg_geodesic_oracle,
    reconstruct_group,
)

__version__ = "0.1.0"
