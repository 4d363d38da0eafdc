"""Classical numerical linear algebra substrate.

The paper's hybrid solver keeps several classical responsibilities on the CPU:
computing residuals, updating the solution, estimating the condition number
used to size the polynomial approximation, factorising matrices for the
classical baselines, and generating the test problems of Sec. IV (random
matrices with a prescribed condition number, the 1-D Poisson matrix).  All of
those building blocks live here and are written from scratch on top of numpy;
the structured operators hand their sparse products and banded solves to
scipy's compiled kernels.
"""

from .norms import (
    forward_error,
    relative_forward_error,
    scaled_residual,
    spectral_norm,
)
from .generators import (
    poisson_1d_matrix,
    poisson_2d_matrix,
    random_matrix_with_condition_number,
    random_rhs,
    random_spd_matrix,
    random_unitary,
    tridiagonal_toeplitz,
)
from .lu import LUFactorization, lu_factor, lu_solve
from .triangular import solve_lower_triangular, solve_upper_triangular
from .qr import householder_qr, solve_least_squares
from .cholesky import cholesky_factor, cholesky_solve
from .cond import condition_number, estimate_condition_number, estimate_spectral_norm
from .iterative import conjugate_gradient, jacobi, power_iteration
from .tridiagonal import thomas_solve
from .operators import (
    BandedOperator,
    CSROperator,
    DiagonalShiftOperator,
    KroneckerSumOperator,
    StructuredOperator,
    is_structured_operator,
    operator_from_state,
)

__all__ = [
    "StructuredOperator",
    "BandedOperator",
    "CSROperator",
    "KroneckerSumOperator",
    "DiagonalShiftOperator",
    "is_structured_operator",
    "operator_from_state",
    "spectral_norm",
    "scaled_residual",
    "forward_error",
    "relative_forward_error",
    "random_matrix_with_condition_number",
    "random_spd_matrix",
    "random_unitary",
    "random_rhs",
    "poisson_1d_matrix",
    "poisson_2d_matrix",
    "tridiagonal_toeplitz",
    "LUFactorization",
    "lu_factor",
    "lu_solve",
    "solve_lower_triangular",
    "solve_upper_triangular",
    "householder_qr",
    "solve_least_squares",
    "cholesky_factor",
    "cholesky_solve",
    "condition_number",
    "estimate_condition_number",
    "estimate_spectral_norm",
    "conjugate_gradient",
    "jacobi",
    "power_iteration",
    "thomas_solve",
]
