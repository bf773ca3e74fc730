"""Solvers for multilinear equations ``A x^{m-1} = b`` with M-tensor
coefficients.

The package provides tensor storage with the contraction kernels, a
feasibility-preserving damped Newton solver for positive right-hand sides,
an extended variant for right-hand sides with zeros, a feasible-point
initializer, seeded benchmark generators, and a command-line front end
(``mteq solve|gen|verify|bench``).
"""

from .initializer import (InitializationError, InitialPoint, find_certificate,
                          initial_point, jacobi_step)
from .linalg import SingularMatrixError, lu_solve
from .model import (AssumptionReport, IndexPartition, MTeqProblem,
                    SolverConfig, check_assumption, feasibility_slack,
                    in_feasible_split, make_problem, partition_indices,
                    residual, residual_jacobian, scale_problem,
                    zero_block_threshold)
from .problems import (gen_problem1, gen_problem2, gen_problem3, gen_problem4,
                       gen_problem5, write_problem, zero_out_rhs)
from .report import (IterationRecord, SolveReport, SolveStatus,
                     estimate_order, write_trace_csv)
from .solver_basic import (line_search_basic, newton_direction,
                           solve_positive, trial_scale)
from .solver_extended import line_search_extended, solve_nonnegative
from .tensor import (FormatError, Tensor, dense_cap, hadamard_power,
                     m_splitting, nqz_spectral_radius, read_tensor,
                     read_vector, write_tensor, write_vector)

__version__ = "0.1.0"
