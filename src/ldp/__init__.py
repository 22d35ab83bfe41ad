"""Numerical toolkit for Lévy-operator Hamiltonians, convex conjugates,
large-deviations rate functions, Hamilton-Jacobi viscosity solutions, and
domain-truncation experiments for nonlocal parabolic equations."""

from .errors import (BelowRange, CFLViolation, DomainViolation,
                     InsufficientData, LdpError, MajorizationUnavailable,
                     NonConvergence, Saturated, TruncationTooSmall,
                     UnsupportedKernel, ValidationError)
from .kernels import (Kernel, build_kernel, is_essentially_ordered,
                      kernel_from_dict, load_kernel, scaled_kernel,
                      tail_reach)
from .hamiltonian import Hamiltonian, HamiltonianParams, eval_h, eval_h_ess
from .conjugate import (ConjugateResult, Lagrangian, conjugate, k_inverse,
                        k_transform)
from .rate import RateResult, lax_oleinik, predict_log_bound, rate_iinf
from .fields import Field, FieldHistory
from .hj import HJGrid, lax_oleinik_field, solve_hj, solve_hj_constrained
from .pde import (FitResult, SimConfig, SweepRecord, empirical_rate,
                  fit_rate, run_sweep, simulate, sup_difference)

__version__ = "0.1.0"
