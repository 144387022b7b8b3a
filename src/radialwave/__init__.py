"""Numerical laboratory for a coupled radial semilinear wave system.

Layers: ``grid`` (fields and vector-field calculus), ``regions`` (sharp
dyadic regions as per-row intervals), ``norms`` (weighted mixed norms and the
iteration functionals), ``solver`` (RK4 evolution and the characteristic
linear solve), ``estimates`` (identity and estimate checks), ``picard``
(fixed-point driver on the iterate differences, boundedness, decay fits),
``cli`` (command-line front end).  The package exports what its commands
run; the whole-grid reference paths the tests compare against live in the
tests' oracle modules.
"""

from .grid import (
    BAD, DR, DT, GOOD, SCALING, GridSpec, GridTooSmallError, ParityError,
    SpaceTimeField, box_conjugate, derivative, null_form, z_words,
)
from .regions import DyadicRegion, bracket, dyadic_scales, sigma_U, sigma_U_prime
from .norms import (
    NormBreakdown, NormSpecError, WeightSpec, a_functional, m_functional,
)
from .solver import (
    BlowUpSuspected, CflError, InitialData, SolveConfig, SolutionHistory,
    bump, calibrate, config_hash, nonlinearity, poly_bump, smallness_sum, solve,
    solve_linear_forced, zero_profile,
)
from .estimates import (
    EstimateReport, IdentityReport, check_hardy, check_identity_minus,
    check_identity_plus, check_le, check_mr, check_newle,
    check_second_derivative_ks, check_spacetime_ks,
)
from .picard import (
    IterationRecord, NonContraction, PicardConfig, check_boundedness,
    decay_run, fit_decay, run_iteration,
)

__version__ = "0.1.0"
