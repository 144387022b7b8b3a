"""Numerical laboratory for a coupled radial semilinear wave system.

Layers: ``grid`` (fields and vector-field calculus), ``regions`` (sharp
dyadic regions as per-row intervals), ``norms`` (weighted mixed norms and the
iteration functionals), ``solver`` (RK4 evolution plus the closed-form
oracle), ``estimates`` (identity and estimate checks), ``picard`` (fixed-point
driver, boundedness, decay fits), ``cli`` (command-line front end).
"""

from .grid import (
    BAD, DR, DT, GOOD, SCALING, GridSpec, GridTooSmallError, ParityError,
    SpaceTimeField, apply_word, apply_z_multi, box_conjugate,
    conjugate_to_scalar, dalembertian, derivative, null_form, quotient_by_r,
    raw_form, z_words,
)
from .regions import (
    DyadicRegion, RegionMask, bracket, dyadic_scales, enumerate_regions,
    realize_mask, sigma_U, sigma_U_prime, slab_mask,
)
from .norms import (
    MixedNormSpec, NormBreakdown, NormSpecError, WeightSpec, a_functional,
    le1_norm, le_norm, m_functional, mixed_norm, region_l2l2, spatial_l2,
    spatial_sup,
)
from .solver import (
    BlowUpSuspected, CflError, InitialData, SolveConfig, SolutionHistory,
    bump, calibrate, config_hash, dalembert_history, exact_dalembert,
    nonlinearity, poly_bump, smallness_sum, solve, solve_linear_forced,
    zero_profile,
)
from .estimates import (
    EstimateReport, IdentityReport, box_scalar, check_hardy,
    check_identity_minus, check_identity_plus, check_le, check_mr,
    check_newle, check_second_derivative_ks, check_spacetime_ks,
    check_weighted_sobolev, observed_order, scaling_identity_residual,
)
from .picard import (
    IterationRecord, NonContraction, PicardConfig, check_boundedness,
    decay_run, fit_decay, run_iteration,
)

__version__ = "0.1.0"
