import inspect

import radialwave as rw

# what the commands run, and what they are built from; the whole-grid
# reference paths the tests compare against live in the tests' oracle modules
KEPT = {
    # grid
    "BAD", "DR", "DT", "GOOD", "SCALING", "GridSpec", "GridTooSmallError", "ParityError",
    "SpaceTimeField", "box_conjugate", "derivative", "null_form", "z_words",
    # regions
    "DyadicRegion", "bracket", "dyadic_scales", "sigma_U", "sigma_U_prime",
    # norms
    "NormBreakdown", "NormSpecError", "WeightSpec", "a_functional", "m_functional",
    # solver
    "BlowUpSuspected", "CflError", "InitialData", "SolveConfig", "SolutionHistory", "bump",
    "calibrate", "config_hash", "nonlinearity", "poly_bump", "smallness_sum", "solve",
    "solve_linear_forced", "zero_profile",
    # estimates
    "EstimateReport", "IdentityReport", "check_hardy", "check_identity_minus",
    "check_identity_plus", "check_le", "check_mr", "check_newle",
    "check_second_derivative_ks", "check_spacetime_ks",
    # picard
    "IterationRecord", "NonContraction", "PicardConfig", "check_boundedness", "decay_run",
    "fit_decay", "run_iteration",
}


def test_public_names_are_the_kept_set():
    names = {name for name in dir(rw)
             if not name.startswith("_") and not inspect.ismodule(getattr(rw, name))}
    assert names == KEPT, (sorted(names - KEPT), sorted(KEPT - names))
