"""Test oracles for the estimate-ratio checks.

``check_hardy``, ``check_le``, ``check_mr`` and ``check_newle`` are copies of
the whole-grid checks that the streamed ones replaced: every derivative is an
array of the grid's size (``derivative``, ``box_scalar``, ``quotient_by_r``)
and every norm one reduction of it.  The streamed checks must reproduce every
slot in ``repr``, except ``check_le``'s forcing, which the copy integrates as
``wt @ integrand @ wr`` and the streamed check as row sums, then the trapezoid
in t (1e-15 relative).  ``interval_l2`` and ``data_l2`` are the region and
t = 0 norms the copies use.

``spatial_l2`` (every row's L2 norm), ``region_l2l2`` (the L2L2 norm on a
sharp dense mask), ``le_norm`` (the local energy norm of a whole-grid field)
and ``le1_norm`` (||(du, u/r)||_LE, streamed) reduce through the norms' own
row sums; ``observed_order`` is the refinement order of two residuals.

``box_decomposition_residual`` checks the product rule behind ``box_scalar``
on whole-grid derivatives.
"""

import numpy as np

from radialwave.estimates import EstimateReport, _conjugate, box_scalar
from radialwave.grid import BAD, DR, DT, GOOD, SpaceTimeField, _trapz_weights, _wave2, \
    derivative, quotient_by_r
from radialwave.norms import (
    FOUR_PI, WeightSpec, _annuli, _le_reduce, _le_rows, _norm, _row_sums, _stream,
    _window_pos, mixed_norm,
)
from radialwave.regions import (
    CORE, R_KIND, STRIP, U_KIND, DyadicRegion, _intervals, bracket, dyadic_scales,
)


def spatial_l2(f: SpaceTimeField, weight: WeightSpec = WeightSpec()) -> np.ndarray:
    """||w f(t, .)||_{L^2(dx)} for every time level, each row reduced on its own."""
    return np.sqrt(_row_sums(f.values, f.grid, weight)[1])


def region_l2l2(f: SpaceTimeField, weight: WeightSpec, mask: np.ndarray) -> float:
    """L2L2 norm of ``f`` on a sharp 0/1 mask that broadcasts to the grid."""
    mask = np.broadcast_to(mask, f.grid.shape())
    if not np.all((mask == 0) | (mask == 1)):
        raise ValueError("region_l2l2 takes a sharp mask: every value 0 or 1")
    return _norm(f.values, f.grid, "L2", weight, np.flatnonzero(mask))


def le_norm(f: SpaceTimeField) -> float:
    """sup over dyadic R >= 1 of R^{-1/2} ||f||_{L2L2(A_R)}."""
    return _le_reduce([_le_rows(f.values, f.grid, _annuli(f.grid))], f.grid)


def le1_norm(f: SpaceTimeField) -> float:
    """||(du, u/r)||_LE, from the (0, dt), (0, dr) and (0, quot) word sums,
    streamed in blocks of rows as the u_le1 slot of the functionals."""
    return _stream(f, ((0, DT), (0, DR), (0, "quot")), {"le1": (0, None, "LE")})["le1"]


def box_decomposition_residual(w: SpaceTimeField) -> float:
    """Residual of (dt^2 - dr^2)w = Box w + (2/r) dr w away from the axis.

    Measured on interior points with r >= 1 only: the centered product rule
    D^2(r w) = r D^2 w + 2 D w is exact there, while the one-sided boundary
    stencils satisfy it only to truncation order.
    """
    grid = w.grid
    t, r = grid.meshes()
    d2 = _wave2(w.values, w.parity, grid.dt, grid.dr)
    box = box_scalar(w).values
    dr_w = derivative(w, DR).values
    keep = (r >= 1.0) & (r <= grid.r_max - grid.dr) & \
        (t >= grid.dt) & (t <= grid.t_max - grid.dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = 2 * dr_w / np.where(keep, r, 1.0)
        res = np.where(keep, d2 - box - grad, 0.0)
        mag = np.abs(d2) + np.abs(box) + np.abs(grad)
    scale = max(float(np.max(np.where(keep, mag, 0.0))), 1e-300)
    return float(np.max(np.abs(res))) / scale


def observed_order(coarse: float, fine: float) -> float:
    """log2 ratio of residuals under dr -> dr/2."""
    if fine <= 0:
        return float("inf")
    return float(np.log2(coarse / fine))


def interval_l2(values, grid, weight, region) -> float:
    """L2L2 norm of whole-grid ``values`` on the points of a region's intervals."""
    pos = _window_pos(_intervals(region, grid), grid, np.s_[:, :])
    return _norm(values, grid, "L2", weight, pos)


def data_l2(f: SpaceTimeField, weight) -> float:
    """Row 0 of ``spatial_l2``."""
    return float(np.sqrt(_row_sums(f.values[:1], f.grid, weight)[1][0]))


def good_of_conjugate_over_r(w: SpaceTimeField) -> SpaceTimeField:
    """r^{-1}(dt+dr)(r w) = (dt + dr + 1/r) w."""
    return quotient_by_r(derivative(_conjugate(w), GOOD))


def du_magnitude(u: SpaceTimeField) -> SpaceTimeField:
    dt_u = derivative(u, DT).values
    dr_u = derivative(u, DR).values
    return SpaceTimeField(u.grid, np.sqrt(np.square(dt_u) + np.square(dr_u)))


def check_hardy(u: SpaceTimeField, p: float, family_id: str = "") -> EstimateReport:
    a = (p - 1) / 2
    lhs_slots = {
        "invr_l2l2": mixed_norm(u, "L2", WeightSpec(a, 1.0)),
        "invhalf_linfl2": mixed_norm(u, "Linf", WeightSpec(a, 0.5)),
    }
    good = good_of_conjugate_over_r(u)
    rhs_slots = {
        "data": data_l2(u, WeightSpec(a, 0.5)),
        "good_l2l2": mixed_norm(good, "L2", WeightSpec(a, 0.0)),
    }
    return EstimateReport("hardy", sum(lhs_slots.values()), sum(rhs_slots.values()),
                          family_id, lhs_slots, rhs_slots)


def check_le(u: SpaceTimeField, family_id: str = "") -> EstimateReport:
    grid = u.grid
    du = du_magnitude(u)
    lhs_slots = {
        "le1_sq": le1_norm(u) ** 2,
        "du_linfl2_sq": mixed_norm(du, "Linf") ** 2,
    }
    box = box_scalar(u).values
    uq = quotient_by_r(u).values
    _, r = grid.meshes()
    integrand = np.abs(box) * (du.values + np.abs(uq)) * np.square(r)
    wt, wr = _trapz_weights(grid.nt, grid.dt), _trapz_weights(grid.nr, grid.dr)
    rhs_slots = {
        "data_sq": data_l2(du, WeightSpec()) ** 2,
        "forcing": FOUR_PI * float(wt @ integrand @ wr),
    }
    return EstimateReport("le", sum(lhs_slots.values()), sum(rhs_slots.values()),
                          family_id, lhs_slots, rhs_slots)


def dyadic_forcing_sums(box: SpaceTimeField, p: float) -> tuple[float, float, dict]:
    grid = box.grid
    w_r, w_u = WeightSpec((p + 1) / 2), WeightSpec(p / 2)
    detail = {}
    sq_r = 0.0
    tau_values = dyadic_scales(grid.t_max / 2, start=4)
    for tau in tau_values:
        for s in dyadic_scales(tau // 4):
            val = interval_l2(box.values, grid, w_r, DyadicRegion(tau, R_KIND, s))
            detail[f"R tau={tau} R={s}"] = val
            sq_r += val * val
        val = interval_l2(box.values, grid, w_r, DyadicRegion(tau, CORE))
        detail[f"R tau={tau} core"] = val
        sq_r += val * val
    f_r = float(np.sqrt(sq_r))

    f_u = 0.0
    max_u = max(tau_values) // 4 if tau_values else 0
    for U in dyadic_scales(max_u) if max_u >= 1 else []:
        sq = 0.0
        for tau in tau_values:
            if tau >= 4 * U:
                val = interval_l2(box.values, grid, w_u, DyadicRegion(tau, U_KIND, U))
                detail[f"U tau={tau} U={U}"] = val
                sq += U * val * val
        f_u += float(np.sqrt(sq))
    return f_r, f_u, detail


def sup_U_slot(u: SpaceTimeField, p: float) -> float:
    good = good_of_conjugate_over_r(u)
    best = 0.0
    for U in dyadic_scales(bracket(max(u.grid.t_max, u.grid.r_max))):
        strip = DyadicRegion(None, STRIP, U)
        best = max(best, U ** -0.5 * interval_l2(good.values, u.grid, WeightSpec(p / 2), strip))
    return best


def check_mr(u: SpaceTimeField, p: float, family_id: str = "") -> EstimateReport:
    good_u = derivative(u, GOOD)
    a = (p - 1) / 2
    lhs_slots = {
        "good_linfl2": mixed_norm(good_u, "Linf", WeightSpec(p)),
        "ang_linfl2": 0.0,
        "invhalf_linfl2": mixed_norm(u, "Linf", WeightSpec(a, 0.5)),
        "good_l2l2": mixed_norm(good_u, "L2", WeightSpec(a)),
        "ang_l2l2": 0.0,
        "invr_l2l2": mixed_norm(u, "L2", WeightSpec(a, 1.0)),
        "ghost_supU": sup_U_slot(u, p),
    }
    box = box_scalar(u)
    f_r, f_u, detail = dyadic_forcing_sums(box, p)
    rhs_slots = {
        "data_invhalf": data_l2(u, WeightSpec(a, 0.5)),
        "data_good": data_l2(good_u, WeightSpec(p / 2)),
        "data_ang": 0.0,
        "forcing_R": f_r,
        "forcing_U": f_u,
    }
    rep = EstimateReport("mr", sum(lhs_slots.values()), sum(rhs_slots.values()),
                         family_id, lhs_slots, rhs_slots)
    rep.rhs_slots.update({f"detail {k}": v for k, v in detail.items()})
    return rep


def check_newle(u: SpaceTimeField, p: float, delta: float,
                family_id: str = "") -> EstimateReport:
    good_u = derivative(u, GOOD)
    bad_u = derivative(u, BAD)
    a = (p - 1) / 2
    lhs_slots = {
        "bad_linfl2": mixed_norm(bad_u, "Linf", WeightSpec(-delta / 2)),
        "good_linfl2": mixed_norm(good_u, "Linf", WeightSpec(p / 2)),
        "ang_linfl2": 0.0,
        "invhalf_linfl2": mixed_norm(u, "Linf", WeightSpec(a, 0.5)),
        "bad_l2l2": mixed_norm(bad_u, "L2", WeightSpec(-(1 + delta) / 2)),
        "good_l2l2": mixed_norm(good_u, "L2", WeightSpec(a)),
        "ang_l2l2": 0.0,
        "invr_l2l2": mixed_norm(u, "L2", WeightSpec(a, 1.0)),
        "ghost_supU": sup_U_slot(u, p),
    }
    box = box_scalar(u)
    f_r, f_u, _ = dyadic_forcing_sums(box, p)
    rhs_slots = {
        "data_bad": data_l2(bad_u, WeightSpec(-delta / 2)),
        "data_good": data_l2(good_u, WeightSpec(p / 2)),
        "data_ang": 0.0,
        "data_invr": data_l2(u, WeightSpec(p / 2, 1.0)),
        "forcing_weighted": mixed_norm(box, "L2", WeightSpec((1 - delta) / 2)),
        "forcing_R": f_r,
        "forcing_U": f_u,
    }
    return EstimateReport("newle", sum(lhs_slots.values()), sum(rhs_slots.values()),
                          family_id, lhs_slots, rhs_slots)
