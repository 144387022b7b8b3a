"""Numerical verification of the multiplier identities and weighted estimates.

Exact identities are checked to discretization order (residuals shrinking at
second order under refinement); inequalities are checked as LHS/RHS ratios
that must be finite, scale-invariant, and stable under refinement over a fixed
family of test fields.  No claim about optimal constants is ever made.

Every L2 slot is one of the ``norms`` reductions: a whole-grid mixed norm
(``mixed_norm``), a region L2L2 norm (``norms._interval_l2``), or a data norm
at t = 0 (``norms._data_l2``), which reduces only row 0.

Regions are read as per-row intervals, and no check builds a dense mask:
every region sup and region L2 norm (the dyadic forcing stacks, the strips of
the ghost slot, the Klainerman-Sobolev masses) reads only its region's points
(``norms._region_sup``, ``norms._interval_l2``).  A Klainerman-Sobolev check
takes its sup over the plain region's points and reads its Z-word sums only
on the enlarged region ``tilde``.  It walks tilde in the blocks of time rows
of the M/A functionals (``norms._blocks``), one ``grid._word_sums`` pass on
the bounding box of each block's intervals, where the region reductions read
the sums in place (``_ks_pass``).  A U strip runs along the light cone, so
its blocks' boxes hold a fraction of the cells of its one bounding box; an R
piece is a rectangle and keeps that one box (``_ks_windows``).  The row sums
of all blocks are reduced once in t, so every mass and sup equals that of a
single pass bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import (
    _FLIP, BAD, DR, DT, GOOD, SCALING, GridSpec, SpaceTimeField, _box_values, _d1, _depth,
    _require_size, _trapz_weights, _wave2, _word_sums, box_conjugate, derivative,
    quotient_by_r,
)
from .norms import (
    FOUR_PI, WeightSpec, _blocks, _data_l2, _interval_l2, _region_sup, _row_sums, _t_norm,
    _window_pos, le1_norm, mixed_norm,
)
from .regions import (
    CORE, R_KIND, STRIP, U_KIND, DyadicRegion, _intervals, bracket, dyadic_scales,
    sigma_U, sigma_U_prime,
)

_TINY = 1e-300


@dataclass
class IdentityReport:
    name: str
    lhs: float
    rhs: float
    rhs_terms: dict = dc_field(default_factory=dict)

    @property
    def residual(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def relative_residual(self) -> float:
        scale = max(abs(self.lhs), sum(abs(v) for v in self.rhs_terms.values()), _TINY)
        return self.residual / scale


@dataclass
class EstimateReport:
    name: str
    lhs: float
    rhs: float
    family_id: str = ""
    lhs_slots: dict = dc_field(default_factory=dict)
    rhs_slots: dict = dc_field(default_factory=dict)
    flagged: bool = False

    @property
    def ratio(self) -> float:
        if self.rhs == 0.0:
            return 0.0 if self.lhs == 0.0 else float("inf")
        return self.lhs / self.rhs


def _quad2d(grid: GridSpec, integrand: np.ndarray) -> float:
    wt = _trapz_weights(grid.nt, grid.dt)
    wr = _trapz_weights(grid.nr, grid.dr)
    return float(wt @ integrand @ wr)


def _quad_r(grid: GridSpec, integrand: np.ndarray) -> float:
    wr = _trapz_weights(grid.nr, grid.dr)
    return float(integrand @ wr)


def _quad_t(grid: GridSpec, integrand: np.ndarray) -> float:
    wt = _trapz_weights(grid.nt, grid.dt)
    return float(integrand @ wt)


def _conjugate(w: SpaceTimeField) -> SpaceTimeField:
    r = w.grid.r[None, :]
    return SpaceTimeField(w.grid, r * w.values, "odd")


def check_identity_plus(w: SpaceTimeField, p: float, U: float) -> IdentityReport:
    """Space-time multiplier identity for (1+r)^p e^{-sigma_U(t-r)} (dt+dr+1/r).

    LHS pairs the wave operator with the outgoing weighted multiplier; the RHS
    collects the t-boundary flux, the r = 0 line term, the p-weighted bulk
    flux, and the ghost bulk term.  Angular contributions vanish identically
    on radial data and are reported as exact zeros.
    """
    if not (0 < p < 2):
        raise ValueError(f"p must lie in (0, 2), got {p}")
    grid = w.grid
    t, r = grid.meshes()
    W = _conjugate(w)
    G = derivative(W, GOOD).values
    box2 = box_conjugate(W).values
    z = t - r
    decay = np.exp(-sigma_U(z, U))
    wp = np.power(1.0 + r, p)

    lhs = FOUR_PI * _quad2d(grid, wp * decay * box2 * G)

    g2 = np.square(G)
    boundary = 0.5 * FOUR_PI * (_quad_r(grid, (wp * decay * g2)[-1])
                                - _quad_r(grid, (wp * decay * g2)[0]))
    outer = -0.5 * FOUR_PI * _quad_t(grid, (wp * decay * g2)[:, -1])
    axis = 0.5 * FOUR_PI * _quad_t(
        grid, np.exp(-sigma_U(grid.t, U)) * np.square(w.values[:, 0]))
    p_flux = (p / 2) * FOUR_PI * _quad2d(grid, np.power(1.0 + r, p - 1) * decay * g2)
    ghost = FOUR_PI * _quad2d(grid, wp * sigma_U_prime(z, U) * decay * g2)
    terms = {
        "boundary_t": boundary, "boundary_outer": outer, "axis_line": axis,
        "p_flux": p_flux, "ghost": ghost, "angular_flux": 0.0, "angular_bulk": 0.0,
    }
    return IdentityReport("identity_plus", lhs, sum(terms.values()), terms)


def check_identity_minus(w: SpaceTimeField, delta: float) -> IdentityReport:
    """Multiplier identity for the incoming branch (1+r)^{-delta} (dt-dr-1/r).

    The r = 0 line term enters with a negative sign and the delta-weighted
    bulk flux is nonnegative; angular terms vanish on radial data.
    """
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    grid = w.grid
    _, r = grid.meshes()
    W = _conjugate(w)
    H = derivative(W, BAD).values
    box2 = box_conjugate(W).values
    wd = np.power(1.0 + r, -delta)

    lhs = FOUR_PI * _quad2d(grid, wd * box2 * H)
    h2 = np.square(H)
    boundary = 0.5 * FOUR_PI * (_quad_r(grid, (wd * h2)[-1]) - _quad_r(grid, (wd * h2)[0]))
    outer = 0.5 * FOUR_PI * _quad_t(grid, (wd * h2)[:, -1])
    axis = -0.5 * FOUR_PI * _quad_t(grid, np.square(w.values[:, 0]))
    d_flux = (delta / 2) * FOUR_PI * _quad2d(grid, np.power(1.0 + r, -1 - delta) * h2)
    terms = {"boundary_t": boundary, "boundary_outer": outer, "axis_line": axis,
             "delta_flux": d_flux, "angular_bulk": 0.0}
    return IdentityReport("identity_minus", lhs, sum(terms.values()), terms)


def good_of_conjugate_over_r(w: SpaceTimeField) -> SpaceTimeField:
    """r^{-1}(dt+dr)(r w) = (dt + dr + 1/r) w."""
    return quotient_by_r(derivative(_conjugate(w), GOOD))


def box_scalar(w: SpaceTimeField) -> SpaceTimeField:
    """Radial d'Alembertian via the conjugate identity, any parity."""
    grid = w.grid
    _require_size(grid)
    vals = _box_values(w.values, w.parity, grid.r, grid.dt, grid.dr)
    return SpaceTimeField(grid, vals, "even" if w.parity == "even" else None)


def check_hardy(u: SpaceTimeField, p: float, family_id: str = "") -> EstimateReport:
    """Space-time Hardy variant: interior weighted mass controlled by the data
    and the good derivative of the conjugate variable."""
    if not (0 < p < 2):
        raise ValueError(f"p must lie in (0, 2), got {p}")
    a = (p - 1) / 2
    lhs_slots = {
        "invr_l2l2": mixed_norm(u, "L2", WeightSpec(a, 1.0)),
        "invhalf_linfl2": mixed_norm(u, "Linf", WeightSpec(a, 0.5)),
    }
    good = good_of_conjugate_over_r(u)
    rhs_slots = {
        "data": _data_l2(u, WeightSpec(a, 0.5)),
        "good_l2l2": mixed_norm(good, "L2", WeightSpec(a, 0.0)),
    }
    return EstimateReport("hardy", sum(lhs_slots.values()), sum(rhs_slots.values()),
                          family_id, lhs_slots, rhs_slots)


def _du_magnitude(u: SpaceTimeField) -> SpaceTimeField:
    dt_u = derivative(u, DT).values
    dr_u = derivative(u, DR).values
    return SpaceTimeField(u.grid, np.sqrt(np.square(dt_u) + np.square(dr_u)))


def check_le(u: SpaceTimeField, family_id: str = "") -> EstimateReport:
    """Integrated local energy estimate, squared form."""
    grid = u.grid
    du = _du_magnitude(u)
    lhs_slots = {
        "le1_sq": le1_norm(u) ** 2,
        "du_linfl2_sq": mixed_norm(du, "Linf") ** 2,
    }
    box = box_scalar(u).values
    uq = quotient_by_r(u).values
    _, r = grid.meshes()
    forcing = FOUR_PI * _quad2d(grid, np.abs(box) * (du.values + np.abs(uq)) * np.square(r))
    rhs_slots = {
        "data_sq": _data_l2(du, WeightSpec()) ** 2,
        "forcing": forcing,
    }
    return EstimateReport("le", sum(lhs_slots.values()), sum(rhs_slots.values()),
                          family_id, lhs_slots, rhs_slots)


def _dyadic_forcing_sums(box: SpaceTimeField, p: float) -> tuple[float, float, dict]:
    """The two dyadic forcing stacks: the ell^2-in-(tau, R) sum with the core
    attached to the R row, and the U-row sum over tau >= 4U."""
    grid = box.grid
    w_r, w_u = WeightSpec((p + 1) / 2), WeightSpec(p / 2)
    detail = {}
    sq_r = 0.0
    tau_values = dyadic_scales(grid.t_max / 2, start=4)
    for tau in tau_values:
        for s in dyadic_scales(tau // 4):
            val = _interval_l2(box.values, grid, w_r, DyadicRegion(tau, R_KIND, s))
            detail[f"R tau={tau} R={s}"] = val
            sq_r += val * val
        val = _interval_l2(box.values, grid, w_r, DyadicRegion(tau, CORE))
        detail[f"R tau={tau} core"] = val
        sq_r += val * val
    f_r = float(np.sqrt(sq_r))

    f_u = 0.0
    max_u = max(tau_values) // 4 if tau_values else 0
    for U in dyadic_scales(max_u) if max_u >= 1 else []:
        sq = 0.0
        for tau in tau_values:
            if tau >= 4 * U:
                val = _interval_l2(box.values, grid, w_u, DyadicRegion(tau, U_KIND, U))
                detail[f"U tau={tau} U={U}"] = val
                sq += U * val * val
        f_u += float(np.sqrt(sq))
    return f_r, f_u, detail


def _sup_U_slot(u: SpaceTimeField, p: float) -> float:
    """sup_U U^{-1/2} || <r>^{p/2} r^{-1}(dt+dr)(r u) ||_{L2L2(X_U)}."""
    good = good_of_conjugate_over_r(u)
    best = 0.0
    for U in dyadic_scales(bracket(max(u.grid.t_max, u.grid.r_max))):
        strip = DyadicRegion(None, STRIP, U)
        best = max(best, U ** -0.5 * _interval_l2(good.values, u.grid, WeightSpec(p / 2), strip))
    return best


def check_mr(u: SpaceTimeField, p: float, family_id: str = "") -> EstimateReport:
    """The combined r^p / ghost-weight estimate (radial form; angular slots
    vanish identically and are recorded as zeros)."""
    if not (0 < p < 2):
        raise ValueError(f"p must lie in (0, 2), got {p}")
    good_u = derivative(u, GOOD)
    a = (p - 1) / 2
    lhs_slots = {
        "good_linfl2": mixed_norm(good_u, "Linf", WeightSpec(p)),
        "ang_linfl2": 0.0,
        "invhalf_linfl2": mixed_norm(u, "Linf", WeightSpec(a, 0.5)),
        "good_l2l2": mixed_norm(good_u, "L2", WeightSpec(a)),
        "ang_l2l2": 0.0,
        "invr_l2l2": mixed_norm(u, "L2", WeightSpec(a, 1.0)),
        "ghost_supU": _sup_U_slot(u, p),
    }
    box = box_scalar(u)
    f_r, f_u, detail = _dyadic_forcing_sums(box, p)
    rhs_slots = {
        "data_invhalf": _data_l2(u, WeightSpec(a, 0.5)),
        "data_good": _data_l2(good_u, WeightSpec(p / 2)),
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
    """Refined local energy estimate with the modified incoming multiplier:
    faster-decaying weight on (dt-dr)u, faster-decaying weight on the forcing."""
    if not (0 < p < 2):
        raise ValueError(f"p must lie in (0, 2), got {p}")
    if delta <= 0:
        raise ValueError("delta must be positive")
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
        "ghost_supU": _sup_U_slot(u, p),
    }
    box = box_scalar(u)
    f_r, f_u, _ = _dyadic_forcing_sums(box, p)
    rhs_slots = {
        "data_bad": _data_l2(bad_u, WeightSpec(-delta / 2)),
        "data_good": _data_l2(good_u, WeightSpec(p / 2)),
        "data_ang": 0.0,
        "data_invr": _data_l2(u, WeightSpec(p / 2, 1.0)),
        "forcing_weighted": mixed_norm(box, "L2", WeightSpec((1 - delta) / 2)),
        "forcing_R": f_r,
        "forcing_U": f_u,
    }
    return EstimateReport("newle", sum(lhs_slots.values()), sum(rhs_slots.values()),
                          family_id, lhs_slots, rhs_slots)


# ----------------------------------------------------------------------
# Sobolev-type estimates
# ----------------------------------------------------------------------

def _radial_words(values: np.ndarray, r: np.ndarray, dr: float, order: int) -> list[np.ndarray]:
    """All compositions of {dr, r*dr} up to the given length on a radial frame
    (even parity assumed for the base frame)."""
    layers = [[(values, "even")]]
    for _ in range(order):
        nxt = []
        for vals, par in layers[-1]:
            dv = _d1(vals, dr, par)
            nxt.append((dv, _FLIP[par]))    # dr
            nxt.append((r * dv, par))       # scaling r*dr
        layers.append(nxt)
    return [vals for layer in layers for vals, _ in layer]


def check_weighted_sobolev(h: np.ndarray, r: np.ndarray, R: int,
                           family_id: str = "") -> EstimateReport:
    """Pointwise bound on a dyadic annulus by R^{-1}-weighted derivative mass
    on its enlargement (radial vector-field set)."""
    dr = float(r[1] - r[0])
    br = bracket(r)
    plain = (br >= R) & (br <= 2 * R)
    tilde = (br >= 7 / 8 * R) & (br <= 17 / 8 * R)
    if not np.any(plain):
        raise ValueError(f"annulus R={R} does not meet the grid")
    lhs = float(np.max(np.abs(h)[plain]))
    agg = np.zeros_like(h)
    for vals in _radial_words(h, r, dr, 2):
        agg += np.abs(vals)
    w = _trapz_weights(r.size, dr)
    mass = float(np.sqrt(FOUR_PI * np.sum(np.square(agg) * np.square(r) * w * tilde)))
    return EstimateReport("weighted_sobolev", lhs, mass / R, family_id,
                          {"sup": lhs}, {"mass": mass, "scale": float(R)})


def _check_ks_kind(region_kind: str) -> None:
    if region_kind not in (R_KIND, U_KIND):
        raise ValueError("region_kind must be R or U")


def _ks_windows(tilde, d: int) -> list[tuple[slice, slice]]:
    """The windows a Klainerman-Sobolev check walks to read the per-row
    intervals ``tilde``: the bounding box of each block of their rows
    (``norms._blocks``), or their one bounding box when that, widened by the
    halo ``d`` on every side, holds no more cells than the blocks' boxes
    widened the same way.  So a rectangle keeps one box and a band along the
    light cone gets blocks.  One empty window if ``tilde`` is empty."""
    rows, j_lo, j_hi = tilde
    if rows.size == 0:
        return [(slice(0, 0), slice(0, 0))]

    def box(a, b):  # the bounding box of the intervals a:b
        return (slice(int(rows[a]), int(rows[b - 1]) + 1),
                slice(int(j_lo[a:b].min()), int(j_hi[a:b].max())))

    def cells(windows):
        return sum((s.stop - s.start + 2 * d) * (c.stop - c.start + 2 * d) for s, c in windows)

    first = int(rows[0])
    cuts = (np.searchsorted(rows, (first + lo, first + hi))
            for lo, hi in _blocks(int(rows[-1]) + 1 - first))
    blocks, whole = [box(a, b) for a, b in cuts if b > a], [box(0, rows.size)]
    return blocks if cells(blocks) < cells(whole) else whole


def _ks_pass(w: SpaceTimeField, region: DyadicRegion, sup_key, keys) -> tuple:
    """(sup, masses) of a Klainerman-Sobolev check, from one ``_word_sums`` pass
    per window of ``_ks_windows``: the max of the word sum ``sup_key`` over
    the plain region, and the L2L2 mass on the enlarged region of each word
    sum of ``keys``.  Each window's row sums on tilde's points are
    concatenated and reduced once in t, so every value equals that of a
    single whole-grid pass bit for bit."""
    grid = w.grid
    tilde = _intervals(region.enlarged(1), grid)
    sup, parts = 0.0, {key: [] for key in keys}
    walk = (sup_key,) + keys
    for window in _ks_windows(tilde, _depth(walk)):
        sums = _word_sums(w, walk, window)
        # plain lies in tilde, so its points in the window are in the sums
        sup = max(sup, _region_sup(sums[sup_key], region, grid, window))
        pos = _window_pos(tilde, grid, window)
        for key in keys:
            parts[key].append(_row_sums(sums[key], grid, WeightSpec(), pos, window))
    masses = {key: _t_norm(*(np.concatenate(x) for x in zip(*parts[key])), grid, "L2")
              for key in keys}
    return sup, masses


def check_spacetime_ks(w: SpaceTimeField, tau: int, region_kind: str, scale: int,
                       family_id: str = "") -> EstimateReport:
    """Space-time pointwise decay estimate on one dyadic slab piece.

    Also evaluates the intermediate product form (geometric mean of the two
    derivative masses) as a separate slot.
    """
    _check_ks_kind(region_kind)
    region = DyadicRegion(tau, region_kind, scale)
    lhs, masses = _ks_pass(w, region, (0, None), ((2, None), (2, "dr")))  # the sup of |w|
    m0, m1 = masses[2, None], masses[2, "dr"]
    if region_kind == R_KIND:
        rhs = tau ** -0.5 * scale ** -1.5 * m0 + tau ** -0.5 * scale ** -0.5 * m1
        product_form = tau ** -0.5 * scale ** -1.5 * m0 + tau ** -0.5 / scale * np.sqrt(m0 * m1)
    else:
        rhs = tau ** -1.5 * scale ** -0.5 * m0 + scale ** 0.5 * tau ** -1.5 * m1
        product_form = None
    rep = EstimateReport("spacetime_ks", lhs, rhs, family_id,
                         {"supsup": lhs},
                         {"mass": m0, "mass_dr": m1, "tau": float(tau),
                          "scale": float(scale), "kind": region_kind})
    if product_form is not None:
        rep.rhs_slots["product_form"] = float(product_form)
    return rep


def scaling_identity_residual(w: SpaceTimeField) -> float:
    """Max residual of 2 S w = (t+r)(dt+dr)w + (t-r)(dt-dr)w on the grid;
    exact (to rounding) since both sides reduce to the same stencils."""
    t, r = w.grid.meshes()
    lhs = 2 * derivative(w, SCALING).values
    rhs = (t + r) * derivative(w, GOOD).values + (t - r) * derivative(w, BAD).values
    scale = max(float(np.max(np.abs(lhs))), _TINY)
    return float(np.max(np.abs(lhs - rhs))) / scale


def box_decomposition_residual(w: SpaceTimeField, r_min: float = 1.0) -> float:
    """Residual of (dt^2 - dr^2)w = Box w + (2/r) dr w away from the axis.

    Measured on interior points only: the centered product rule
    D^2(r w) = r D^2 w + 2 D w is exact there, while the one-sided boundary
    stencils satisfy it only to truncation order.
    """
    grid = w.grid
    t, r = grid.meshes()
    d2 = _wave2(w.values, w.parity, grid.dt, grid.dr)
    box = box_scalar(w).values
    dr_w = derivative(w, DR).values
    keep = (r >= r_min) & (r <= grid.r_max - grid.dr) & \
        (t >= grid.dt) & (t <= grid.t_max - grid.dt)
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = 2 * dr_w / np.where(keep, r, 1.0)
        res = np.where(keep, d2 - box - grad, 0.0)
        mag = np.abs(d2) + np.abs(box) + np.abs(grad)
    scale = max(float(np.max(np.where(keep, mag, 0.0))), _TINY)
    return float(np.max(np.abs(res))) / scale


def check_second_derivative_ks(w: SpaceTimeField, tau: int, region_kind: str,
                               scale: int, family_id: str = "") -> EstimateReport:
    """Second-derivative pointwise decay with the wave operator substituted in.

    Needs three vector-field orders plus one derivative; a noise-floor guard
    flags the report when both sides sit at the differencing floor.
    """
    _check_ks_kind(region_kind)
    grid = w.grid
    region = DyadicRegion(tau, region_kind, scale)
    lhs, masses = _ks_pass(w, region, (0, "d"),  # the sup of |dt w| + |dr w|
                           ((3, "d"), (2, "box"), (2, "dtdr2"), (2, "bad2"), (2, "good2")))
    m_d, m_box = masses[3, "d"], masses[2, "box"]
    if region_kind == R_KIND:
        rhs = tau ** -0.5 * scale ** -1.5 * m_d + tau ** -0.5 * scale ** -0.5 * m_box
    else:
        rhs = scale ** -0.5 * tau ** -1.5 * m_d + scale ** -0.5 * tau ** -0.5 * m_box

    # split-direction diagnostics: second bad/good derivatives against the
    # derivative mass and the plain second-order wave combination
    m_dtdr2, m_bad2, m_good2 = masses[2, "dtdr2"], masses[2, "bad2"], masses[2, "good2"]
    if region_kind == R_KIND:
        bad2_rhs = good2_rhs = m_d / scale + m_dtdr2
    else:
        bad2_rhs = m_d / scale + (tau / scale) * m_dtdr2
        good2_rhs = m_d / tau + m_dtdr2

    w_max = max(float(w.values.max()), -float(w.values.min()))  # max |w|, with no copy
    noise = np.finfo(float).eps * w_max / grid.dr ** 4
    flagged = m_d < 1e3 * noise
    rep = EstimateReport("second_derivative_ks", lhs, rhs, family_id,
                         {"supsup_du": lhs},
                         {"mass_d3": m_d, "mass_box2": m_box,
                          "tau": float(tau), "scale": float(scale), "kind": region_kind},
                         flagged=flagged)
    rep.rhs_slots["bad2_ratio"] = float(m_bad2 / bad2_rhs) if bad2_rhs > 0 else 0.0
    rep.rhs_slots["good2_ratio"] = float(m_good2 / good2_rhs) if good2_rhs > 0 else 0.0
    return rep


def observed_order(coarse: float, fine: float) -> float:
    """log2 ratio of residuals under dr -> dr/2."""
    if fine <= 0:
        return float("inf")
    return float(np.log2(coarse / fine))
