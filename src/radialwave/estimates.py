"""Numerical verification of the multiplier identities and weighted estimates.

Exact identities are checked to discretization order (residuals shrinking at
second order under refinement); inequalities are checked as LHS/RHS ratios
that must be finite, scale-invariant, and stable under refinement over a fixed
family of test fields.  No claim about optimal constants is ever made.  Both
multiplier identities are one evaluator, ``_multiplier_identity``, of m XW with
W = r u: ``check_identity_plus`` gives it X = dt + dr with the r^p and ghost
weights, ``check_identity_minus`` X = dt - dr with the weight (1+r)^{-delta}.

Every estimate check but the identities reduces through ``norms._stream``,
the one streaming reducer of the M/A functionals: one ``grid._word_sums``
pass per window of the grid, asking only for the sums its slots read, each
window reduced into per-row sums (whole rows, row 0, a region's points, the
annuli of the local energy norm) and region sups, then each slot once in t,
so every norm equals the whole-grid one bit for bit.  The four ratio checks
(``check_hardy``, ``check_le``, ``check_mr``, ``check_newle``) walk the
functionals' blocks of full time rows.  The one array of the grid's size a
ratio check builds is the conjugate field r u, whose pass gives the (dt + dr
+ 1/r) u of Hardy's good slot and of the ghost slot.  ``check_le``'s
forcing, an integral, is reduced in the norms' order too (row sums, then t),
so it may differ from a t-first quadrature in the last bit.

Regions are read as per-row intervals, and no check builds a dense mask:
every region sup and region L2 norm (the dyadic forcing stacks, the strips of
the ghost slot, the Klainerman-Sobolev masses) reads only its region's
points.  A Klainerman-Sobolev check is one ``_stream`` call (``_ks_pass``): a
sup slot over the plain region and a mass slot per word sum on the enlarged
region tilde, on the windows of ``_ks_windows``, the bounding box of each
block of tilde's rows (``grid._blocks``).  A U strip runs along the light
cone, so its blocks' boxes hold a fraction of the cells of its one bounding
box; an R piece is a rectangle, whose blocks walk its box plus the halo
rows where they meet, a block's temporaries in place of the whole box's.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import (
    _FLIP, BAD, DR, DT, GOOD, SCALING, GridSpec, SpaceTimeField, _blocks, _box_values, _d1,
    _require_size, _trapz_weights, box_conjugate, derivative,
)
from .norms import FOUR_PI, WeightSpec, _stream
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


def _conjugate(w: SpaceTimeField) -> SpaceTimeField:
    r = w.grid.r[None, :]
    return SpaceTimeField(w.grid, r * w.values, "odd")


def _multiplier_identity(name: str, w: SpaceTimeField, sign: int, m, axis,
                         bulk: dict) -> IdentityReport:
    """4 pi int int m (dt^2 - dr^2)W XW, X = dt + sign dr, against the t-boundary
    flux of m (XW)^2 / 2, its outer flux (sign -sign), the r = 0 line of w^2 / 2
    weighted by ``axis`` in t (sign +sign), each ``bulk`` term {name: (c, b)},
    c 4 pi int int b() (XW)^2 with b() built only when taken, and angular zeros."""
    wt, wr = _trapz_weights(w.grid.nt, w.grid.dt), _trapz_weights(w.grid.nr, w.grid.dr)
    W = _conjugate(w)
    XW = derivative(W, GOOD if sign > 0 else BAD).values
    lhs = FOUR_PI * float(wt @ (m * box_conjugate(W).values * XW) @ wr)
    del W  # W is read no more, nor XW, which becomes (XW)^2 in place
    x2 = np.square(XW, out=XW)
    mx2 = m * x2
    terms = {"boundary_t": 0.5 * FOUR_PI * (float(mx2[-1] @ wr) - float(mx2[0] @ wr)),
             "boundary_outer": -sign * 0.5 * FOUR_PI * float(mx2[:, -1] @ wt),
             "axis_line": sign * 0.5 * FOUR_PI * float((axis * np.square(w.values[:, 0])) @ wt),
             **{key: c * FOUR_PI * float(wt @ (b() * x2) @ wr) for key, (c, b) in bulk.items()},
             "angular_flux": 0.0, "angular_bulk": 0.0}
    return IdentityReport(name, lhs, sum(terms.values()), terms)


def check_identity_plus(w: SpaceTimeField, p: float, U: float) -> IdentityReport:
    """Space-time multiplier identity for (1+r)^p e^{-sigma_U(t-r)} (dt+dr+1/r).

    LHS pairs the wave operator with the outgoing weighted multiplier; the RHS
    collects the t-boundary flux, the r = 0 line term, the p-weighted bulk
    flux, and the ghost bulk term.  Angular contributions vanish identically
    on radial data and are reported as exact zeros.
    """
    if not (0 < p < 2):
        raise ValueError(f"p must lie in (0, 2), got {p}")
    t, r = w.grid.meshes()
    z = t - r
    wp, decay = np.power(1.0 + r, p), np.exp(-sigma_U(z, U))
    return _multiplier_identity("identity_plus", w, 1, wp * decay, np.exp(-sigma_U(w.grid.t, U)),
                                {"p_flux": (p / 2, lambda: np.power(1.0 + r, p - 1) * decay),
                                 "ghost": (1, lambda: wp * sigma_U_prime(z, U) * decay)})


def check_identity_minus(w: SpaceTimeField, delta: float) -> IdentityReport:
    """Multiplier identity for the incoming branch (1+r)^{-delta} (dt-dr-1/r).

    The r = 0 line term enters with a negative sign and the delta-weighted
    bulk flux is nonnegative; angular terms vanish on radial data.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    r = w.grid.r[None, :]
    return _multiplier_identity("identity_minus", w, -1, np.power(1.0 + r, -delta), 1.0,
                                {"delta_flux": (delta / 2, lambda: np.power(1.0 + r, -1 - delta))})


def box_scalar(w: SpaceTimeField) -> SpaceTimeField:
    """Radial d'Alembertian via the conjugate identity, any parity."""
    grid = w.grid
    _require_size(grid)
    vals = _box_values(w.values, w.parity, grid.r, grid.dt, grid.dr)
    return SpaceTimeField(grid, vals, "even" if w.parity == "even" else None)


_BOX, _GOOD_R = (0, "box"), (0, "good/r")  # Box u, and (dt + dr + 1/r) u on r u


def check_hardy(u: SpaceTimeField, p: float, family_id: str = "") -> EstimateReport:
    """Space-time Hardy variant: interior weighted mass controlled by the data
    and the good derivative of the conjugate variable."""
    if not (0 < p < 2):
        raise ValueError(f"p must lie in (0, 2), got {p}")
    a = (p - 1) / 2
    word = (0, None)
    n = _stream(u, (word,), {"invr_l2l2": (word, WeightSpec(a, 1.0), "L2"),
                             "invhalf_linfl2": (word, WeightSpec(a, 0.5), "Linf"),
                             "data": (word, WeightSpec(a, 0.5), "data")})
    good = _stream(_conjugate(u), (_GOOD_R,), {"l2l2": (_GOOD_R, WeightSpec(a, 0.0), "L2")})
    lhs_slots = {"invr_l2l2": n["invr_l2l2"], "invhalf_linfl2": n["invhalf_linfl2"]}
    rhs_slots = {"data": n["data"], "good_l2l2": good["l2l2"]}
    return EstimateReport("hardy", sum(lhs_slots.values()), sum(rhs_slots.values()),
                          family_id, lhs_slots, rhs_slots)


def _du(sums: dict) -> np.ndarray:
    """|du| = (|dt u|^2 + |dr u|^2)^{1/2} from a block's (0, dt) and (0, dr) sums."""
    return np.sqrt(np.square(sums[0, DT]) + np.square(sums[0, DR]))


def check_le(u: SpaceTimeField, family_id: str = "") -> EstimateReport:
    """Integrated local energy estimate, squared form."""
    n = _stream(u, ((0, DT), (0, DR), (0, "quot"), _BOX), {
        "le1": (0, None, "LE"),
        "du_linfl2": (_du, WeightSpec(), "Linf"),
        "data": (_du, WeightSpec(), "data"),
        "forcing": (lambda s: s[_BOX] * (_du(s) + s[0, "quot"]), None, "dx dt"),
    })
    lhs_slots = {"le1_sq": n["le1"] ** 2, "du_linfl2_sq": n["du_linfl2"] ** 2}
    rhs_slots = {"data_sq": n["data"] ** 2, "forcing": n["forcing"]}
    return EstimateReport("le", sum(lhs_slots.values()), sum(rhs_slots.values()),
                          family_id, lhs_slots, rhs_slots)


def _forcing_pieces(grid: GridSpec, p: float) -> dict:
    """The pieces of the two dyadic forcing stacks as ``_stream`` slots of
    |Box u|, by detail name: per slab tau its R pieces, then its core (the R
    row); then per U the U piece of every slab tau >= 4U."""
    w_r, w_u = WeightSpec((p + 1) / 2), WeightSpec(p / 2)
    tau_values = dyadic_scales(grid.t_max / 2, start=4)
    pieces = {}
    for tau in tau_values:
        for s in dyadic_scales(tau // 4):
            pieces[f"R tau={tau} R={s}"] = (_BOX, w_r, DyadicRegion(tau, R_KIND, s))
        pieces[f"R tau={tau} core"] = (_BOX, w_r, DyadicRegion(tau, CORE))
    max_u = max(tau_values) // 4 if tau_values else 0
    for U in dyadic_scales(max_u) if max_u >= 1 else []:
        for tau in tau_values:
            if tau >= 4 * U:
                pieces[f"U tau={tau} U={U}"] = (_BOX, w_u, DyadicRegion(tau, U_KIND, U))
    return pieces


def _forcing_sums(pieces: dict, norms: dict) -> tuple[float, float]:
    """(forcing_R, forcing_U) from the ``norms`` of the ``_forcing_pieces``: the
    ell^2 sum of the R row, and the sum over U of the ell^2-in-tau sums of
    U^{1/2} times the U pieces."""
    sq_r, sq_u = 0.0, {}
    for name, (*_, region) in pieces.items():
        val = norms[name]
        if region.kind == U_KIND:
            sq_u[region.scale] = sq_u.get(region.scale, 0.0) + region.scale * val * val
        else:
            sq_r += val * val
    return float(np.sqrt(sq_r)), sum((float(np.sqrt(sq)) for sq in sq_u.values()), 0.0)


def _sup_U_slot(u: SpaceTimeField, p: float) -> float:
    """sup_U U^{-1/2} || <r>^{p/2} r^{-1}(dt+dr)(r u) ||_{L2L2(X_U)}, from one
    pass on the conjugate field r u."""
    scales = dyadic_scales(bracket(max(u.grid.t_max, u.grid.r_max)))
    n = _stream(_conjugate(u), (_GOOD_R,),
                {U: (_GOOD_R, WeightSpec(p / 2), DyadicRegion(None, STRIP, U)) for U in scales})
    return max([0.0] + [U ** -0.5 * n[U] for U in scales])


def check_mr(u: SpaceTimeField, p: float, family_id: str = "") -> EstimateReport:
    """The combined r^p / ghost-weight estimate (radial form; angular slots
    vanish identically and are recorded as zeros)."""
    if not (0 < p < 2):
        raise ValueError(f"p must lie in (0, 2), got {p}")
    a = (p - 1) / 2
    word, good = (0, None), (0, GOOD)
    pieces = _forcing_pieces(u.grid, p)
    n = _stream(u, (word, good, _BOX), {
        "good_linfl2": (good, WeightSpec(p), "Linf"),
        "invhalf_linfl2": (word, WeightSpec(a, 0.5), "Linf"),
        "good_l2l2": (good, WeightSpec(a), "L2"),
        "invr_l2l2": (word, WeightSpec(a, 1.0), "L2"),
        "data_invhalf": (word, WeightSpec(a, 0.5), "data"),
        "data_good": (good, WeightSpec(p / 2), "data"),
        **pieces,
    })
    lhs_slots = {
        "good_linfl2": n["good_linfl2"],
        "ang_linfl2": 0.0,
        "invhalf_linfl2": n["invhalf_linfl2"],
        "good_l2l2": n["good_l2l2"],
        "ang_l2l2": 0.0,
        "invr_l2l2": n["invr_l2l2"],
        "ghost_supU": _sup_U_slot(u, p),
    }
    f_r, f_u = _forcing_sums(pieces, n)
    rhs_slots = {
        "data_invhalf": n["data_invhalf"],
        "data_good": n["data_good"],
        "data_ang": 0.0,
        "forcing_R": f_r,
        "forcing_U": f_u,
    }
    rep = EstimateReport("mr", sum(lhs_slots.values()), sum(rhs_slots.values()),
                         family_id, lhs_slots, rhs_slots)
    rep.rhs_slots.update({f"detail {name}": n[name] for name in pieces})
    return rep


def check_newle(u: SpaceTimeField, p: float, delta: float,
                family_id: str = "") -> EstimateReport:
    """Refined local energy estimate with the modified incoming multiplier:
    faster-decaying weight on (dt-dr)u, faster-decaying weight on the forcing."""
    if not (0 < p < 2):
        raise ValueError(f"p must lie in (0, 2), got {p}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    a = (p - 1) / 2
    word, good, bad = (0, None), (0, GOOD), (0, BAD)
    pieces = _forcing_pieces(u.grid, p)
    n = _stream(u, (word, good, bad, _BOX), {
        "bad_linfl2": (bad, WeightSpec(-delta / 2), "Linf"),
        "good_linfl2": (good, WeightSpec(p / 2), "Linf"),
        "invhalf_linfl2": (word, WeightSpec(a, 0.5), "Linf"),
        "bad_l2l2": (bad, WeightSpec(-(1 + delta) / 2), "L2"),
        "good_l2l2": (good, WeightSpec(a), "L2"),
        "invr_l2l2": (word, WeightSpec(a, 1.0), "L2"),
        "data_bad": (bad, WeightSpec(-delta / 2), "data"),
        "data_good": (good, WeightSpec(p / 2), "data"),
        "data_invr": (word, WeightSpec(p / 2, 1.0), "data"),
        "forcing_weighted": (_BOX, WeightSpec((1 - delta) / 2), "L2"),
        **pieces,
    })
    lhs_slots = {
        "bad_linfl2": n["bad_linfl2"],
        "good_linfl2": n["good_linfl2"],
        "ang_linfl2": 0.0,
        "invhalf_linfl2": n["invhalf_linfl2"],
        "bad_l2l2": n["bad_l2l2"],
        "good_l2l2": n["good_l2l2"],
        "ang_l2l2": 0.0,
        "invr_l2l2": n["invr_l2l2"],
        "ghost_supU": _sup_U_slot(u, p),
    }
    f_r, f_u = _forcing_sums(pieces, n)
    rhs_slots = {
        "data_bad": n["data_bad"],
        "data_good": n["data_good"],
        "data_ang": 0.0,
        "data_invr": n["data_invr"],
        "forcing_weighted": n["forcing_weighted"],
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


def _ks_windows(tilde) -> list[tuple[slice, slice]]:
    """The windows a Klainerman-Sobolev check walks to read the per-row
    intervals ``tilde``: the bounding box of each block of their rows
    (``grid._blocks``).  One empty window if ``tilde`` is empty."""
    rows, j_lo, j_hi = tilde
    if rows.size == 0:
        return [(slice(0, 0), slice(0, 0))]
    first = int(rows[0])
    cuts = (np.searchsorted(rows, (first + lo, first + hi))
            for lo, hi in _blocks(int(rows[-1]) + 1 - first))
    return [(slice(int(rows[a]), int(rows[b - 1]) + 1),
             slice(int(j_lo[a:b].min()), int(j_hi[a:b].max()))) for a, b in cuts if b > a]


def _ks_pass(w: SpaceTimeField, region: DyadicRegion, sup_key, keys) -> tuple:
    """(sup, masses) of a Klainerman-Sobolev check, from one ``norms._stream``
    pass on the windows of ``_ks_windows``: the max of the word sum
    ``sup_key`` over the plain region, which lies in the enlarged one, and
    the L2L2 mass on the enlarged region of each word sum of ``keys``."""
    tilde, walk = region.enlarged(1), (sup_key,) + keys
    masses = _stream(w, walk, {"sup": (sup_key, None, [region]),
                               **{key: (key, WeightSpec(), tilde) for key in keys}},
                     _ks_windows(_intervals(tilde, w.grid)))
    return masses.pop("sup")[0], masses


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

