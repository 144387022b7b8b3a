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
(``check_hardy``, ``check_le``, ``check_mr``, ``check_newle``) are one
evaluator, ``_ratio_reports``: one ``_stream`` of u, on blocks of full time
rows, over the union of the asked checks' word sums and slots, each distinct
slot (term, weight, where) reduced once, then, for Hardy's good slot and the
ghost slot, one of the conjugate field r u, whose pass gives their (dt + dr +
1/r) u.  r u, built after the u pass, is the one array of the grid's size it
builds.  A public check asks for itself alone; the ``estimates`` command asks
for a family's four checks at once, two passes in place of seven.
``check_le``'s forcing, an integral, is reduced in the norms' order too (row
sums, then t), so it may differ from a t-first quadrature in the last bit.

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
_WORD, _GOOD, _BAD = (0, None), (0, GOOD), (0, BAD)
# the word sums of u each ratio check reads
_RATIO_KEYS = {"hardy": (_WORD,), "le": ((0, DT), (0, DR), (0, "quot"), _BOX),
               "mr": (_WORD, _GOOD, _BOX), "newle": (_WORD, _GOOD, _BAD, _BOX)}


def _du(sums: dict) -> np.ndarray:
    """|du| = (|dt u|^2 + |dr u|^2)^{1/2} from a block's (0, dt) and (0, dr) sums."""
    return np.sqrt(np.square(sums[0, DT]) + np.square(sums[0, DR]))


def _le_forcing(sums: dict) -> np.ndarray:
    """|Box u| (|du| + |u| / r), the integrand of the local energy forcing."""
    return sums[_BOX] * (_du(sums) + sums[0, "quot"])


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
    """(forcing_R, forcing_U) from the ``norms`` of the ``_forcing_pieces``'
    slots: the ell^2 sum of the R row, and the sum over U of the ell^2-in-tau
    sums of U^{1/2} times the U pieces."""
    sq_r, sq_u = 0.0, {}
    for slot in pieces.values():
        val, region = norms[slot], slot[2]
        if region.kind == U_KIND:
            sq_u[region.scale] = sq_u.get(region.scale, 0.0) + region.scale * val * val
        else:
            sq_r += val * val
    return float(np.sqrt(sq_r)), sum((float(np.sqrt(sq)) for sq in sq_u.values()), 0.0)


def _ratio_reports(u: SpaceTimeField, p, delta, names, family_id: str = "") -> list:
    """The ``EstimateReport``s of the ratio checks ``names`` ("hardy", "le",
    "mr", "newle"), in order, from one ``_stream`` of u over the union of
    their word sums and slots and, if a check reads Hardy's good slot or the
    ghost strips, one of the conjugate field r u, built after the u pass.

    A slot is named by its (term, weight, where), so one that two checks
    declare is reduced once.  A report's entry is a slot, a zero (the angular
    slots, which vanish on radial data) or the name of a value derived from
    slots: "ghost", sup_U U^{-1/2} || <r>^{p/2} r^{-1}(dt+dr)(r u) ||_{L2L2(X_U)}
    over the strips X_U, and the forcing stacks of ``_forcing_sums``.  An
    entry whose name ends in "_sq" reports its square.  Only the checks that
    read p check it, so the local energy check takes p None."""
    reads_p, ghost = {"hardy", "mr", "newle"} & set(names), {"mr", "newle"} & set(names)
    if reads_p and not (0 < p < 2):
        raise ValueError(f"p must lie in (0, 2), got {p}")
    if "newle" in names and not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    du = (_du, WeightSpec())
    layouts = {"le": ({"le1_sq": (0, None, "LE"), "du_linfl2_sq": (*du, "Linf")},
                      {"data_sq": (*du, "data"), "forcing": (_le_forcing, None, "dx dt")})}
    pieces, strips = {}, {}
    if reads_p:
        a = (p - 1) / 2
        inv_half, inv_r = (_WORD, WeightSpec(a, 0.5), "Linf"), (_WORD, WeightSpec(a, 1.0), "L2")
        good_l2, data_half = (_GOOD, WeightSpec(a), "L2"), (_WORD, WeightSpec(a, 0.5), "data")
        data_good = (_GOOD, WeightSpec(p / 2), "data")
        layouts["hardy"] = ({"invr_l2l2": inv_r, "invhalf_linfl2": inv_half},
                            {"data": data_half, "good_l2l2": (_GOOD_R, WeightSpec(a), "L2")})
        layouts["mr"] = ({"good_linfl2": (_GOOD, WeightSpec(p), "Linf"), "ang_linfl2": 0.0,
                          "invhalf_linfl2": inv_half, "good_l2l2": good_l2, "ang_l2l2": 0.0,
                          "invr_l2l2": inv_r, "ghost_supU": "ghost"},
                         {"data_invhalf": data_half, "data_good": data_good, "data_ang": 0.0,
                          "forcing_R": "forcing_R", "forcing_U": "forcing_U"})
    if "newle" in names:
        layouts["newle"] = ({"bad_linfl2": (_BAD, WeightSpec(-delta / 2), "Linf"),
                             "good_linfl2": (_GOOD, WeightSpec(p / 2), "Linf"),
                             "ang_linfl2": 0.0, "invhalf_linfl2": inv_half,
                             "bad_l2l2": (_BAD, WeightSpec(-(1 + delta) / 2), "L2"),
                             "good_l2l2": good_l2, "ang_l2l2": 0.0, "invr_l2l2": inv_r,
                             "ghost_supU": "ghost"},
                            {"data_bad": (_BAD, WeightSpec(-delta / 2), "data"),
                             "data_good": data_good, "data_ang": 0.0,
                             "data_invr": (_WORD, WeightSpec(p / 2, 1.0), "data"),
                             "forcing_weighted": (_BOX, WeightSpec((1 - delta) / 2), "L2"),
                             "forcing_R": "forcing_R", "forcing_U": "forcing_U"})
    if ghost:
        pieces = _forcing_pieces(u.grid, p)
        strips = {U: (_GOOD_R, WeightSpec(p / 2), DyadicRegion(None, STRIP, U))
                  for U in dyadic_scales(bracket(max(u.grid.t_max, u.grid.r_max)))}
    slots = [e for name in names for side in layouts[name] for e in side.values()
             if isinstance(e, tuple)] + [*pieces.values(), *strips.values()]
    on_u = {s: s for s in slots if s[0] != _GOOD_R}  # each distinct slot once, in order
    on_ru = {s: s for s in slots if s[0] == _GOOD_R}
    n = _stream(u, tuple(dict.fromkeys(k for name in names for k in _RATIO_KEYS[name])), on_u)
    if on_ru:
        n.update(_stream(_conjugate(u), (_GOOD_R,), on_ru))
    if ghost:
        n["forcing_R"], n["forcing_U"] = _forcing_sums(pieces, n)
        n["ghost"] = max([0.0] + [U ** -0.5 * n[s] for U, s in strips.items()])

    def value(key, entry):
        v = entry if isinstance(entry, float) else n[entry]
        return v ** 2 if key.endswith("_sq") else v

    reports = []
    for name in names:
        lhs, rhs = ({key: value(key, e) for key, e in side.items()} for side in layouts[name])
        reports.append(EstimateReport(name, sum(lhs.values()), sum(rhs.values()),
                                      family_id, lhs, rhs))
        if name == "mr":  # the forcing stacks' pieces, outside the rhs sum
            rhs.update({f"detail {d}": n[s] for d, s in pieces.items()})
    return reports


def check_hardy(u: SpaceTimeField, p: float, family_id: str = "") -> EstimateReport:
    """Space-time Hardy variant: interior weighted mass controlled by the data
    and the good derivative of the conjugate variable."""
    return _ratio_reports(u, p, None, ("hardy",), family_id)[0]


def check_le(u: SpaceTimeField, family_id: str = "") -> EstimateReport:
    """Integrated local energy estimate, squared form."""
    return _ratio_reports(u, None, None, ("le",), family_id)[0]


def check_mr(u: SpaceTimeField, p: float, family_id: str = "") -> EstimateReport:
    """The combined r^p / ghost-weight estimate (radial form; angular slots
    vanish identically and are recorded as zeros)."""
    return _ratio_reports(u, p, None, ("mr",), family_id)[0]


def check_newle(u: SpaceTimeField, p: float, delta: float,
                family_id: str = "") -> EstimateReport:
    """Refined local energy estimate with the modified incoming multiplier:
    faster-decaying weight on (dt-dr)u, faster-decaying weight on the forcing."""
    return _ratio_reports(u, p, delta, ("newle",), family_id)[0]


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

