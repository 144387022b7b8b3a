"""Weighted mixed space-time norms by trapezoidal quadrature.

All spatial integrals use the radial measure dx = 4*pi*r^2 dr.  Global-in-time
norms are truncated to the grid horizon [0, t_max]; every breakdown records the
truncation so boundedness can be judged against plateau-vs-horizon curves.
The M and A functionals render no dense mask: their region sups read the
points of the R/U/core regions' per-row intervals, indexed once per grid, and
``le_norm`` reads one (1, nr) row per annulus.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import (
    DT, DR, SpaceTimeField, _over_r, _require_size, _trapz_weights, _z_walk, derivative,
    quotient_by_r,
)
from .regions import (
    ANNULUS, CORE, R_KIND, U_KIND, DyadicRegion, _annulus_row, _flat, _intervals,
    bracket, dyadic_scales,
)

FOUR_PI = 4.0 * np.pi


class NormSpecError(ValueError):
    pass


@dataclass(frozen=True)
class WeightSpec:
    """Pointwise weight <r>^power_r * r^(-power_inv_r), optionally with the
    ghost factor exp(-sigma_U(t - r))."""

    power_r: float = 0.0
    power_inv_r: float = 0.0
    ghost_U: float | None = None

    def __post_init__(self):
        if self.power_inv_r not in (0.0, 0.5, 1.0):
            raise NormSpecError(f"power_inv_r must be 0, 1/2, or 1; got {self.power_inv_r}")


@dataclass(frozen=True)
class MixedNormSpec:
    outer: str = "L2"  # over t: "L2" | "Linf"
    inner: str = "L2"  # over x: "L2" | "Linf"
    weight: WeightSpec = WeightSpec()

    def __post_init__(self):
        if self.outer not in ("L2", "Linf") or self.inner not in ("L2", "Linf"):
            raise NormSpecError("outer/inner must be 'L2' or 'Linf'")
        if self.inner == "Linf" and self.weight.power_inv_r != 0:
            raise NormSpecError("sup-in-x norms carry no inverse-r weight here")


@dataclass
class NormBreakdown:
    """Total plus per-summand values; ``aggregation`` names the reduction rule."""

    total: float
    slots: dict = dc_field(default_factory=dict)
    per_region: dict = dc_field(default_factory=dict)
    truncation_T: float = 0.0
    aggregation: str = "sum"


def _ghost_factor(grid, U):
    if U is None:
        return 1.0
    t, r = grid.meshes()
    z = t - r
    return np.exp(-z / (U + np.abs(z)))


def spatial_l2(f: SpaceTimeField, weight: WeightSpec = WeightSpec(),
               mask: np.ndarray | None = None) -> np.ndarray:
    """||w f(t, .)||_{L^2(dx)} for every time level.

    The inverse-r power is folded into the measure (integrand r^{2-2b} |f|^2)
    so the axis point never divides by zero.
    """
    grid = f.grid
    r = grid.r
    wr = _trapz_weights(grid.nr, grid.dr)
    # exponent 2 - 2b is in {0, 1, 2}, so r = 0 is regular (0^0 = 1 by np.power)
    rad = np.power(bracket(r), 2 * weight.power_r) * np.power(r, 2.0 - 2.0 * weight.power_inv_r)
    integrand = np.square(f.values) * (np.square(_ghost_factor(grid, weight.ghost_U))
                                       if weight.ghost_U is not None else 1.0)
    if mask is not None:
        integrand = integrand * mask
    return np.sqrt(FOUR_PI * (integrand * rad[None, :]) @ wr)


def spatial_sup(f: SpaceTimeField, weight: WeightSpec = WeightSpec()) -> np.ndarray:
    grid = f.grid
    w = np.power(bracket(grid.r), weight.power_r)[None, :]
    g = _ghost_factor(grid, weight.ghost_U)
    vals = np.abs(f.values) * w * (g if weight.ghost_U is not None else 1.0)
    return np.max(vals, axis=1)


def mixed_norm(f: SpaceTimeField, spec: MixedNormSpec) -> float:
    """Evaluate a weighted mixed norm over the whole grid."""
    if spec.inner == "L2":
        per_t = spatial_l2(f, spec.weight)
    else:
        per_t = spatial_sup(f, spec.weight)
    if spec.outer == "Linf":
        return float(np.max(per_t))
    wt = _trapz_weights(f.grid.nt, f.grid.dt)
    return float(np.sqrt(np.square(per_t) @ wt))


def region_l2l2(f: SpaceTimeField, weight: WeightSpec, mask: np.ndarray) -> float:
    per_t = spatial_l2(f, weight, mask)
    wt = _trapz_weights(f.grid.nt, f.grid.dt)
    return float(np.sqrt(np.square(per_t) @ wt))


# ----------------------------------------------------------------------
# local energy norms
# ----------------------------------------------------------------------

def _annulus_scales(grid) -> list[int]:
    return dyadic_scales(bracket(grid.r_max))


def le_norm(f: SpaceTimeField) -> float:
    """sup over dyadic R >= 1 of R^{-1/2} ||f||_{L2L2(A_R)}.

    Each annulus is constant in t, so its (1, nr) mask row stands in for the
    dense mask; the products in ``spatial_l2`` are the same elementwise.
    """
    best = 0.0
    for R in _annulus_scales(f.grid):
        row = _annulus_row(DyadicRegion(None, ANNULUS, R), f.grid)
        best = max(best, R ** -0.5 * region_l2l2(f, WeightSpec(), row))
    return best


def le1_pointwise(dt_f: np.ndarray, dr_f: np.ndarray, f_over_r: np.ndarray) -> np.ndarray:
    """Pointwise magnitude of (du, u/r) fed to the LE norm."""
    return np.sqrt(np.square(dt_f) + np.square(dr_f) + np.square(f_over_r))


def le1_norm(f: SpaceTimeField,
             dt_f: SpaceTimeField | None = None,
             dr_f: SpaceTimeField | None = None,
             f_over_r: SpaceTimeField | None = None) -> float:
    """||(du, u/r)||_LE; derivative fields may be supplied to bypass the stencils."""
    dt_v = (dt_f or derivative(f, DT)).values
    dr_v = (dr_f or derivative(f, DR)).values
    q_v = (f_over_r or quotient_by_r(f)).values
    e = SpaceTimeField(f.grid, le1_pointwise(dt_v, dr_v, q_v))
    return le_norm(e)


# ----------------------------------------------------------------------
# composite functionals
# ----------------------------------------------------------------------

def _check_params(p, delta, N):
    if not (0 < p < 1):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not (0 < delta < min(p, 1 - p)):
        raise ValueError(f"delta must lie in (0, min(p, 1-p)), got {delta}")
    if N > 3:
        raise ValueError(f"N = {N} exceeds the supported maximum 3")


class _Aggregates:
    """Pointwise sums over Z words |mu| <= N of derivative magnitudes, each
    adding the terms of one ``_z_walk`` in ``z_words`` order."""

    def __init__(self, f: SpaceTimeField, N: int):
        grid = f.grid
        _require_size(grid)
        shape = grid.shape()
        self.grid = grid
        self.good = np.zeros(shape)     # sum |(dt+dr) Z^mu f|
        self.d_t = np.zeros(shape)      # sum |dt Z^mu f|
        self.d_r = np.zeros(shape)      # sum |dr Z^mu f|
        self.d_half = np.zeros(shape)   # sum over |mu| <= N//2 of |dt| + |dr|
        self.quot = np.zeros(shape)     # sum |Z^mu f| / r
        at, ar, tmp = (np.empty(shape) for _ in range(3))
        for length, g, _, gt, gr in _z_walk(f.values, f.parity, grid.t[:, None], grid.r,
                                            grid.dt, grid.dr, N):
            self.good += np.abs(np.add(gt, gr, out=tmp), out=tmp)
            self.d_t += np.abs(gt, out=at)
            self.d_r += np.abs(gr, out=ar)
            q = _over_r(g, grid.r, tmp)
            self.quot += np.abs(q, out=q)
            if length <= N // 2:
                self.d_half += np.add(at, ar, out=tmp)

    def field(self, values) -> SpaceTimeField:
        return SpaceTimeField(self.grid, values)


class _RegionIndex:
    """The sharp R/U/core regions of the functionals on one grid.

    ``rows`` lists (kind, tau, s): every R row, then every U row, the core of
    each slab in both at s = tau/2.  Row i owns the flat positions
    ``flat[offsets[i]:offsets[i + 1]]`` of its region's per-row intervals, so
    a region sup reads only its own points.
    """

    def __init__(self, grid):
        taus = dyadic_scales(grid.t_max / 2, start=4)
        self.rows = [(kind, tau, s) for kind in (R_KIND, U_KIND) for tau in taus
                     for s in dyadic_scales(tau // 2)]
        flat = {}  # region -> flat positions; each core serves two rows
        parts = []
        for kind, tau, s in self.rows:
            region = DyadicRegion(tau, CORE) if 2 * s == tau else DyadicRegion(tau, kind, s)
            if region not in flat:
                flat[region] = _flat(*_intervals(region, grid), grid.nr)
            parts.append(flat[region])
        self.flat = np.concatenate([np.zeros(0, dtype=int), *parts])
        self.offsets = np.cumsum([0] + [len(p) for p in parts])
        self.nonempty = np.diff(self.offsets) > 0

    def sups(self, values: np.ndarray) -> list[float]:
        """max of ``values`` (>= 0) over each region; 0.0 on an empty one."""
        out = np.zeros(len(self.rows))
        out[self.nonempty] = np.maximum.reduceat(values.ravel().take(self.flat),
                                                 self.offsets[:-1][self.nonempty])
        return out.tolist()


_region_index = functools.lru_cache(maxsize=4)(_RegionIndex)


# functional -> (keeps the sup-in-t v slot, weight of the v R row, aggregation)
_FUNCTIONALS = {"M": (True, "tau", "sum (alt slots excluded)"), "A": (False, "alt", "sum")}


def _functional(kind: str, u: SpaceTimeField, v: SpaceTimeField, p: float,
                delta: float, N: int) -> NormBreakdown:
    _check_params(p, delta, N)
    if u.grid != v.grid:
        raise ValueError("u and v must share a grid")
    sup_slot, v_r_weight, aggregation = _FUNCTIONALS[kind]
    au, av = _Aggregates(u, N), _Aggregates(v, N)
    w_half = MixedNormSpec("L2", "L2", WeightSpec(power_r=(p - 1) / 2))
    dv = av.field(av.d_t + av.d_r)

    slots: dict[str, float] = {
        "u_good_l2l2": mixed_norm(au.field(au.good), w_half),
        "u_invr_l2l2": mixed_norm(au.field(au.quot), w_half),
        "v_good_l2l2": mixed_norm(av.field(av.good), w_half),
        "v_invr_l2l2": mixed_norm(av.field(av.quot), w_half),
        "u_le1": le_norm(au.field(le1_pointwise(au.d_t, au.d_r, au.quot))),
        "u_d_linfl2": mixed_norm(au.field(au.d_t + au.d_r), MixedNormSpec("Linf", "L2")),
        "v_d_weighted_l2l2": mixed_norm(
            dv, MixedNormSpec("L2", "L2", WeightSpec(power_r=-(1 + delta) / 2))),
    }
    if sup_slot:
        slots["v_d_weighted_linfl2"] = mixed_norm(
            dv, MixedNormSpec("Linf", "L2", WeightSpec(power_r=-delta / 2)))

    index = _region_index(u.grid)
    per_region: dict[str, float] = {}
    sup_u = {R_KIND: 0.0, U_KIND: 0.0}
    sq_v = {"tau": 0.0, "alt": 0.0, U_KIND: 0.0}
    for (row, tau, s), lu, lv in zip(index.rows, index.sups(au.d_half),
                                     index.sups(av.d_half)):
        per_region[f"{row} tau={tau} s={s} u"] = lu
        per_region[f"{row} tau={tau} s={s} v"] = lv
        if row == R_KIND:
            sup_u[row] = max(sup_u[row], tau ** 0.5 * s * lu)
            sq_v["tau"] += (tau ** 0.5 * s ** (1 - delta / 2) * lv) ** 2
            sq_v["alt"] += (s ** ((3 - delta) / 2) * lv) ** 2
        else:
            sup_u[row] = max(sup_u[row], tau * s ** 0.5 * lu)
            sq_v[row] += (tau ** (1 - delta / 2) * s ** 0.5 * lv) ** 2

    slots["u_R_sup"] = sup_u[R_KIND]
    slots["v_R_l2"] = float(np.sqrt(sq_v[v_r_weight]))
    slots["u_U_sup"] = sup_u[U_KIND]
    slots["v_U_l2"] = float(np.sqrt(sq_v[U_KIND]))
    total = float(sum(slots.values()))
    if v_r_weight != "alt":
        slots["v_R_l2_alt"] = float(np.sqrt(sq_v["alt"]))
    return NormBreakdown(total=total, slots=slots, per_region=per_region,
                         truncation_T=u.grid.t_max, aggregation=aggregation)


def m_functional(u: SpaceTimeField, v: SpaceTimeField, p: float, delta: float,
                 N: int) -> NormBreakdown:
    """All summands of the boundedness functional for one iterate pair (u, v).

    The ell^2 region row for v is reported in both printed weight variants
    ("v_R_l2" with tau^{1/2} R^{1-delta/2} enters the total; the
    R^{(3-delta)/2} alternative is recorded as "v_R_l2_alt").
    """
    return _functional("M", u, v, p, delta, N)


def a_functional(u_diff: SpaceTimeField, v_diff: SpaceTimeField, p: float,
                 delta: float, N: int) -> NormBreakdown:
    """Contraction functional: the boundedness slots applied to iterate
    differences, minus the sup-in-t slot for the v derivative, with the
    R^{(3-delta)/2} weight on the v region row."""
    return _functional("A", u_diff, v_diff, p, delta, N)
