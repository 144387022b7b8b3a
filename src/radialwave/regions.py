"""Dyadic space-time regions, smooth cutoffs, and the ghost weight.

The geometry layer: dyadic time slabs C_tau split into annulus-indexed pieces
(away from the cone), cone-distance-indexed pieces (near it), and the core
overlap, together with their 7/8..17/8 enlargements, the chi/beta cutoffs, and
the ghost-weight profile sigma_U(z) = z / (U + |z|).

The Japanese bracket convention is <q> = sqrt(1 + q^2) throughout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec

# region kinds
R_KIND = "R"        # C^R_tau: annulus R <= r <= 2R inside the slab
U_KIND = "U"        # C^U_tau: strip U <= t-r <= 2U inside the slab
CORE = "core"       # C^{tau/2}_tau: r >= tau/2 and t-r >= tau/2
ANNULUS = "annulus"  # A_R: R <= <x> <= 2R, no time localization
STRIP = "strip"      # X_U: U <= <t-r> <= 2U, no time localization

_ENLARGE_LO = 7 / 8
_ENLARGE_HI = 17 / 8


def bracket(q):
    """Japanese bracket <q> = sqrt(1 + q^2)."""
    return np.sqrt(1.0 + np.square(q))


def is_dyadic(x) -> bool:
    if x < 1:
        return False
    l = math.log2(x)
    return abs(l - round(l)) < 1e-9


def _smoothstep(s):
    """Quintic smoothstep 6s^5 - 15s^4 + 10s^3 clamped to [0, 1]; C^2 globally."""
    s = np.clip(s, 0.0, 1.0)
    return s * s * s * (10.0 + s * (-15.0 + 6.0 * s))


def chi(z):
    """C^2 cutoff: 0 for z <= 7/8, 1 for z >= 1, monotone quintic in between."""
    return _smoothstep((np.asarray(z, dtype=float) - 7 / 8) / (1 / 8))


def beta(z):
    """beta(z) = chi(z) - chi(z - 9/8): 1 on [1, 2], 0 outside [7/8, 17/8]."""
    z = np.asarray(z, dtype=float)
    return chi(z) - chi(z - 9 / 8)


def sigma_U(z, U: float):
    """Ghost-weight profile z / (U + |z|); odd, strictly increasing, |.| < 1."""
    if U < 1:
        raise ValueError("U must be >= 1")
    z = np.asarray(z, dtype=float)
    return z / (U + np.abs(z))


def sigma_U_prime(z, U: float):
    """d/dz of sigma_U: U / (U + |z|)^2 > 0."""
    if U < 1:
        raise ValueError("U must be >= 1")
    z = np.asarray(z, dtype=float)
    return U / np.square(U + np.abs(z))


@dataclass(frozen=True)
class DyadicRegion:
    """Symbolic dyadic region.

    ``scale`` is R for R_KIND/ANNULUS, U for U_KIND/STRIP, and None for CORE.
    ``enlargement``: 0 = plain, 1 = tilde, 2 = double tilde.
    """

    tau: int | None
    kind: str
    scale: int | None = None
    enlargement: int = 0

    def __post_init__(self):
        if self.kind not in (R_KIND, U_KIND, CORE, ANNULUS, STRIP):
            raise ValueError(f"unknown region kind {self.kind!r}")
        if self.kind in (R_KIND, U_KIND, CORE):
            if self.tau is None or not is_dyadic(self.tau):
                raise ValueError(f"tau must be dyadic, got {self.tau}")
        if self.kind in (R_KIND, U_KIND):
            if self.scale is None or not is_dyadic(self.scale):
                raise ValueError(f"scale must be dyadic, got {self.scale}")
            if self.scale > self.tau / 4:
                raise ValueError(
                    f"{self.kind}-scale {self.scale} exceeds tau/4 = {self.tau / 4}"
                )
        if self.kind in (ANNULUS, STRIP) and (self.scale is None or not is_dyadic(self.scale)):
            raise ValueError("annulus/strip regions need a dyadic scale")
        if self.enlargement not in (0, 1, 2):
            raise ValueError("enlargement must be 0, 1, or 2")

    def enlarged(self, level: int = 1) -> "DyadicRegion":
        return DyadicRegion(self.tau, self.kind, self.scale, level)

    def descriptor(self) -> dict:
        return {
            "tau": self.tau,
            "kind": self.kind,
            "scale": self.scale,
            "enlargement": self.enlargement,
        }

    def to_json(self) -> str:
        return json.dumps(self.descriptor(), sort_keys=True)


@dataclass
class RegionMask:
    """Realized per-gridpoint weights in [0, 1] for a region on a grid.

    Sharp masks ({0,1}-valued) are used for norm bookkeeping so that region
    accounting stays exactly additive; smooth beta-product masks are only for
    replaying localization arguments.
    """

    region: DyadicRegion
    grid: GridSpec
    weights: np.ndarray

    def __post_init__(self):
        if self.weights.shape != self.grid.shape():
            raise ValueError("mask shape does not match grid")


def enumerate_regions(tau: int, grid: GridSpec) -> list[DyadicRegion]:
    """All plain regions of the slab C_tau: R-kind, U-kind (dyadic scales up to
    tau/4) plus the core, in deterministic order."""
    if not is_dyadic(tau):
        raise ValueError(f"tau must be a power of two, got {tau}")
    if tau < 4:
        raise ValueError(f"tau = {tau} below the dyadic regime (tau >= 4)")
    if tau > grid.t_max / 2 + 1e-12:
        raise ValueError(f"slab [{tau}, {2 * tau}] extends beyond t_max = {grid.t_max}")
    scales = dyadic_scales(tau // 4)
    out = [DyadicRegion(tau, R_KIND, s) for s in scales]
    out += [DyadicRegion(tau, U_KIND, s) for s in scales]
    out.append(DyadicRegion(tau, CORE))
    return out


def _scaled(lo: float, hi: float, level: int) -> tuple[float, float]:
    # plain [s, 2s] widens to [7s/8, 17s/8]: the upper endpoint moves by
    # 17/16 so it lands at (17/8) * scale, not (17/8) * (2 * scale)
    for _ in range(level):
        lo, hi = _ENLARGE_LO * lo, (_ENLARGE_HI / 2.0) * hi
    return lo, hi


def realize_mask(region: DyadicRegion, grid: GridSpec, smooth: bool = False) -> RegionMask:
    """Per-gridpoint mask for a region.

    Plain regions are sharp indicators of the defining inequalities.  Enlarged
    regions scale each two-sided constraint by 7/8 (lower) and 17/8-style
    factors (upper), once per enlargement level; with ``smooth`` they are
    realized as beta-profile products supported in the enlargement instead.
    """
    t, r = grid.meshes()
    tau, kind, scale, lev = region.tau, region.kind, region.scale, region.enlargement

    if kind == ANNULUS:
        w = _annulus_row(region, grid, smooth)
        return RegionMask(region, grid, np.broadcast_to(w, grid.shape()).copy())
    if kind == STRIP:
        lo, hi = _scaled(scale, 2 * scale, lev)
        w = _band(bracket(t - r), lo, hi, smooth, scale, lev, two_sided=True)
        return RegionMask(region, grid, w)

    # slab pieces: time localization tau <= t <= 2tau (scaled if enlarged),
    # always intersected with the propagation cone C = {r <= t + 2}
    t_lo, t_hi = _scaled(tau, 2 * tau, lev)
    in_cone = r <= t + 2 + 1e-12
    wt = _band(t, t_lo, t_hi, smooth, tau, lev, two_sided=True)

    if kind == R_KIND:
        if scale == 1:
            # C^{R=1}_tau = C_tau \cap {r <= 2}; enlargement relaxes only the top
            _, r_hi = _scaled(1.0, 2.0, lev)
            wr = _upper(r, r_hi, smooth)
        else:
            r_lo, r_hi = _scaled(scale, 2 * scale, lev)
            wr = _band(r, r_lo, r_hi, smooth, scale, lev, two_sided=True)
    elif kind == U_KIND:
        if scale == 1:
            _, u_hi = _scaled(1.0, 2.0, lev)
            wr = _upper(np.abs(t - r), u_hi, smooth)
        else:
            u_lo, u_hi = _scaled(scale, 2 * scale, lev)
            wr = _band(t - r, u_lo, u_hi, smooth, scale, lev, two_sided=True)
    else:  # core: r >= tau/2 and t - r >= tau/2, lower bounds scaled down if enlarged
        lo = (tau / 2) * (_ENLARGE_LO ** lev)
        wr = _lower(r, lo, smooth) * _lower(t - r, lo, smooth)

    w = np.broadcast_to(wt * wr, grid.shape()) * in_cone
    return RegionMask(region, grid, np.asarray(w, dtype=float).copy())


def _annulus_row(region: DyadicRegion, grid: GridSpec, smooth: bool = False) -> np.ndarray:
    """The (1, nr) row of an annulus mask; the mask repeats it at every t."""
    scale, lev = region.scale, region.enlargement
    lo, hi = _scaled(scale, 2 * scale, lev)
    return _band(bracket(grid.r[None, :]), lo, hi, smooth, scale, lev, two_sided=True)


def _band(x, lo, hi, smooth, scale, lev, two_sided=True):
    if not smooth:
        return ((x >= lo - 1e-12) & (x <= hi + 1e-12)).astype(float)
    # beta gives exactly this support for the tilde of [scale, 2*scale]
    if lev >= 1:
        return beta(np.asarray(x, dtype=float) / (scale * (_ENLARGE_LO ** (lev - 1))))
    return beta(np.asarray(x, dtype=float) / scale)


def _upper(x, hi, smooth):
    if not smooth:
        return (x <= hi + 1e-12).astype(float)
    # 1 below hi - 1/8, 0 above hi, C^2 transition
    return 1.0 - _smoothstep((np.asarray(x, dtype=float) - (hi - 1 / 8)) / (1 / 8))


def _lower(x, lo, smooth):
    if not smooth:
        return (x >= lo - 1e-12).astype(float)
    return _smoothstep((np.asarray(x, dtype=float) - (lo - 1 / 8)) / (1 / 8))


def _row_intervals(weights: np.ndarray):
    """(rows, j_lo, j_hi): every maximal run [j_lo, j_hi) of weights > 0 along
    a time row, in row-major order."""
    inside = np.zeros((weights.shape[0], weights.shape[1] + 2), dtype=np.int8)
    inside[:, 1:-1] = weights > 0
    step = np.diff(inside, axis=1)
    rows, j_lo = np.nonzero(step == 1)
    _, j_hi = np.nonzero(step == -1)
    return rows, j_lo, j_hi


def slab_mask(tau: float, grid: GridSpec) -> np.ndarray:
    """Sharp indicator of the slab C_tau = {tau <= t <= 2tau, r <= t + 2}."""
    t, r = grid.meshes()
    return ((t >= tau - 1e-12) & (t <= 2 * tau + 1e-12) & (r <= t + 2 + 1e-12)).astype(float)


def dyadic_scales(limit: float, start: int = 1) -> list[int]:
    """Dyadic values start, 2*start, ... <= limit."""
    out = []
    s = start
    while s <= limit + 1e-12:
        out.append(s)
        s *= 2
    return out
