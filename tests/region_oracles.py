"""Test oracles for the region layer.

``inequality_mask`` is a copy of the dense sharp mask that the per-row
intervals replaced: every defining inequality of a region compared at every
grid point, with the 1e-12 slack, and the comparisons multiplied together.
``region_supsup`` is a copy of the dense region sup the KS checks used.  The
intervals, and everything read from them, must reproduce these bit for bit.
``realize_mask`` renders the intervals themselves as a dense mask
(``RegionMask``), ``slab_mask`` is the dense slab C_tau and
``enumerate_regions`` lists the plain regions of a slab.
"""

from dataclasses import dataclass

import numpy as np

from radialwave.grid import GridSpec
from radialwave.regions import (
    _ENLARGE_LO, ANNULUS, CORE, R_KIND, STRIP, U_KIND, DyadicRegion, _flat, _intervals,
    _scaled, bracket, dyadic_scales, is_dyadic,
)


@dataclass
class RegionMask:
    """The sharp {0, 1} indicator of a region on a grid; sharp masks keep
    region accounting exactly additive."""

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


def realize_mask(region: DyadicRegion, grid: GridSpec) -> RegionMask:
    """The sharp indicator of a region, rendered from its per-row intervals."""
    w = np.zeros(grid.shape())
    np.put(w, _flat(*_intervals(region, grid), grid.nr), 1.0)
    return RegionMask(region, grid, w)


def slab_mask(tau: float, grid: GridSpec) -> np.ndarray:
    """Sharp indicator of the slab C_tau = {tau <= t <= 2tau, r <= t + 2}."""
    t, r = grid.meshes()
    return ((t >= tau - 1e-12) & (t <= 2 * tau + 1e-12) & (r <= t + 2 + 1e-12)).astype(float)


def inequality_mask(region, grid) -> RegionMask:
    t, r = grid.meshes()
    tau, kind, scale, lev = region.tau, region.kind, region.scale, region.enlargement

    if kind == ANNULUS:
        w = _annulus_row(region, grid)
        return RegionMask(region, grid, np.broadcast_to(w, grid.shape()).copy())
    if kind == STRIP:
        lo, hi = _scaled(scale, 2 * scale, lev)
        w = _band(bracket(t - r), lo, hi)
        return RegionMask(region, grid, w)

    t_lo, t_hi = _scaled(tau, 2 * tau, lev)
    in_cone = r <= t + 2 + 1e-12
    wt = _band(t, t_lo, t_hi)

    if kind == R_KIND:
        if scale == 1:
            _, r_hi = _scaled(1.0, 2.0, lev)
            wr = _upper(r, r_hi)
        else:
            r_lo, r_hi = _scaled(scale, 2 * scale, lev)
            wr = _band(r, r_lo, r_hi)
    elif kind == U_KIND:
        if scale == 1:
            _, u_hi = _scaled(1.0, 2.0, lev)
            wr = _upper(np.abs(t - r), u_hi)
        else:
            u_lo, u_hi = _scaled(scale, 2 * scale, lev)
            wr = _band(t - r, u_lo, u_hi)
    else:  # core
        lo = (tau / 2) * (_ENLARGE_LO ** lev)
        wr = _lower(r, lo) * _lower(t - r, lo)

    w = np.broadcast_to(wt * wr, grid.shape()) * in_cone
    return RegionMask(region, grid, np.asarray(w, dtype=float).copy())


def _annulus_row(region, grid) -> np.ndarray:
    scale, lev = region.scale, region.enlargement
    lo, hi = _scaled(scale, 2 * scale, lev)
    return _band(bracket(grid.r[None, :]), lo, hi)


def _band(x, lo, hi):
    return ((x >= lo - 1e-12) & (x <= hi + 1e-12)).astype(float)


def _upper(x, hi):
    return (x <= hi + 1e-12).astype(float)


def _lower(x, lo):
    return (x >= lo - 1e-12).astype(float)


def region_supsup(values: np.ndarray, mask: np.ndarray) -> float:
    return float(np.max(np.where(mask > 0, np.abs(values), 0.0)))
