"""Test oracles for the region layer.

``realize_mask`` is a copy of the dense sharp mask that the per-row intervals
replaced: every defining inequality of a region compared at every grid point,
with the 1e-12 slack, and the comparisons multiplied together.
``region_supsup`` is a copy of the dense region sup the KS checks used.  The
intervals, and everything read from them, must reproduce these bit for bit.
"""

import numpy as np

from radialwave.regions import (
    _ENLARGE_LO, ANNULUS, R_KIND, STRIP, U_KIND, RegionMask, _scaled, bracket,
)


def realize_mask(region, grid) -> RegionMask:
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
