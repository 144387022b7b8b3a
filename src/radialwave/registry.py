"""Shared family of test fields used by the estimate checks.

Every family is an even-in-r scalar field: a function pointwise in (t, r),
sampled per block of rows (``SpaceTimeField.from_function``) on the requested
grid, so the axis stencils in the derivative layer are exact.  The traveling
families symmetrize a pulse with its reflection through r = 0; the reflected
copy is analytically tiny on r >= 0 but keeps the even parity honest.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec, SpaceTimeField


def _gauss(s, width):
    return np.exp(-np.square(s / width))


def traveling_sym(grid: GridSpec) -> SpaceTimeField:
    """Outgoing pulse of width 3/2 riding at r = t + 3, symmetrized in r."""
    def f(t, r):
        return _gauss(r - t - 3.0, 1.5) + _gauss(-r - t - 3.0, 1.5)
    return SpaceTimeField.from_function(grid, f, parity="even")


def standing_bump(grid: GridSpec) -> SpaceTimeField:
    """Bump of width 2 pinned near the axis, oscillating as cos t."""
    def f(t, r):
        return np.cos(t) * _gauss(r, 2.0)
    return SpaceTimeField.from_function(grid, f, parity="even")


def expanding_bump(grid: GridSpec) -> SpaceTimeField:
    """Slowly decaying bump of width 2 whose support center tracks t/2;
    exercises the interior dyadic pieces without hugging the cone."""
    def f(t, r):
        return (1.0 + t) ** -0.75 * (_gauss(r - t / 2, 2.0) + _gauss(-r - t / 2, 2.0))
    return SpaceTimeField.from_function(grid, f, parity="even")


def cone_hugger(grid: GridSpec) -> SpaceTimeField:
    """Pulse of width 1 riding just inside the cone at t - r = 3/2; puts O(1)
    mass in the near-cone dyadic pieces that the outgoing families miss."""
    def f(t, r):
        return _gauss(r - t + 1.5, 1.0) + _gauss(-r - t + 1.5, 1.0)
    return SpaceTimeField.from_function(grid, f, parity="even")


ANALYTIC_FAMILIES = {
    "traveling_sym": traveling_sym,
    "standing_bump": standing_bump,
    "expanding_bump": expanding_bump,
    "cone_hugger": cone_hugger,
}

# (family, region kind, dyadic scale) combinations for the slab at tau = 8
# where the family carries O(1) mass, so pointwise-over-mass ratios are not
# differencing noise
KS_COMBOS = [
    ("standing_bump", "R", 1),
    ("expanding_bump", "R", 2),
    ("cone_hugger", "U", 1),
    ("cone_hugger", "U", 2),
]


def build(family_id: str, grid: GridSpec) -> SpaceTimeField:
    try:
        maker = ANALYTIC_FAMILIES[family_id]
    except KeyError:
        raise KeyError(
            f"unknown family {family_id!r}; known: {sorted(ANALYTIC_FAMILIES)}") from None
    return maker(grid)
