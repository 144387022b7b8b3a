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


def traveling_sym(grid: GridSpec, width: float = 1.5, offset: float = 3.0) -> SpaceTimeField:
    """Outgoing pulse riding at r = t + offset, symmetrized in r."""
    def f(t, r):
        return _gauss(r - t - offset, width) + _gauss(-r - t - offset, width)
    return SpaceTimeField.from_function(grid, f, parity="even")


def standing_bump(grid: GridSpec, omega: float = 1.0, width: float = 2.0) -> SpaceTimeField:
    """Oscillating bump pinned near the axis."""
    def f(t, r):
        return np.cos(omega * t) * _gauss(r, width)
    return SpaceTimeField.from_function(grid, f, parity="even")


def expanding_bump(grid: GridSpec, width: float = 2.0) -> SpaceTimeField:
    """Slowly decaying bump whose support center tracks t/2; exercises the
    interior dyadic pieces without hugging the cone."""
    def f(t, r):
        return (1.0 + t) ** -0.75 * (_gauss(r - t / 2, width) + _gauss(-r - t / 2, width))
    return SpaceTimeField.from_function(grid, f, parity="even")


def cone_hugger(grid: GridSpec, width: float = 1.0) -> SpaceTimeField:
    """Pulse riding just inside the cone at t - r = 3/2; puts O(1) mass in the
    near-cone dyadic pieces that the outgoing families miss."""
    def f(t, r):
        return _gauss(r - t + 1.5, width) + _gauss(-r - t + 1.5, width)
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


def build(family_id: str, grid: GridSpec, **kwargs) -> SpaceTimeField:
    try:
        maker = ANALYTIC_FAMILIES[family_id]
    except KeyError:
        raise KeyError(
            f"unknown family {family_id!r}; known: {sorted(ANALYTIC_FAMILIES)}") from None
    return maker(grid, **kwargs)
