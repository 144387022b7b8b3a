"""Sharp dyadic space-time regions as per-row intervals, and the ghost weight.

The geometry layer: dyadic time slabs C_tau split into annulus-indexed pieces
(away from the cone), cone-distance-indexed pieces (near it), and the core
overlap, with their 7/8..17/8 enlargements, and the ghost-weight profile
sigma_U(z) = z / (U + |z|).  A sharp region is defined once, by the runs
[j_lo, j_hi) of each time row on which its inequalities hold (``_intervals``);
every region sup and region L2 norm reads their points.  ``realize_mask``
renders them as a dense mask; nothing in the package calls it.

The Japanese bracket convention is <q> = sqrt(1 + q^2) throughout.
"""

from __future__ import annotations

import functools
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
    return _bracket(q)


def _bracket(q):  # private: the benchmark tracer records no span per bisection probe
    return np.sqrt(1.0 + np.square(q))


def is_dyadic(x) -> bool:
    if x < 1:
        return False
    l = math.log2(x)
    return abs(l - round(l)) < 1e-9


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


def _scaled(lo: float, hi: float, level: int) -> tuple[float, float]:
    # plain [s, 2s] widens to [7s/8, 17s/8]: the upper endpoint moves by
    # 17/16 so it lands at (17/8) * scale, not (17/8) * (2 * scale)
    for _ in range(level):
        lo, hi = _ENLARGE_LO * lo, (_ENLARGE_HI / 2.0) * hi
    return lo, hi


def realize_mask(region: DyadicRegion, grid: GridSpec) -> RegionMask:
    """The sharp indicator of a region, rendered from its per-row intervals."""
    w = np.zeros(grid.shape())
    np.put(w, _flat(*_intervals(region, grid), grid.nr), 1.0)
    return RegionMask(region, grid, w)


@functools.lru_cache(maxsize=64)
def _intervals(region: DyadicRegion, grid: GridSpec):
    """(rows, j_lo, j_hi): every maximal run [j_lo, j_hi) of a sharp region
    along a time row, in row-major order; memoised, so shared and read-only.
    64 entries hold the 44 (region, grid) pairs of an estimate-ratio sweep over
    two grids and the 31 of a Picard run."""
    rows, tests = _conditions(region, grid)
    n = np.flatnonzero(rows)
    i, j_lo, j_hi = _runs(tests, grid.t[n], grid.r)
    out = (n[i], j_lo, j_hi)
    for a in out:
        a.flags.writeable = False
    return out


def _flat(rows, j_lo, j_hi, nr: int) -> np.ndarray:
    """Row-major flat positions of the points of per-row intervals."""
    n = j_hi - j_lo
    return np.repeat(rows * nr + j_lo - (np.cumsum(n) - n), n) + np.arange(n.sum())


def _band(x, lo=None, hi=None):
    """The tests x(t, r) >= lo and x(t, r) <= hi, each with the 1e-12 slack."""
    return ([] if lo is None else [lambda t, r: x(t, r) >= lo - 1e-12]) + (
        [] if hi is None else [lambda t, r: x(t, r) <= hi + 1e-12])


def _conditions(region: DyadicRegion, grid: GridSpec):
    """The time rows a region meets and its pointwise tests (t, r) -> bool.

    Slab pieces keep the rows with tau <= t <= 2tau and always lie in the
    propagation cone C = {r <= t + 2}.  Enlargement scales each two-sided
    constraint by 7/8 (lower) and 17/8-style factors (upper), once per level.
    """
    tau, kind, scale, lev = region.tau, region.kind, region.scale, region.enlargement
    if kind in (ANNULUS, STRIP):
        x = (lambda t, r: _bracket(r)) if kind == ANNULUS else (lambda t, r: _bracket(t - r))
        return np.ones(grid.nt, dtype=bool), _band(x, *_scaled(scale, 2 * scale, lev))
    t_lo, t_hi = _scaled(tau, 2 * tau, lev)
    rows = (grid.t >= t_lo - 1e-12) & (grid.t <= t_hi + 1e-12)
    tests = [lambda t, r: r <= t + 2 + 1e-12]
    radius, cone_distance = (lambda t, r: r), (lambda t, r: t - r)
    if kind == CORE:  # r >= tau/2 and t - r >= tau/2, scaled down if enlarged
        lo = (tau / 2) * (_ENLARGE_LO ** lev)
        return rows, tests + _band(radius, lo) + _band(cone_distance, lo)
    lo, hi = _scaled(scale, 2 * scale, lev)
    if scale > 1:
        return rows, tests + _band(radius if kind == R_KIND else cone_distance, lo, hi)
    # C^{R=1}_tau = C_tau with r <= 2, C^{U=1}_tau = C_tau with |t - r| <= 2;
    # enlargement relaxes only the top
    return rows, tests + _band(radius if kind == R_KIND else lambda t, r: np.abs(t - r), hi=hi)


def _runs(tests, t: np.ndarray, r: np.ndarray):
    """(rows, j_lo, j_hi): the maximal runs [j_lo, j_hi) along each row t[i]
    where every test holds, in row-major order.

    Along a row, r and the float t - r are monotone in j, and |t - r| and
    bracket(t - r) are monotone on each side of the sign change of t - r.  So
    on each side every test holds on a prefix or a suffix, found by bisection
    on the test itself, and all of them on one interval: a row has at most
    two runs, joined where they meet at the sign change.
    """
    n = t.size
    start, stop = np.zeros(n, dtype=int), np.full(n, r.size)
    cut = _edge(lambda t, r: t - r >= 0, t, r, start, stop)[1]
    # both sides of every row at once: entries i and n + i are row i's sides
    a, b = np.concatenate([start, cut]), np.concatenate([cut, stop])
    t2, lo, hi = np.concatenate([t, t]), a, b
    for test in tests:
        holds, edge = _edge(test, t2, r, a, b)
        lo = np.where(holds, lo, np.maximum(lo, edge))
        hi = np.where(holds, np.minimum(hi, edge), hi)
    keep = lo < hi
    # join the two runs of a row where they meet at the sign change
    join = keep[:n] & keep[n:] & (hi[:n] == lo[n:])
    hi[:n] = np.where(join, hi[n:], hi[:n])
    keep[n:] &= ~join
    rows = np.flatnonzero(keep) % n
    order = np.argsort(rows, kind="stable")
    return rows[order], lo[keep][order], hi[keep][order]


def _edge(test, t, r, a, b):
    """Per row, whether ``test`` holds at column a, and the first column in
    [a, b) where it differs from that (b if none): a bisection, exact when the
    test is monotone along [a, b)."""
    last = r.size - 1
    holds = test(t, r[np.minimum(a, last)])
    lo, hi = a + 1, b
    while True:
        live = lo < hi
        if not live.any():
            return holds, np.minimum(lo, b)
        mid = (lo + hi) // 2
        same = test(t, r[np.minimum(mid, last)]) == holds
        lo = np.where(live & same, mid + 1, lo)
        hi = np.where(live & ~same, mid, hi)


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
