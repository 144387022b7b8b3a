"""Weighted mixed space-time norms by trapezoidal quadrature.

All spatial integrals use the radial measure dx = 4*pi*r^2 dr, and
global-in-time norms are truncated to the grid horizon [0, t_max].  Every
norm is one reduction: ``_row_sums`` sums 4 pi <r>^{2a} r^{2-2b} w_r f^2 over
each time row's points with ``np.add.reduceat`` (a row's value does not depend
on the other rows), then ``_t_norm`` takes the root of their trapezoid (L2)
or of their max (Linf) in t; ``_norm`` is both steps.  The whole grid is the
region of full rows, summed at the row starts of the flat array with no
gather, and so is each annulus of ``le_norm`` on its run of columns.  A
region L2 norm sums only its region's points: the estimate checks pass the
points of a region's per-row intervals, ``region_l2l2`` the nonzero points of
a sharp mask, so both give bit-equal norms on one region.  A region reduction
reads an array holding a window of the grid (a pair of slices, the whole grid
by default), in which ``_window_pos`` finds a region's points.

Every streamed value goes through one reducer, ``_stream``: one
``grid._word_sums`` pass per window of the grid, asking only for the sums its
slots read, reduced straight into the per-row sums of every slot (whole rows,
row 0, a region's points, the per-annulus row sums of ``le_norm`` from
``_le_rows``) and into region sups, then each slot once in t, so every value
equals the whole-grid one bit for bit and no array of the grid's size is
built.  The windows are the blocks of full time rows of ``_blocks`` for the
M/A functionals (``_functionals``, one ``_stream`` call per field;
``m_and_a_functionals`` reads both functionals off one pass), ``le1_norm`` and
the ratio checks of ``estimates``; a Klainerman-Sobolev check passes the
boxes of its enlarged region that it walks (``estimates._ks_windows``).  The
sums stop at the light cone but come at the full width, +0.0 past the cut:
``np.add.reduceat`` blocks its pairwise sum by the row's length, so a row
sum without its trailing zeros could differ in the last bit.

``_region_sups`` is the one region-sup reducer: the max of |values| over
each of a list of regions' points in a window, from one gather (maxima per
interval, then per region).  ``_stream`` takes it for a slot whose region is
a list: every R/U/core region per block in the functionals, the plain
region per window in a Klainerman-Sobolev check.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field

import numpy as np

from .grid import DT, DR, SpaceTimeField, _span, _trapz_weights, _word_sums
from .regions import (
    ANNULUS, CORE, R_KIND, U_KIND, DyadicRegion, _flat, _intervals, bracket,
    dyadic_scales,
)

FOUR_PI = 4.0 * np.pi
_GRID = np.s_[:, :]  # the window of the whole grid


class NormSpecError(ValueError):
    pass


@dataclass(frozen=True)
class WeightSpec:
    """Pointwise weight <r>^power_r * r^(-power_inv_r)."""

    power_r: float = 0.0
    power_inv_r: float = 0.0

    def __post_init__(self):
        if self.power_inv_r not in (0.0, 0.5, 1.0):
            raise NormSpecError(f"power_inv_r must be 0, 1/2, or 1; got {self.power_inv_r}")


@dataclass
class NormBreakdown:
    """Total plus per-summand values."""

    total: float
    slots: dict = dc_field(default_factory=dict)
    per_region: dict = dc_field(default_factory=dict)


def _row_sums(values: np.ndarray, grid, weight: WeightSpec, pos: np.ndarray | None = None,
              window=_GRID) -> tuple[np.ndarray, np.ndarray]:
    """(rows, sums): sum_j 4 pi <r_j>^{2a} r_j^{2-2b} w_j values_j^2 over each
    row's points, for every grid row that holds points, of ``values`` holding
    the cells ``window``.  The points are the ascending row-major flat
    positions ``pos`` in ``values``, or all of ``values`` (full rows) when
    ``pos`` is None.  The inverse-r power is folded into the measure, and
    2 - 2b is in {0, 1, 2}, so r = 0 is regular (0^0 = 1)."""
    w = _measure(grid, weight)[window[1]]
    lo = _span(window[0], grid.nt)[0]
    if pos is None:
        sq = np.square(values)
        sq *= w
        return np.arange(len(sq)) + lo, np.add.reduceat(sq.ravel(), np.arange(0, sq.size, w.size))
    rows, cols = np.divmod(pos, w.size)
    sq = np.square(values.take(pos))
    sq *= w.take(cols)
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return rows.take(starts) + lo, np.add.reduceat(sq, starts)


@functools.lru_cache(maxsize=64)
def _measure(grid, weight: WeightSpec) -> np.ndarray:
    """4 pi <r_j>^{2a} r_j^{2-2b} w_j on every column of ``grid``; memoised
    per grid and weight, read-only, as the blocks of one norm share it."""
    r = grid.r
    w = (FOUR_PI * np.power(bracket(r), 2 * weight.power_r)
         * np.power(r, 2.0 - 2.0 * weight.power_inv_r) * _trapz_weights(grid.nr, grid.dr))
    w.flags.writeable = False
    return w


def _t_norm(rows: np.ndarray, sums: np.ndarray, grid, outer: str) -> float:
    """The one reduction in t of row sums: the root of their max (Linf) or of
    their trapezoid over the rows that hold points (L2)."""
    if outer == "Linf":
        return float(np.sqrt(np.max(sums)))
    return float(np.sqrt(sums @ _trapz_weights(grid.nt, grid.dt).take(rows)))


def _norm(values: np.ndarray, grid, outer: str, weight: WeightSpec,
          pos: np.ndarray | None = None, window=_GRID) -> float:
    """``_t_norm`` of ``_row_sums``."""
    return _t_norm(*_row_sums(values, grid, weight, pos, window), grid, outer)


def spatial_l2(f: SpaceTimeField, weight: WeightSpec = WeightSpec()) -> np.ndarray:
    """||w f(t, .)||_{L^2(dx)} for every time level, each row reduced on its own."""
    return np.sqrt(_row_sums(f.values, f.grid, weight)[1])


def mixed_norm(f: SpaceTimeField, outer: str, weight: WeightSpec = WeightSpec()) -> float:
    """||w f||_{L^outer_t L^2_x} over the whole grid, ``outer`` "L2" or "Linf"."""
    if outer not in ("L2", "Linf"):
        raise NormSpecError(f"outer must be 'L2' or 'Linf'; got {outer!r}")
    return _norm(f.values, f.grid, outer, weight)


def region_l2l2(f: SpaceTimeField, weight: WeightSpec, mask: np.ndarray) -> float:
    """L2L2 norm of ``f`` on a sharp 0/1 mask that broadcasts to the grid."""
    mask = np.broadcast_to(mask, f.grid.shape())
    if not np.all((mask == 0) | (mask == 1)):
        raise ValueError("region_l2l2 takes a sharp mask: every value 0 or 1")
    return _norm(f.values, f.grid, "L2", weight, np.flatnonzero(mask))


def _window_pos(intervals, grid, window) -> np.ndarray:
    """Flat positions, in an array holding the cells ``window``, of the points
    of per-row intervals on the window's rows; the intervals must lie in its
    columns."""
    (lo, hi), (c_lo, c_hi) = _span(window[0], grid.nt), _span(window[1], grid.nr)
    rows, j_lo, j_hi = intervals
    a, b = np.searchsorted(rows, (lo, hi))
    return _flat(rows[a:b] - lo, j_lo[a:b] - c_lo, j_hi[a:b] - c_lo, c_hi - c_lo)


# ----------------------------------------------------------------------
# local energy norms
# ----------------------------------------------------------------------

def le_norm(f: SpaceTimeField) -> float:
    """sup over dyadic R >= 1 of R^{-1/2} ||f||_{L2L2(A_R)}."""
    return _le_reduce([_le_rows(f.values, f.grid, _annuli(f.grid))], f.grid)


def _annuli(grid) -> list:
    """The columns of each dyadic annulus A_R, R >= 1, in turn, one slice: an
    annulus holds the same run of columns on every row (``_intervals``)."""
    runs = (_intervals(DyadicRegion(None, ANNULUS, R), grid)
            for R in dyadic_scales(bracket(grid.r_max)))
    return [slice(j_lo[0], j_hi[0]) if len(j_lo) else slice(0, 0) for _, j_lo, j_hi in runs]


def _le_rows(values: np.ndarray, grid, annuli: list, window=_GRID) -> list:
    """Per dyadic annulus A_R in turn: the (rows, sums) of ``_row_sums`` on its
    columns (``annuli``, from ``_annuli``) of ``values`` holding the full rows ``window``."""
    return [_row_sums(values[:, cols], grid, WeightSpec(), window=(window[0], cols))
            if cols.stop > cols.start else (np.zeros(0, int), np.zeros(0)) for cols in annuli]


def _le_reduce(blocks: list, grid) -> float:
    """``le_norm`` from the ``_le_rows`` of consecutive blocks of rows."""
    best = 0.0
    for R, parts in zip(dyadic_scales(bracket(grid.r_max)), zip(*blocks)):
        rows, sums = (np.concatenate(x) for x in zip(*parts))
        best = max(best, R ** -0.5 * _t_norm(rows, sums, grid, "L2"))
    return best


def le1_norm(f: SpaceTimeField) -> float:
    """||(du, u/r)||_LE, from the (0, dt), (0, dr) and (0, quot) word sums,
    streamed in blocks of rows as the u_le1 slot of the functionals."""
    return _stream(f, ((0, DT), (0, DR), (0, "quot")), {"le1": (0, None, "LE")})["le1"]


def _stream(f: SpaceTimeField, keys: tuple, slots: dict, windows: list | None = None,
            over_r: bool = False) -> dict:
    """The value of every slot of ``slots`` (name -> (term, weight, where)) on
    ``f``, from one ``grid._word_sums`` pass of ``keys`` per window of
    ``windows`` (pairs of slices; by default the full rows of each block of
    ``_blocks``): each window reduces straight into per-row sums and region
    sups, then each slot once in t, so every value equals the whole-grid one
    bit for bit and no array of the grid's size is built.  With ``over_r`` the
    slots are those of u = W / r of a conjugate field ``f`` = W, divided per
    walk by ``_word_sums``.

    ``term`` is a key of ``keys`` or a function of a window's sums.  ``where``
    is "L2" or "Linf" (the mixed norm with ``weight`` over whole rows), "data"
    (its row 0), a region (its L2L2 norm on the region's points), a list of
    regions (the max of |term| over each region's points, as a list, from
    ``_region_sups``), "LE" (``le1_norm`` of the (n, dt), (n, dr) and
    (n, quot) sums, ``term`` naming n) or "dx dt" (the integral over
    4 pi r^2 dr dt: row sums, then the trapezoid in t).  The windows take
    disjoint runs of rows in ascending order, and must hold every point of
    the slots' regions on their rows; only region slots read a window that
    is not full rows."""
    grid = f.grid
    if windows is None:
        windows = [(slice(lo, hi), slice(None)) for lo, hi in _blocks(grid.nt)]
    points = {name: _region_intervals(where, grid) if isinstance(where, list)
              else _intervals(where, grid)
              for name, (*_, where) in slots.items() if not isinstance(where, str)}
    annuli, measure = _annuli(grid), _measure(grid, WeightSpec())
    parts = {name: [] for name in slots}
    for window in windows:
        lo, hi = _span(window[0], grid.nt)
        sums = _word_sums(f, keys, window, over_r)
        for name, (term, weight, where) in slots.items():
            if where == "data" and lo > 0:
                continue
            if where == "LE":  # |(du, u/r)| of the (n, dt), (n, dr) and (n, quot) sums
                values = np.sqrt(sum(np.square(sums[term, key]) for key in (DT, DR, "quot")))
                parts[name].append(_le_rows(values, grid, annuli, window))
                continue
            values = term(sums) if callable(term) else sums[term]
            if isinstance(where, list):
                parts[name].append(_region_sups(values, points[name], len(where), grid, window))
            elif where == "dx dt":
                parts[name].append((np.arange(lo, hi), np.sum(values * measure, axis=1)))
            elif where == "data":
                parts[name].append(_row_sums(values[:1], grid, weight))
            else:
                pos = _window_pos(points[name], grid, window) if name in points else None
                parts[name].append(_row_sums(values, grid, weight, pos, window))
        sums = values = None  # freed before the next window's pass
    out = {}
    for name, (_, _, where) in slots.items():
        if where == "LE":
            out[name] = _le_reduce(parts[name], grid)
        elif isinstance(where, list):
            out[name] = np.max(parts[name], axis=0).tolist()
        else:
            rows, sums = (np.concatenate(x) for x in zip(*parts[name]))
            if where == "data":
                out[name] = float(np.sqrt(sums[0]))
            elif where == "dx dt":
                out[name] = float(sums @ _trapz_weights(grid.nt, grid.dt))
            else:
                out[name] = _t_norm(rows, sums, grid, "Linf" if where == "Linf" else "L2")
    return out


# ----------------------------------------------------------------------
# composite functionals
# ----------------------------------------------------------------------

def _check_params(p, delta, N):
    if not (0 < p < 1):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not (0 < delta < min(p, 1 - p)):
        raise ValueError(f"delta must lie in (0, min(p, 1-p)), got {delta}")
    if not 0 <= N <= 3:
        raise ValueError(f"N = {N} lies outside the supported range 0..3")


def _region_rows(grid) -> list:
    """(kind, tau, s, region): every R row, then every U row, the core of each
    slab in both at s = tau/2."""
    return [(kind, tau, s, DyadicRegion(tau, CORE) if 2 * s == tau else DyadicRegion(tau, kind, s))
            for kind in (R_KIND, U_KIND) for tau in dyadic_scales(grid.t_max / 2, start=4)
            for s in dyadic_scales(tau // 2)]


# the M/A functionals, ``le1_norm`` and the ratio checks of ``estimates`` walk
# the grid, the Picard driver builds its sources, and the Klainerman-Sobolev
# checks walk a U strip, in blocks of this many rows or more
_BLOCK_ROWS = 64

# functional -> (keeps the sup-in-t v slot, weight of the v R row)
_FUNCTIONALS = {"M": (True, "tau"), "A": (False, "alt")}


def _blocks(nt: int) -> list:
    """(lo, hi) of max(1, nt // _BLOCK_ROWS) consecutive blocks of rows that
    cover [0, nt), their sizes within one of each other: none is short."""
    n = max(1, nt // _BLOCK_ROWS)
    return [(nt * i // n, nt * (i + 1) // n) for i in range(n)]


def _region_intervals(regions: list, grid) -> tuple:
    """(rows, j_lo, j_hi, index): the per-row intervals of every region of
    ``regions`` in ascending row order, ``index`` naming each interval's
    region."""
    parts = [_intervals(region, grid) for region in regions] or [(np.zeros(0, int),) * 3]
    index = np.repeat(np.arange(len(parts)), [len(rows) for rows, *_ in parts])
    order = np.argsort(np.concatenate([rows for rows, *_ in parts]), kind="stable")
    return tuple(np.concatenate(x)[order] for x in zip(*parts)) + (index[order],)


def _region_sups(values: np.ndarray, intervals: tuple, n: int, grid, window) -> np.ndarray:
    """max |values| over the points of each of ``n`` regions in the cells
    ``window`` that ``values`` hold, 0.0 where there are none; ``intervals``
    are the regions' ``_region_intervals``, which must lie in the window's
    columns on its rows.  One gather reads every region's points; their
    maxima are taken per interval, then per region."""
    rows, j_lo, j_hi, index = intervals
    a, b = np.searchsorted(rows, _span(window[0], grid.nt))
    out = np.zeros(n)
    if b > a:
        size = j_hi[a:b] - j_lo[a:b]  # no interval is empty
        sup = np.abs(values.take(_window_pos(intervals[:3], grid, window)))
        np.maximum.at(out, index[a:b], np.maximum.reduceat(sup, np.cumsum(size) - size))
    return out


def _functionals(kinds, u: SpaceTimeField, v: SpaceTimeField, p: float, delta: float,
                 N: int, over_r: bool = False) -> list[NormBreakdown]:
    """The breakdowns of the functionals ``kinds`` ("M", "A") of one pair (u, v),
    from one ``_stream`` pass over the blocks of rows of each field: a block
    reduces straight into per-row sums and region sups, then each norm
    reduces once in t.  No array of the grid's size is built, not even the
    pair itself with ``over_r``, where u and v are the conjugate fields W_u
    and W_v of the pair, each divided by r per block."""
    _check_params(p, delta, N)
    grid = u.grid
    if grid != v.grid:
        raise ValueError("u and v must share a grid")
    w_half = WeightSpec(power_r=(p - 1) / 2)
    regions = _region_rows(grid)
    sups = ((N // 2, "d"), None, [region for *_, region in regions])

    def d(sums):  # dt then dr, summed here: the "d" prefix adds word by word
        return sums[N, DT] + sums[N, DR]

    u_slots = {"u_good_l2l2": ((N, "good"), w_half, "L2"),
               "u_invr_l2l2": ((N, "quot"), w_half, "L2"),
               "u_le1": (N, None, "LE"), "u_d_linfl2": (d, WeightSpec(), "Linf"), "u_sups": sups}
    v_slots = {"v_good_l2l2": ((N, "good"), w_half, "L2"),
               "v_invr_l2l2": ((N, "quot"), w_half, "L2"),
               "v_d_weighted_l2l2": (d, WeightSpec(power_r=-(1 + delta) / 2), "L2"),
               "v_sups": sups}
    if any(_FUNCTIONALS[kind][0] for kind in kinds):
        v_slots["v_d_weighted_linfl2"] = (d, WeightSpec(power_r=-delta / 2), "Linf")
    keys = ((N, "good"), (N, DT), (N, DR), (N // 2, "d"), (N, "quot"))
    norms = {**_stream(u, keys, u_slots, over_r=over_r),
             **_stream(v, keys, v_slots, over_r=over_r)}

    per_region: dict[str, float] = {}
    sup_u = {R_KIND: 0.0, U_KIND: 0.0}
    sq_v = {"tau": 0.0, "alt": 0.0, U_KIND: 0.0}
    for (row, tau, s, _), lu, lv in zip(regions, norms["u_sups"], norms["v_sups"]):
        per_region[f"{row} tau={tau} s={s} u"] = lu
        per_region[f"{row} tau={tau} s={s} v"] = lv
        if row == R_KIND:
            sup_u[row] = max(sup_u[row], tau ** 0.5 * s * lu)
            sq_v["tau"] += (tau ** 0.5 * s ** (1 - delta / 2) * lv) ** 2
            sq_v["alt"] += (s ** ((3 - delta) / 2) * lv) ** 2
        else:
            sup_u[row] = max(sup_u[row], tau * s ** 0.5 * lu)
            sq_v[row] += (tau ** (1 - delta / 2) * s ** 0.5 * lv) ** 2

    out = []
    for kind in kinds:
        sup_slot, v_r_weight = _FUNCTIONALS[kind]
        names = ["u_good_l2l2", "u_invr_l2l2", "v_good_l2l2", "v_invr_l2l2", "u_le1",
                 "u_d_linfl2", "v_d_weighted_l2l2"] + ["v_d_weighted_linfl2"] * sup_slot
        slots = {name: norms[name] for name in names}
        slots["u_R_sup"] = sup_u[R_KIND]
        slots["v_R_l2"] = float(np.sqrt(sq_v[v_r_weight]))
        slots["u_U_sup"] = sup_u[U_KIND]
        slots["v_U_l2"] = float(np.sqrt(sq_v[U_KIND]))
        total = float(sum(slots.values()))
        if v_r_weight != "alt":
            slots["v_R_l2_alt"] = float(np.sqrt(sq_v["alt"]))
        out.append(NormBreakdown(total=total, slots=slots, per_region=dict(per_region)))
    return out


def m_functional(u: SpaceTimeField, v: SpaceTimeField, p: float, delta: float,
                 N: int, *, over_r: bool = False) -> NormBreakdown:
    """All summands of the boundedness functional for one iterate pair (u, v),
    or, with ``over_r``, for the pair W_u / r, W_v / r of the conjugate fields
    passed as u and v, each divided per block (the Picard driver's histories).

    The ell^2 region row for v is reported in both printed weight variants
    ("v_R_l2" with tau^{1/2} R^{1-delta/2} enters the total; the
    R^{(3-delta)/2} alternative is recorded as "v_R_l2_alt").

    The norms are truncated at t_max, and near it the Z-word sums read the
    grid's one-sided time stencils (up to three chained, which the S words
    multiply by up to t_max), so the last history rows dominate the total:
    of the calibrated bump's M_1 = 27.62 at dr 1/32, T 64 (the acceptance
    Picard run) about 0.61 is the solution and the rest is that edge.
    """
    return _functionals(("M",), u, v, p, delta, N, over_r)[0]


def a_functional(u_diff: SpaceTimeField, v_diff: SpaceTimeField, p: float,
                 delta: float, N: int, *, over_r: bool = False) -> NormBreakdown:
    """Contraction functional: the boundedness slots applied to iterate
    differences, minus the sup-in-t slot for the v derivative, with the
    R^{(3-delta)/2} weight on the v region row.  Like ``m_functional`` it
    reads the grid's one-sided time stencils near t_max, which dominate it,
    and takes conjugate fields with ``over_r``."""
    return _functionals(("A",), u_diff, v_diff, p, delta, N, over_r)[0]


def m_and_a_functionals(u: SpaceTimeField, v: SpaceTimeField, p: float, delta: float,
                        N: int, *, over_r: bool = False) -> tuple[NormBreakdown, NormBreakdown]:
    """``m_functional(u, v, ...)`` and ``a_functional(u, v, ...)`` from one pass:
    A's slots are M's without the sup-in-t v slot, its v R row is M's
    "v_R_l2_alt".  The Picard driver's first iterate is its own difference."""
    return tuple(_functionals(("M", "A"), u, v, p, delta, N, over_r))
