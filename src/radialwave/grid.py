"""Discrete space-time fields on a uniform (t, r) grid and the vector-field calculus.

Everything downstream (regions, norms, the solver, the estimate harness) shares
the grid geometry defined here, and this module holds the package's only
stencils: ``_d1`` and ``_d2`` (first and second derivative), ``_over_r`` (the
quotient by r), the wave operators ``_wave2`` and ``_box_values`` built on
them, ``_z_walk`` (every Z word of a field) and ``_trapz_weights``.  Each
stencil acts on the last axis of a 1-D array, of a stack of rows or of a full
(nt, nr) array, and a time derivative is the same call on ``values.T``.  All
are second-order: centered in the interior and one-sided at the last column.
At the first column a radial stencil takes the ghost value f(-h) = -f(h) of an
odd field or f(-h) = f(h) of an even one, and the one-sided stencil when no
parity is given (always in t).  ``_over_r`` recovers its first column by
3-point extrapolation from the next three.  ``_OverR`` is f / r read per
block, divided as read: a history's u = W / r is read through it.

Each stencil is a centred core and its edge columns, written once here:
``_centred_d1``, ``_centred_d2`` and ``_divide_r`` fill the interior, and
``_d1_first``, ``_d1_last``, ``_d2_first`` and ``_d2_last`` set one edge
column each, with whole-column numpy operations that round exactly as scalar
arithmetic does.  They take a shift s, the number of consecutive entries of
one column: 1 on the last axis, 2 on the solver's runs, where two fields
interleave.  ``_d1`` and ``_d2`` run the core on the flat buffer when the
operands are C-contiguous, one call over every row; the cells it spoils where
rows meet are the edge columns, which are set afterwards.  A division by a
power-of-two step multiplies by its exact reciprocal (``_divide``), the same
bits at about half the cost; ``_divide_r`` divides C-contiguous rows whole.

``_word_sums`` is the one pass over Z words: the |P Z^mu f| sums on a window
of the grid, in the window's shape and equal to the whole-grid sums on every
cell, for every caller (the M/A functionals, the ratio and Klainerman-Sobolev
checks of ``estimates``).  It widens its walk by the halo its keys need
(``_walk``) and stops it at the field's light cone (``_cut``).  Its
derivatives take one-sided stencils and parity ghosts at grid edges only, and
+0.0 at its other edges, which the halo drops.
``_blocks`` is the one row-block helper: fields are sampled
(``SpaceTimeField.from_function``), streamed through the norms and the
estimate checks, and turned into Picard sources and files in its blocks.

The public functions are the ones the commands run: ``derivative`` and
``box_conjugate`` (the identity checks), ``null_form`` (the solves' source)
and ``z_words`` (the order of every Z-word walk).  A field file is written
and read by ``_write_field`` and ``_read_field``, which a history's save and
load call.
"""

from __future__ import annotations

import itertools
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Composable derivative tags, in the deterministic enumeration order used by
# z_words: dt < dr < S.
DT = "dt"
DR = "dr"
SCALING = "S"
GOOD = "good"  # dt + dr, tangent to the light cone
BAD = "bad"    # dt - dr

Z_TAGS = (DT, DR, SCALING)
ALL_TAGS = (DT, DR, GOOD, BAD, SCALING)

MAX_WORD_LEN = 3  # N-fold differencing beyond this sits under the noise floor

_MIN_POINTS = 5


class GridTooSmallError(ValueError):
    pass


class ParityError(ValueError):
    pass


def _is_integer(x: float, tol: float = 1e-9) -> bool:
    return abs(x - round(x)) <= tol * max(1.0, abs(x))


@dataclass(frozen=True)
class GridSpec:
    """Uniform (t, r) grid: r = j*dr for j = 0..J, t = n*dt for n = 0..Nt-1.

    Invariants: dt = cfl*dr with 0 < cfl <= 1, r_max >= t_max + 4 (so data
    supported in r <= 2 never reaches the outer boundary), and both extents
    are whole numbers of cells.
    """

    dr: float
    cfl: float
    r_max: float
    t_max: float

    def __post_init__(self):
        for name in ("dr", "cfl", "r_max", "t_max"):
            # stored as floats, so 12 and 12.0 give one grid, one asdict and one tag
            object.__setattr__(self, name, float(getattr(self, name)))
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dr <= 0:
            raise ValueError("dr must be positive")
        if not (0 < self.cfl <= 1 + 1e-12):
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if self.r_max < self.t_max + 4 - 1e-12:
            raise ValueError(
                f"r_max ({self.r_max}) must be >= t_max + 4 ({self.t_max + 4}) "
                "so the support cone never touches the outer boundary"
            )
        if not _is_integer(self.r_max / self.dr):
            raise ValueError("r_max must be an integer multiple of dr")
        if not _is_integer(self.t_max / self.dt):
            raise ValueError("t_max must be an integer multiple of dt")

    @property
    def dt(self) -> float:
        return self.cfl * self.dr

    @property
    def nr(self) -> int:
        return round(self.r_max / self.dr) + 1

    @property
    def nt(self) -> int:
        return round(self.t_max / self.dt) + 1

    @property
    def r(self) -> np.ndarray:
        return np.arange(self.nr) * self.dr

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.nt) * self.dt

    def shape(self) -> tuple[int, int]:
        return (self.nt, self.nr)

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        """(t, r) broadcastable meshes, t varying along axis 0."""
        return self.t[:, None], self.r[None, :]


_FLIP = {"odd": "even", "even": "odd", None: None}  # parity of dr f and of r * f

# parity of the result of one derivative, given the input parity
_PARITY_MAP = {
    DT: {"odd": "odd", "even": "even", None: None},
    DR: _FLIP,
    SCALING: {"odd": "odd", "even": "even", None: None},
    GOOD: {"odd": None, "even": None, None: None},
    BAD: {"odd": None, "even": None, None: None},
}


@dataclass
class SpaceTimeField:
    """Scalar samples on a GridSpec, indexed (time level, radial index).

    ``parity`` records the behavior of the sampled function under r -> -r and
    drives the ghost-point extension at r = 0.  Odd fields vanish on the axis.
    """

    grid: GridSpec
    values: np.ndarray
    parity: str | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.grid.shape():
            raise ValueError(
                f"value shape {self.values.shape} does not match grid {self.grid.shape()}"
            )
        if self.parity not in ("odd", "even", None):
            raise ValueError(f"bad parity {self.parity!r}")
        if self.parity == "odd":
            axis = self.values[:, 0]
            # a zero axis (any dr of an even field) cannot fail, so it skips the
            # scale pass; a NaN axis still reaches the bound test
            if np.any(axis):
                scale = max(float(self.values.max()), -float(self.values.min()))  # no copy
                if np.any(np.abs(axis) > 1e-10 * max(1.0, scale)):
                    raise ParityError("odd field must vanish at r = 0")

    @classmethod
    def from_function(cls, grid: GridSpec, fn: Callable, parity: str | None = None) -> "SpaceTimeField":
        """The field of values fn(t, r), filled one block of rows at a time
        (``_blocks(nt, 16)``): fn is called per block, on its times as a column
        and the radii as a row, and must be pointwise in (t, r); its result
        (the block's shape, a row or a scalar) is broadcast into the block."""
        t, r = grid.meshes()
        vals = np.empty(grid.shape())
        for lo, hi in _blocks(grid.nt, 16):
            vals[lo:hi] = fn(t[lo:hi], r)
        return cls(grid, vals, parity)

    @classmethod
    def zeros(cls, grid: GridSpec, parity: str | None = None) -> "SpaceTimeField":
        return cls(grid, np.zeros(grid.shape()), parity)

    def rect(self, rows: slice, cols: slice = slice(None)) -> np.ndarray:
        """The cells [rows, cols], a view (``solver._LightCone`` builds them)."""
        return self.values[rows, cols]

    @property
    def reach(self) -> int:
        """nr: row n is held to column n + nr, every column (``solver._LightCone``)."""
        return self.grid.nr

    # the field file of ``_write_field`` and ``_read_field``: header, then
    # row-major doubles
    _MAGIC = b"RWFLD002"  # the header holds the grid's four values
    _HEADER = "<8sddddb"


def _write_field(path, f) -> None:
    """The file of a field (``SpaceTimeField`` or ``solver._LightCone``): the
    header, then its rows ``f.rect`` of each block of ``_blocks(nt, 16)`` in
    turn, each written as it lies (a copy on big-endian only, or where
    ``rect`` builds the block)."""
    grid = f.grid
    header = struct.pack(SpaceTimeField._HEADER, SpaceTimeField._MAGIC, grid.dr, grid.cfl,
                         grid.r_max, grid.t_max, {"odd": 1, "even": 2, None: 0}[f.parity])
    with open(path, "wb") as fh:
        fh.write(header)
        for lo, hi in _blocks(grid.nt, 16):
            fh.write(np.ascontiguousarray(f.rect(slice(lo, hi)), dtype="<f8"))


def _read_field(path, grid=None) -> tuple:
    """(grid, values, parity) of a field file.  With ``grid`` (a history
    manifest's), a header naming any other grid is refused before a row is
    read."""
    with open(path, "rb") as fh:
        size = struct.calcsize(SpaceTimeField._HEADER)
        raw = fh.read(size)
        if raw[:8] == b"RWFLD001":
            raise ValueError(f"{path}: a field file of the old format RWFLD001, whose "
                             "header does not hold its grid; remove it to start afresh")
        if len(raw) < size or raw[:8] != SpaceTimeField._MAGIC:
            raise ValueError(f"{path}: not a field file")
        _, dr, cfl, r_max, t_max, par = struct.unpack(SpaceTimeField._HEADER, raw)
        try:
            header = GridSpec(dr, cfl, r_max, t_max)
        except ValueError as exc:
            raise ValueError(f"{path}: the header's grid is invalid: {exc}") from None
        if grid is not None and header != grid:
            raise ValueError(f"{path}: the header's grid {header} is not the manifest's")
        nt, nr = header.shape()
        want, got = 8 * nt * nr, os.fstat(fh.fileno()).st_size - size
        if got != want:
            raise ValueError(f"{path}: payload holds {got} bytes, the header's "
                             f"{nt} x {nr} grid needs {want}")
        if par not in (0, 1, 2):
            raise ValueError(f"{path}: the header's parity byte {par} is none of 0, 1, 2")
        data = np.fromfile(fh, dtype="<f8", count=nt * nr).reshape(nt, nr)
    return header, data, (None, "odd", "even")[par]


def _require_size(grid: GridSpec):
    if grid.nt < _MIN_POINTS or grid.nr < _MIN_POINTS:
        raise GridTooSmallError(
            f"need at least {_MIN_POINTS} points per axis, got {grid.shape()}"
        )


def _trapz_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    return w


# The ratio checks of ``estimates`` walk the grid, and the Klainerman-Sobolev
# checks walk their enlarged regions, in blocks of this many rows or more; the
# M/A functionals walk blocks of 32 rows or more (``norms._FUNCTIONAL_ROWS``);
# ``SpaceTimeField.from_function``, the Picard sources and every field file
# (``_write_field``) take blocks of 16 rows or more, whose temporaries are
# small beside the grid
_BLOCK_ROWS = 64


def _blocks(nt: int, rows: int = _BLOCK_ROWS) -> list:
    """(lo, hi) of max(1, nt // rows) consecutive blocks of rows that cover
    [0, nt), their sizes within one of each other: none is short."""
    n = max(1, nt // rows)
    return [(nt * i // n, nt * (i + 1) // n) for i in range(n)]


def _col(k: int, s: int) -> tuple:
    """Index of column k (negative: from the end) on the last axis, where one
    column is s consecutive entries."""
    return (..., slice(k * s, (k + 1) * s or None))


def _divide(x: np.ndarray, d: float, out: np.ndarray | None = None) -> np.ndarray:
    """x / d into ``out`` (x itself when None).  A power of two d with a finite
    1/d multiplies by it: the product is then the correctly rounded quotient,
    the same bits (subnormals included) at about half a division's cost."""
    out = x if out is None else out
    if math.frexp(d)[0] == 0.5 and math.isfinite(1.0 / d):
        return np.multiply(x, 1.0 / d, out=out)
    return np.divide(x, d, out=out)


def _centred_d1(values: np.ndarray, h: float, out: np.ndarray, s: int = 1) -> None:
    """(f[i + s] - f[i - s]) / (2h) into out[..., s:-s]; the first and last s
    entries of ``out`` are left alone."""
    inner = np.subtract(values[..., 2 * s:], values[..., :-2 * s], out=out[..., s:-s])
    _divide(inner, 2 * h)


def _centred_d2(values: np.ndarray, h: float, out: np.ndarray, s: int = 1) -> None:
    """(f[i + s] - 2 f[i] + f[i - s]) / h^2 into out[..., s:-s], in that order."""
    inner = out[..., s:-s]
    np.multiply(values[..., s:-s], 2, out=inner)
    np.subtract(values[..., 2 * s:], inner, out=inner)
    inner += values[..., :-2 * s]
    _divide(inner, h * h)


def _d1_first(values: np.ndarray, h: float, parity: str | None, out: np.ndarray,
              s: int = 1) -> None:
    c0, c1 = _col(0, s), _col(1, s)
    if parity == "odd":
        _divide(values[c1], h, out[c0])  # ghost: f(-h) = -f(h)
    elif parity == "even":
        out[c0] = 0.0
    else:
        out[c0] = _divide(-3 * values[c0] + 4 * values[c1] - values[_col(2, s)], 2 * h)


def _d1_last(values: np.ndarray, h: float, out: np.ndarray, s: int = 1) -> None:
    c1, c2, c3 = (_col(-k, s) for k in range(1, 4))
    out[c1] = _divide(3 * values[c1] - 4 * values[c2] + values[c3], 2 * h)


def _d2_first(values: np.ndarray, h: float, parity: str | None, out: np.ndarray,
              s: int = 1) -> None:
    c0 = _col(0, s)
    if parity == "odd":  # ghost f(-h) = -f(h); vanishes with f(0) = 0
        _divide(np.multiply(values[c0], -2, out=out[c0]), h * h)
    elif parity == "even":
        out[c0] = _divide(2 * (values[_col(1, s)] - values[c0]), h * h)
    else:
        c1, c2, c3 = (_col(k, s) for k in range(1, 4))
        out[c0] = _divide(2 * values[c0] - 5 * values[c1] + 4 * values[c2] - values[c3], h * h)


def _d2_last(values: np.ndarray, h: float, out: np.ndarray, s: int = 1) -> None:
    c1, c2, c3, c4 = (_col(-k, s) for k in range(1, 5))
    out[c1] = _divide(2 * values[c1] - 5 * values[c2] + 4 * values[c3] - values[c4], h * h)


def _runs(values: np.ndarray, out: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values`` and ``out`` as flat runs when both are C-contiguous, so a
    centred stencil is one call over every row.  The cells it spoils where
    one row meets the next are the first and last columns, which the edge
    stencils set afterwards."""
    if values.ndim > 1 and values.flags.c_contiguous and out.flags.c_contiguous:
        return values.reshape(-1), out.reshape(-1)
    return values, out


def _d1(values: np.ndarray, h: float, parity: str | None = None,
        out: np.ndarray | None = None, ends=(True, True)) -> np.ndarray:
    """First derivative along the last axis, into ``out`` (new if None); an
    end that ``ends`` marks False is no grid edge, and its column is +0.0."""
    out = np.empty_like(values) if out is None else out
    v, o = _runs(values, out)
    _centred_d1(v, h, o)
    if ends[0]:
        _d1_first(values, h, parity, out)
    else:
        out[..., 0] = 0.0
    if ends[1]:
        _d1_last(values, h, out)
    else:
        out[..., -1] = 0.0
    return out


def _d2(values: np.ndarray, h: float, parity: str | None = None,
        out: np.ndarray | None = None) -> np.ndarray:
    """Second derivative along the last axis, into ``out`` (new if None)."""
    out = np.empty_like(values) if out is None else out
    v, o = _runs(values, out)
    _centred_d2(v, h, o)
    _d2_first(values, h, parity, out)
    _d2_last(values, h, out)
    return out


def _divide_r(values: np.ndarray, r: np.ndarray, out: np.ndarray, s: int = 1) -> None:
    """values / r from column 1 on, ``r`` holding the radius of each entry; the
    first column (s entries) of ``out`` is unspecified.  C-contiguous rows are
    divided whole (numpy buffers a sliced stack, at about 1.6 times the cost)."""
    if values.ndim > 1 and values.flags.c_contiguous and out.flags.c_contiguous:
        r = r.copy()
        r[:s] = 1.0
        np.divide(values, r, out=out)
    else:
        np.divide(values[..., s:], r[s:], out=out[..., s:])


def _over_r(values: np.ndarray, r: np.ndarray, out: np.ndarray | None = None,
            s: int = 1) -> np.ndarray:
    """values / r along the last axis, ``r`` holding the radius of each entry;
    the first column takes the 3-point extrapolation (3 q1 - 3 q2) + q3 from
    the next three, so it is finite on the axis."""
    out = np.empty_like(values) if out is None else out
    _divide_r(values, r, out, s)
    q = np.multiply(out[..., s:3 * s], 3)  # 3 q1, 3 q2
    np.subtract(q[..., :s], q[..., s:], out=out[..., :s])
    out[..., :s] += out[..., 3 * s:4 * s]
    return out


def _wave2(values: np.ndarray, parity: str | None, ht: float, hr: float) -> np.ndarray:
    """(dt^2 - dr^2) of (t, r) samples, parity-extended at a first column r = 0,
    written over dr^2: two temporaries of the samples' shape, not three."""
    out = _d2(values, hr, parity)
    return np.subtract(_d2(values.T, ht).T, out, out=out)


def _box_values(values: np.ndarray, parity: str | None, r: np.ndarray, ht: float,
                hr: float) -> np.ndarray:
    """r^{-1}(dt^2 - dr^2)(r f) of (t, r) samples at the 1-D radii ``r``."""
    out = _wave2(r * values, _FLIP[parity], ht, hr)
    return _over_r(out, r, out)


def _z_walk(values: np.ndarray, parity: str | None, t: np.ndarray, r: np.ndarray,
            ht: float, hr: float, n_max: int, last=(DT, DR), scratch=None,
            edges=((True, True), (True, True))):
    """Yield (length, g, parity of g, dt g, dr g) for every Z word of length
    <= n_max applied to (t, r) samples, in ``z_words`` order.

    ``t`` holds the times of the rows as an (n, 1) column and ``r`` the radii
    of the columns.  A child word is built from its parent's pair: dt.w =
    dt(w), dr.w = dr(w), S.w = t dt(w) + r dr(w), the operations of
    ``derivative``; r dr(w) is written into ``scratch`` when one is given (an
    array of the samples' shape that the caller does not read until the next
    word).  The words of length n_max have no child, so of their pair only
    the derivatives named in ``last`` are taken, the others are None.  Per
    axis (t, r), ``edges`` are ``_d1``'s ``ends``: which edges are grid
    edges.  Only the pairs of the last layer stay alive, each until its last
    child (the S word) is built, and the samples until layer 0 is walked.
    The words are raw arrays, so no odd word's axis is checked here.
    """
    words = z_words(n_max)
    parents: dict = {}
    for length in range(n_max + 1):
        children = {}
        for word in (x for x in words if len(x) == length):
            if not word:
                g, par = values, parity
            else:
                # an S word is its parent's last child: the parent's pair goes with it
                pick = parents.pop if word[0] == SCALING else parents.get
                par, pt, pr = pick(word[1:])
                if word[0] == DT:
                    g = pt
                elif word[0] == DR:
                    g, par = pr, _FLIP[par]
                else:
                    g = t * pt
                    g += np.multiply(r, pr, out=scratch)
                pt = pr = None
            gt = _d1(g.T, ht, ends=edges[0]).T if length < n_max or DT in last else None
            gr = _d1(g, hr, par, ends=edges[1]) if length < n_max or DR in last else None
            if length < n_max:
                children[word] = (par, gt, gr)
            yield length, g, par, gt, gr
            g = gt = gr = None  # a last-layer pair is freed before the next is built
        parents, values = children, None  # the samples are read by layer 0 alone


# the derivatives of a word that each prefix of ``_word_sums`` reads; every
# other prefix reads both
_READS = {None: (), "quot": (), "box": (), "dtdr2": (), DT: (DT,), DR: (DR,)}


def _depth(keys) -> int:
    """Stencils chained by the deepest sum of ``keys``: n for the word of (n,
    P), then one for P (two for bad2 and good2, none for None)."""
    return max(n + {None: 0, "bad2": 2, "good2": 2}.get(prefix, 1) for n, prefix in keys)


def _walk(keys, window: tuple[slice, slice], shape) -> list[tuple[int, int, int, int]]:
    """Per axis of a grid of ``shape``, (lo, hi, a, b): the cells [lo, hi) of
    ``window`` and the walk [a, b) on which the sums of ``keys`` are exact on
    them, the span rule of ``_word_sums``."""
    d = _depth(keys)
    spans = []
    for s, size in zip(window, shape):
        lo, hi = _span(s, size)
        a = lo - d
        b = max(hi + d, a + 4)  # _d2 and _over_r read four cells
        if a <= 0:
            b += 3
        if b >= size:
            a -= 3
        spans.append((lo, hi, max(a, 0), min(b, size)))
    return spans


def _word_sums(f: SpaceTimeField, keys, window: tuple[slice, slice]) -> dict:
    """For each key (n, P), the sum over Z words |mu| <= n of |P Z^mu f| on the
    cells ``window`` (a pair of slices), as an array of the window's shape,
    equal to the whole-grid sums on every cell.  f is any field form with
    ``grid``, ``parity`` and ``rect``: u = W / r of a conjugate field W is
    its ``_OverR``, whose walk divides its own cells by r, bit for bit the
    whole-grid quotient, which is never built.

    P is None (the word itself), "dt", "dr", "d" (|dt| + |dr|), "good"
    (|dt + dr|), "quot" (|.| / r), "bad" (|dt - dr|), "good/r"
    (|r^{-1}(dt + dr)|, on a conjugate field r u the (dt + dr + 1/r) u of
    ``estimates``), "box" (r^{-1}(dt^2 - dr^2) r), "dtdr2" (dt^2 - dr^2),
    "bad2" ((dt - dr)^2) or "good2" ((dt + dr)^2).  One ``_z_walk`` runs on
    the window widened by a halo and adds each term, in ``z_words`` order,
    into the sums; an empty window walks nothing.

    Every stencil reads one cell on each side, so at an edge of the walk that
    is not a grid edge it spoils the edge cell, and each further stencil
    moves the error one cell inward: at most ``_depth`` cells along either
    axis, the halo.  There the walk's derivatives take +0.0 (``_z_walk``'s
    ``edges``: of rows [a, b) and columns [ca, cb), only a == 0, b == nt,
    ca == 0 and cb == nr are grid edges), a term's own stencils their
    one-sided ones (1/r, "box", "dtdr2", "bad2", "good2").
    Where the walk meets a grid edge, the one-sided stencil there reads two
    cells inward (three for ``_d2`` and the 1/r extrapolation), so the walk
    reaches depth + 3 cells beyond the window's opposite edge.  A walk is at
    least the four cells those stencils read.  ``_walk`` is this rule.

    The walk stops at the field's light cone (``_cut``): if the rows it reads
    vanish from column m on, every sum of depth d is an exact +0.0 from column
    m + d on, so those columns are filled with +0.0, not walked, unless m + d
    lies within two columns of the walk's end, whose one-sided stencil reads
    three cells inward.  The cut reads the field, not the scheme; a Picard
    iterate vanishes past r = t + 2, about half of the grid.

    A word of the last length n_max has no child, so its dt and dr are taken
    only if a key of that length reads them (``_READS``).
    """
    grid = f.grid
    _require_size(grid)
    spans = _walk(keys, window, grid.shape())
    (lo, hi, a, b), (clo, chi, ca0, cb0) = spans
    cells = f.rect(slice(a, b), slice(ca0, cb0))  # read once, for ``_cut`` too
    cut = _cut(cells, keys, spans)
    if hi == lo or cut <= clo:  # an empty window, or one past the cut
        return {key: np.zeros((hi - lo, chi - clo)) for key in keys}
    ca, cb = _walk(keys, (window[0], slice(clo, cut)), grid.shape())[1][2:]
    values = cells[:, ca - ca0:cb - ca0]  # a walk inside the first
    r, ht, hr = grid.r[ca:cb], grid.dt, grid.dr
    cells = None  # values views it, and the walk frees both after layer 0
    sums = {key: np.zeros(values.shape) for key in keys}
    tmp = np.empty_like(values)  # the pointwise terms' and the S words' scratch
    n_max = max(n for n, _ in keys)
    last = {d for n, prefix in keys if n == n_max for d in _READS.get(prefix, (DT, DR))}
    edges = (a == 0, b == grid.nt), (ca == 0, cb == grid.nr)
    walk = _z_walk(values, f.parity, grid.t[a:b, None], r, ht, hr, n_max, last, tmp, edges)
    values = None  # read by layer 0 alone, after which the walk frees it
    for length, g, par, gt, gr in walk:
        for (n, prefix), total in sums.items():
            if length <= n:
                total += _word_term(prefix, g, par, gt, gr, r, ht, hr, tmp)
        g = gt = gr = None  # as in the walk: a last-layer pair goes before the next is built
    out = {}
    for key in list(sums):  # each in the window's shape, +0.0 past the cut
        out[key] = np.zeros((hi - lo, chi - clo))
        out[key][:, :cut - clo] = sums.pop(key)[lo - a:hi - a, clo - ca:cut - ca]
    return out


def _cut(cells: np.ndarray, keys, spans) -> int:
    """The light-cone cut of ``_word_sums``: the column from which its sums of
    ``keys`` on the window of ``spans`` (``_walk``) are an exact +0.0, the
    window's end if there is none; ``cells`` are the field's on the walk."""
    _, chi, ca, cb = spans[1]
    nonzero = np.flatnonzero(cells.any(axis=0))
    cut = ca + (nonzero[-1] + 1 if len(nonzero) else 0) + _depth(keys)
    return min(cut, chi) if cut + 2 < cb else chi


def _span(s: slice, size: int) -> tuple[int, int]:
    """(start, stop) of a unit-step slice on an axis of ``size`` cells."""
    lo, hi, _ = s.indices(size)
    return lo, max(lo, hi)


def _word_term(prefix, g, par, gt, gr, r, ht, hr, tmp) -> np.ndarray:
    """|P g| for one word g with its pair (dt g, dr g); the pointwise P write
    into ``tmp``."""
    if prefix is None:
        return np.abs(g, out=tmp)
    if prefix in (DT, DR):
        return np.abs(gt if prefix == DT else gr, out=tmp)
    if prefix == "d":
        return np.add(np.abs(gt, out=tmp), np.abs(gr), out=tmp)
    if prefix == GOOD:
        return np.abs(np.add(gt, gr, out=tmp), out=tmp)
    if prefix == "quot":
        return np.abs(_over_r(g, r, tmp), out=tmp)
    if prefix == BAD:
        return np.abs(np.subtract(gt, gr, out=tmp), out=tmp)
    if prefix == "good/r":
        return np.abs(_over_r(np.add(gt, gr, out=tmp), r, tmp), out=tmp)
    if prefix == "box":  # column 0 off the axis is an edge cell (see _word_sums)
        return np.abs(_box_values(g, par, r, ht, hr))
    if prefix == "dtdr2":
        return np.abs(_wave2(g, par, ht, hr))
    if prefix in ("bad2", "good2"):
        op = np.subtract if prefix == "bad2" else np.add
        h = op(gt, gr)
        return np.abs(op(_d1(h.T, ht).T, _d1(h, hr)))
    raise ValueError(f"unknown word-sum prefix {prefix!r}")


def derivative(f: SpaceTimeField, d: str) -> SpaceTimeField:
    """Apply one derivative direction: dt, dr, good (dt+dr), bad (dt-dr), or S.

    S = t*dt + r*dr pointwise.  At r = 0 the radial stencil uses the parity
    ghost extension when the parity is known and a one-sided stencil otherwise.
    """
    if d not in ALL_TAGS:
        raise ValueError(f"unknown derivative tag {d!r}")
    _require_size(f.grid)
    par = _PARITY_MAP[d][f.parity]
    grid = f.grid
    if d == DT:
        vals = _d1(f.values.T, grid.dt).T
    elif d == DR:
        vals = _d1(f.values, grid.dr, f.parity)
    else:
        gt, gr = _d1(f.values.T, grid.dt).T, _d1(f.values, grid.dr, f.parity)
        if d == GOOD:
            vals = gt + gr
        elif d == BAD:
            vals = gt - gr
        else:  # S
            t, r = grid.meshes()
            vals = t * gt + r * gr
    return SpaceTimeField(grid, vals, par)


def z_words(max_len: int) -> list[tuple[str, ...]]:
    """All Z words of length <= max_len over {dt, dr, S}, sorted by (length, lex)."""
    if max_len > MAX_WORD_LEN:
        raise ValueError(
            f"word length {max_len} exceeds the supported maximum {MAX_WORD_LEN}; "
            "repeated differencing beyond that is dominated by stencil noise"
        )
    words: list[tuple[str, ...]] = [()]
    for length in range(1, max_len + 1):
        words.extend(itertools.product(Z_TAGS, repeat=length))
    return words


def box_conjugate(W: SpaceTimeField) -> SpaceTimeField:
    """(dt^2 - dr^2) of a conjugate field W = r*u.

    For radial u, Box u = r^{-1} (dt^2 - dr^2)(r u); the caller divides by r
    (``_OverR``) where the scalar d'Alembertian is needed.
    """
    if W.parity != "odd":
        raise ParityError("box_conjugate expects the odd conjugate field W = r*u")
    _require_size(W.grid)
    return SpaceTimeField(W.grid, _wave2(W.values, "odd", W.grid.dt, W.grid.dr), "odd")


class _OverR:
    """f / r of a field f, read per block: ``rect`` divides the cells it reads
    (``_over_r`` from the axis, so four columns or more there, plain division
    past it), bit for bit the whole-grid quotient; ``values`` is all of it."""

    def __init__(self, f):
        self.f, self.grid = f, f.grid
        # an even numerator generally leaves a 1/r singularity at the axis, so the
        # extrapolated surrogate there cannot honestly be tagged odd
        self.parity = "even" if f.parity == "odd" else None

    reach = property(lambda self: self.f.reach, doc="f's: f / r vanishes where f does.")
    values = property(lambda self: self.rect(slice(None)), doc="The whole array, built anew.")

    def rect(self, rows: slice, cols: slice = slice(None)) -> np.ndarray:
        """The cells [rows, cols] (unit-step slices) of f / r, built anew."""
        cells, r = self.f.rect(rows, cols), self.grid.r[cols]
        return _over_r(cells, r) if _span(cols, self.grid.nr)[0] == 0 else cells / r


def null_form(dtu: np.ndarray, dru: np.ndarray, dtv: np.ndarray, drv: np.ndarray) -> np.ndarray:
    """Cone-adapted grouping (dt+dr)u * dt v - dr u * (dt+dr)v of dtu*dtv - dru*drv.

    On radial data the angular contribution vanishes identically, so this equals
    the raw product combination exactly (to rounding), with better cancellation
    near t = r.
    """
    return (dtu + dru) * dtv - dru * (dtv + drv)

