"""Evolution of the radially reduced coupled wave system.

The system is evolved in conjugate variables W = r*u, where the radial
d'Alembertian becomes the 1-D wave operator:

    dt^2 W_u - dr^2 W_u = r * [ (dt+dr)u dt v - dr u (dt+dr)v ],
    dt^2 W_v - dr^2 W_v = r * [ dt u dt v ],            u = W_u / r.

``solve`` steps the semilinear or the homogeneous system with classical RK4
on the first-order system (W, dt W); r = 0 is handled by odd reflection; the
outer boundary is never reached by the support cone.  Its Courant number is a
constant of the method, 1 (RK4 reaches 2 sqrt(2) on the imaginary axis; the
centred second difference needs 2): one step of dt = dr per history row, W
and the diagnostics on every row of the given grid at dt = dr, whatever cfl
the grid was given with (``SolveConfig``).
``solve_linear_forced``, the fixed-point driver's linear solve with a source F
sampled on a grid with dt = dr, takes the characteristic (leapfrog, Courant
number 1) step

    W^{n+1}_j = W^n_{j+1} + W^n_{j-1} - W^{n-1}_j + dt^2 r_j F^n_j

with the odd ghost W_{-1} = -W_1 and W = 0 past r_max: exact for the free
wave, second order in the source, and with no precursor ahead of the front.

Every history holds W on every row and dt W by its first and last rows
(``_CentredDt``): the solve's own dt W there, and the centred difference of W
on the rows between, which for RK4 is within O(dr^2) of its state's dt W.
Data vanish past r = 2, so W row n of the characteristic solve vanishes past
column n + S - 1 and its source past n + S, S the columns with r <= 2
(``_cone_reach``): W and its Picard sums are held in that light cone
(``_LightCone``, about half of the grid), and the solve reads its sources
one block of the cone's rows at a time.

The RK4 state is one array laid out as (W | dt W, column, field): W_u and
W_v interleave along r, so the window of W, and that of dt W, are each one
contiguous run of 2J numbers, a radial stencil is the centred core of
``grid`` at shift 2 (two entries per column), and each stage is a handful of
calls on whole runs.  The array has nr + 1 columns; the last one is always
zero.

Each RK4 step updates only the window of leading columns j < J, where
J = min(nr, last + 1 + GUARD) and ``last`` is the last column of the state
that is not exactly zero.  Ahead of the front the state underflows to exact
zeros, and the window is exact, not a tolerance: the interior stencils reach
one column, so stage s of RK4 reads columns up to last + s - 1 and the new
state is nonzero up to last + 4 at most.  The stencils at the window's last
column read the zero column J past it; there the one-sided edge stencils,
which read 4 (second derivative) and 3 (first derivative) columns back, give
the same exact zero with GUARD = 8, so they run only once J = nr.  The
stage array is cleared past a window that shrinks, so column J reads zero in
every stage.  The right-hand side sets one edge: the odd ghost of the second
derivative at r = 0.  It computes the source on columns 1..J-1 only, since
the source at r = 0 is multiplied by r = 0 (and W = r u stays zero there).
Diagnostics are taken on the window too; the energy integrand is summed over
a full-width zeroed buffer, because np.sum's pairwise blocking depends on the
length.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field as dc_field, replace
from typing import Callable

import numpy as np

from .grid import (_FLIP, GridSpec, SpaceTimeField, _blocks, _centred_d1, _centred_d2, _d1,
                   _d1_first, _d1_last, _d2_first, _d2_last, _divide, _divide_r, _over_r,
                   _OverR, _read_field, _span, _trapz_weights, _write_field, null_form)
from .norms import FOUR_PI

_BLOW_CAP = 1e8
GUARD = 8  # zero columns stepped past the last nonzero one (module docstring)
_EDGES = "dtW_edges.npy"  # a history's dt W edge rows (``SolutionHistory.save``)


class BlowUpSuspected(RuntimeError):
    """Raised when the state stops being finite (expected for large data)."""

    def __init__(self, t: float, message: str = ""):
        super().__init__(message or f"solution no longer finite at t = {t:.6g}")
        self.t = t


class CflError(ValueError):
    pass


def bump(r):
    """C-infinity bump exp(1 - 1/(1 - (r/2)^2)) for r < 2, zero outside; peak 1."""
    r = np.asarray(r, dtype=float)
    s2 = np.square(r / 2.0)
    out = np.zeros_like(r)
    inside = s2 < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
    return out


def poly_bump(r):
    """(1 - (r/2)^2)^8 for r < 2, zero outside: C^7 across the support edge,
    with much tamer derivatives than ``bump`` (useful for convergence studies)."""
    r = np.asarray(r, dtype=float)
    s2 = np.minimum(np.square(r / 2.0), 1.0)
    return np.power(1.0 - s2, 8)


def zero_profile(r):
    return np.zeros_like(np.asarray(r, dtype=float))


@dataclass
class InitialData:
    """Radial profiles scaled by a single calibrated amplitude.

    The profiles are unit shapes supported in r <= support_radius (<= 2); the
    stored ``amplitude`` multiplies all of them and is normally produced by
    ``calibrate`` so the discrete data-size sum at order N equals epsilon.
    """

    u0: Callable = bump
    u1: Callable = zero_profile
    v0: Callable = bump
    v1: Callable = zero_profile
    amplitude: float = 1.0
    support_radius: float = 2.0

    def __post_init__(self):
        if not 0.0 <= self.support_radius <= 2.0 + 1e-12:  # refuses NaN too
            raise ValueError(f"support_radius must lie in [0, 2], got {self.support_radius}")
        if not np.isfinite(self.amplitude):
            raise ValueError(f"amplitude must be finite, got {self.amplitude}")
        if self.amplitude < 0:
            raise ValueError("amplitude must be nonnegative")


def _radial_l2(vals: np.ndarray, r: np.ndarray, dr: float) -> float:
    w = _trapz_weights(r.size, dr)
    return float(np.sqrt(FOUR_PI * np.sum(np.square(vals) * np.square(r) * w)))


def smallness_sum(data: InitialData, grid: GridSpec, N: int) -> float:
    """Discrete radial stand-in for the data-size hypothesis at order N:
    radial-derivative L2 sums of orders <= N+1 on positions, <= N on velocities."""
    r = grid.r
    total = 0.0
    for fn, max_order in ((data.u0, N + 1), (data.v0, N + 1), (data.u1, N), (data.v1, N)):
        vals = data.amplitude * np.asarray(fn(r), dtype=float)
        parity = "even"
        for order in range(max_order + 1):
            if order > 0:
                vals = _d1(vals, grid.dr, parity)
                parity = _FLIP[parity]
            total += _radial_l2(vals, r, grid.dr)
    return total


def calibrate(data: InitialData, grid: GridSpec, N: int, eps: float) -> InitialData:
    """Rescale the amplitude so the discrete data-size sum equals eps exactly."""
    if not (np.isfinite(eps) and eps >= 0):
        raise ValueError(f"eps must be finite and nonnegative, got {eps}")
    if eps == 0:
        return InitialData(data.u0, data.u1, data.v0, data.v1, 0.0, data.support_radius)
    unit = InitialData(data.u0, data.u1, data.v0, data.v1, 1.0, data.support_radius)
    s = smallness_sum(unit, grid, N)
    return InitialData(data.u0, data.u1, data.v0, data.v1, eps / s, data.support_radius)


@dataclass
class SolveConfig:
    grid: GridSpec
    mode: str = "semilinear"  # semilinear | homogeneous
    store_history: bool = True

    def __post_init__(self):
        if self.mode not in ("semilinear", "homogeneous"):
            raise ValueError(f"unknown mode {self.mode!r}")
        self.grid = replace(self.grid, cfl=1.0)  # RK4's dt = dr, whatever cfl was given


def _cone_reach(grid: GridSpec) -> int:
    """S of the module docstring: the number of columns with r <= 2."""
    return int(np.count_nonzero(grid.r <= 2.0 + 1e-12))


class _LightCone:
    """A field whose row n vanishes past column n + ``reach`` (S, or nr: every
    column), held as the (lo, hi, array) ``blocks`` of ``_blocks(nt, 16)``,
    each as wide as the cone column of its last row, clipped at nr.
    ``rect`` and ``values`` build the dense cells, zero past the cone."""

    def __init__(self, grid: GridSpec, parity: str | None = None, reach: int | None = None,
                 fill=np.zeros):
        self.grid, self.parity = grid, parity
        self.reach = _cone_reach(grid) if reach is None else reach
        spans = [(lo, hi, min(grid.nr, hi + self.reach)) for lo, hi in _blocks(grid.nt, 16)]
        ends = np.cumsum([(hi - lo) * w for lo, hi, w in spans])
        flat = fill(int(ends[-1]))  # one buffer: the heap keeps no holes between blocks
        self.blocks = [(lo, hi, flat[end - (hi - lo) * w:end].reshape(hi - lo, w))
                       for (lo, hi, w), end in zip(spans, ends)]

    @classmethod
    def of(cls, grid: GridSpec, values: np.ndarray, parity: str | None) -> "_LightCone":
        """``values`` held in the cone of reach S, or at every column if a row is past it."""
        reach = _cone_reach(grid)
        inside = not any(values[n, n + reach + 1:].any() for n in range(grid.nt))
        cone = cls(grid, parity, reach if inside else grid.nr, np.empty)
        for lo, hi, block in cone.blocks:
            block[:] = values[lo:hi, :block.shape[1]]
        return cone

    values = property(lambda self: self.rect(slice(None)), doc="The whole array, built anew.")

    def rect(self, rows: slice, cols: slice = slice(None)) -> np.ndarray:
        """The cells [rows, cols] (unit-step slices), zero past the cone, built anew."""
        (a, b), (ca, cb) = _span(rows, self.grid.nt), _span(cols, self.grid.nr)
        out = np.zeros((b - a, cb - ca))
        for lo, hi, block in self.blocks:
            if lo < b and a < hi:
                part = block[max(a, lo) - lo:min(b, hi) - lo, ca:cb]
                out[max(a, lo) - a:min(b, hi) - a, :part.shape[1]] = part
        return out


class _CentredDt:
    """dt W of a solve, held as its first and last rows: row 0 is the data
    velocity, the last row the solve's own dt W at t_max (RK4's state, or the
    characteristic difference of W one row past t_max), and rows 1..nt-2 are
    (W[n+1] - W[n-1]) / (2h): the characteristic solve's own rows, bit for
    bit, and within O(dr^2) of RK4's state.  A sum of such solves (a Picard
    iterate) sums W and the edge rows, its other rows being the same
    difference of the summed W.  ``W`` (read by ``rect``) must not change
    while it is read."""

    parity = "odd"

    def __init__(self, W: SpaceTimeField, edges: np.ndarray):
        self.W, self.edges = W, edges  # edges: the (first, last) rows

    @property
    def grid(self) -> GridSpec:
        return self.W.grid

    values = property(lambda self: self.rect(slice(None)), doc="The whole array, built anew.")

    def rect(self, rows: slice, cols: slice = slice(None)) -> np.ndarray:
        """The cells [rows, cols] (unit-step slices), built anew."""
        nt = self.grid.nt
        (lo, hi), (ca, cb) = _span(rows, nt), _span(cols, self.grid.nr)
        out = np.empty((hi - lo, cb - ca))
        a, b = max(lo, 1), min(hi, nt - 1)
        if b > a:
            w = self.W.rect(slice(a - 1, b + 1), cols)
            inner = np.subtract(w[2:], w[:-2], out=out[a - lo:b - lo])
            _divide(inner, 2 * self.grid.dt)
        if hi == nt:
            out[-1] = self.edges[1, ca:cb]
        if lo == 0 < hi:  # row 0 is also the last one when nt = 1
            out[0] = self.edges[0, ca:cb]
        return out


@dataclass
class SolutionHistory:
    """Space-time record of the conjugate state plus per-step diagnostics.

    W is whole (``solve``) or held in its light cone (``_LightCone``: the
    characteristic solves, their Picard sums and every loaded history), and
    dt W is W's ``_CentredDt``: its first and last rows, the others built
    from W per block of rows (``rect``) or whole where ``values`` is read.
    """

    W_u: SpaceTimeField
    dtW_u: _CentredDt
    W_v: SpaceTimeField
    dtW_v: _CentredDt
    mode: str  # the solve that made it: a solve mode or "linear_forced"
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def grid(self) -> GridSpec:
        return self.W_u.grid

    def u(self) -> _OverR:
        """u = W_u / r, each block divided as read (``grid._OverR``), never whole."""
        return _OverR(self.W_u)

    def v(self) -> _OverR:
        """v = W_v / r, read as ``u`` is."""
        return _OverR(self.W_v)

    def save(self, outdir: str) -> None:
        """W's two field files and ``_EDGES``, dt W's (field, first | last row,
        column), its other rows being the centred difference of W; refused for
        diagnostics alone (``solve`` without ``store_history``: W of stride 0)."""
        if isinstance(self.W_u, SpaceTimeField) and self.W_u.values.strides == (0, 0):
            raise ValueError("a history solved without store_history holds diagnostics only")
        os.makedirs(outdir, exist_ok=True)
        for name in ("W_u", "W_v"):
            _write_field(os.path.join(outdir, f"{name}.bin"), getattr(self, name))
        ends = [f.rect(n) for f in (self.dtW_u, self.dtW_v) for n in (slice(1), slice(-1, None))]
        np.save(os.path.join(outdir, _EDGES), np.reshape(ends, (2, 2, -1)).astype("<f8"))
        manifest = {
            "grid": asdict(self.grid),
            "mode": self.mode,
            "diagnostics": {k: list(map(float, v)) for k, v in self.diagnostics.items()},
        }
        with open(os.path.join(outdir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, sort_keys=True)

    @classmethod
    def load(cls, outdir: str) -> "SolutionHistory":
        """The history saved in ``outdir``: W in its light cone
        (``_LightCone.of``) and dt W as ``_CentredDt`` of the rows in ``_EDGES``."""
        with open(os.path.join(outdir, "manifest.json")) as fh:
            manifest = json.load(fh)
        grid = GridSpec(**manifest["grid"])
        path = os.path.join(outdir, _EDGES)
        rows = np.load(path)
        if rows.shape != (2, 2, grid.nr) or rows.dtype != "<f8":
            raise ValueError(f"{path}: {rows.dtype} rows of shape {rows.shape}, "
                             f"not the manifest's (2, 2, {grid.nr}) doubles")
        fields = {}
        for f, ends in zip("uv", rows):
            W = _LightCone.of(grid, *_read_field(os.path.join(outdir, f"W_{f}.bin"), grid)[1:])
            fields[f"W_{f}"], fields[f"dtW_{f}"] = W, _CentredDt(W, ends)
        diags = {k: np.asarray(v) for k, v in manifest["diagnostics"].items()}
        return cls(**fields, mode=manifest["mode"], diagnostics=diags)


def nonlinearity(dtu, dru, dtv, drv, which: str):
    """Quadratic source for one equation from first-derivative frames.

    which = 'u-eq': dtu*dtv - dru*drv, evaluated in the cone-adapted grouping
    (identical pointwise, better cancellation near t = r);
    which = 'v-eq': dtu*dtv.
    """
    if which == "v-eq":
        return dtu * dtv
    if which != "u-eq":
        raise ValueError(f"unknown equation tag {which!r}")
    return null_form(dtu, dru, dtv, drv)


def solve(data: InitialData, config: SolveConfig) -> SolutionHistory:
    """Evolve the system one RK4 step of dt = dr per history row, recording W
    on each row and the state's dt W on the first and last (``_CentredDt``),
    or, without ``store_history``, the diagnostics alone (W and the edge rows
    read-only zeros); data nonzero past their ``support_radius`` are refused."""
    grid = config.grid
    r, dr, nr = grid.r, grid.dr, grid.nr
    dt = grid.dt  # = dr, so the diagnostics' t is grid.t bit for bit
    semilinear = config.mode == "semilinear"
    rr = np.repeat(r, 2)  # the radius of each entry of an interleaved run

    # (W | dt W, column, field), column nr always zero (module docstring)
    state = np.zeros((2, nr + 1, 2))
    amp = data.amplitude
    for (i, f), fn in zip(((0, 0), (1, 0), (0, 1), (1, 1)), (data.u0, data.u1, data.v0, data.v1)):
        state[i, :nr, f] = r * amp * np.asarray(fn(r), dtype=float)
    _check_support(data, r, state[:, :nr].transpose(0, 2, 1))

    if config.store_history:
        W = np.zeros((2, grid.nt, nr))  # (field, row, column)
        edges = np.zeros((2, 2, nr))  # (field, first | last row, column) of dt W
        W[:, 0], edges[:, 0] = state[:, :nr].transpose(0, 2, 1)
    diag_t, diag_support = np.zeros((2, grid.nt))
    diag_energy, diag_sup = np.zeros((2, 2, grid.nt))

    scale = max(np.max(np.abs(state)), 1e-300)
    cap = _BLOW_CAP * scale
    wr = np.repeat(_trapz_weights(nr, dr), 2)
    k1, k2, k3, k4, stage, acc, absy = np.zeros((7, 2, nr + 1, 2))
    quot = np.empty((2, 2 * nr))  # (u, v) and (dt u, dt v), interleaved
    dW, src = np.empty((2, 2 * nr + 2))
    pair_max = np.empty((nr, 2))
    colmax = np.empty(nr)
    energy = np.zeros(2 * nr)  # zero past the window

    def rhs(y, out, J):
        """F(y) of the first-order system on the window of J columns: dt W = P
        and dt P = W_rr + r * source, reading y's zero column J."""
        n = 2 * J
        np.copyto(out[0, :J], y[1, :J])
        w, a = y[0, :J + 1].reshape(-1), out[1, :J + 1].reshape(-1)
        _centred_d2(w, dr, a, 2)
        _d2_first(w, dr, "odd", a, 2)
        if J == nr:
            _d2_last(w[:-2], dr, a[:-2], 2)
        if not semilinear:
            return
        # the source on columns 1..J-1; column 0's is multiplied by r = 0
        q = quot[:, :n]
        _divide_r(y[:, :J].reshape(2, n), rr[:n], q, 2)
        d = dW[:n + 2]
        _centred_d1(w, dr, d, 2)
        if J == nr:
            _d1_last(w[:-2], dr, d[:-2], 2)
        d = d[2:n]
        d -= q[0, 2:]
        d /= rr[2:n]
        dtu, dtv, dru = q[1, 2::2], q[1, 3::2], d[0::2]
        # null_form(dtu, dru, dtv, drv) and the v source dtu * dtv
        s = np.add(q[1, 2:], d, out=src[2:n])  # (dt + dr) u, (dt + dr) v
        su, sv = s[0::2], s[1::2]
        su *= dtv
        sv *= dru
        su -= sv
        np.multiply(dtu, dtv, out=sv)
        s *= rr[2:n]
        a[2:n] += s

    def record_diag(n, t, J, cols):
        w = state[0, :J + 1].reshape(-1)
        diag_t[n] = t
        d = dW[:2 * J + 2]
        _centred_d1(w, dr, d, 2)
        _d1_first(w, dr, "odd", d, 2)
        if J == nr:
            _d1_last(w[:-2], dr, d[:-2], 2)
        d = np.square(d[:2 * J], out=d[:2 * J])
        e = np.square(state[1, :J].reshape(-1), out=energy[:2 * J])
        e += d
        e *= wr[:2 * J]
        energy[2 * J:] = 0.0
        # summed at full width: np.sum's pairwise blocking depends on the length
        diag_energy[0, n] = np.sum(energy[0::2])
        diag_energy[1, n] = np.sum(energy[1::2])
        q = np.abs(_over_r(w[:2 * J], rr[:2 * J], src[:2 * J], 2), out=src[:2 * J])
        diag_sup[0, n] = np.max(q[0::2])
        diag_sup[1, n] = np.max(q[1::2])
        # support measured against the initial scale, so a decaying solution
        # does not see an ever-tightening effective threshold
        diag_support[n] = _support_radius(cols, r, 1e-6 * scale)

    def column_max(J):
        m = np.abs(state[:, :J], out=absy[:, :J])
        m = np.maximum(m[0], m[1], out=pair_max[:J])
        return np.maximum(m[:, 0], m[:, 1], out=colmax[:J])

    cols = column_max(nr)
    last = _last_true(cols != 0)
    record_diag(0, 0.0, nr, cols)

    top = nr  # the stage's columns from top on are zero
    for n in range(grid.nt - 1):
        J = min(nr, last + 1 + GUARD)
        if J < top:
            stage[:, J:top] = 0.0
        top = J
        y, s = stage[:, :J], state[:, :J]
        a, b, c, d = k1[:, :J], k2[:, :J], k3[:, :J], k4[:, :J]
        rhs(state, k1, J)
        np.multiply(a, dt / 2, out=y)
        y += s
        rhs(stage, k2, J)
        np.multiply(b, dt / 2, out=y)
        y += s
        rhs(stage, k3, J)
        np.multiply(c, dt, out=y)
        y += s
        rhs(stage, k4, J)
        # state + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4), in that order
        inc = np.multiply(b, 2, out=acc[:, :J])
        inc += a
        c *= 2
        inc += c
        inc += d
        inc *= dt / 6
        s += inc
        tn = (n + 1) * dt
        cols = column_max(J)
        m = cols.max()
        if not np.isfinite(m) or m > cap:
            raise BlowUpSuspected(tn)
        last = _last_true(cols != 0)
        record_diag(n + 1, tn, J, cols)
        if config.store_history:
            W[:, n + 1] = state[0, :nr].T
        # the centered stencil sheds a dispersive precursor ahead of the true
        # front; at the 1e-6 level and dt = dr its width grows 0.1-0.5 units per
        # doubling of t, to 1.8 (dr 1/32) and 2.3 (dr 1/16) by t = 256 (measured),
        # so the finite-speed check allows a log-in-t margin over a 32-cell base
        margin = 0.5 * np.log2(2.0 + tn) + 32 * dr
        if diag_support[n + 1] > tn + data.support_radius + margin:
            raise RuntimeError(
                f"finite-speed violation: support radius {diag_support[n + 1]:.4g} "
                f"at t = {tn:.4g}")

    diagnostics = {
        "t": diag_t, "energy_u": diag_energy[0], "energy_v": diag_energy[1],
        "sup_u": diag_sup[0], "sup_v": diag_sup[1], "support_radius": diag_support,
    }
    if config.store_history:
        edges[:, 1] = state[1, :nr].T
    else:  # read-only zeros of stride 0: no page of the grid
        W = np.broadcast_to(0.0, (2, *grid.shape()))
        edges = np.broadcast_to(0.0, (2, 2, nr))
    Wu, Wv = (SpaceTimeField(grid, w, "odd") for w in W)
    return SolutionHistory(Wu, _CentredDt(Wu, edges[0]), Wv, _CentredDt(Wv, edges[1]),
                           config.mode, diagnostics)


def _check_support(data: InitialData, r: np.ndarray, *rows: np.ndarray) -> None:
    """Refuse data whose sampled ``rows`` (on the radii ``r``, the last axis) are
    nonzero past their support radius, which the finite-speed check and the
    light cone of the characteristic solve rely on."""
    if any(np.any(row[..., r > data.support_radius]) for row in rows):
        raise ValueError(f"the data are nonzero past their support radius {data.support_radius:g}")


def _last_true(flags: np.ndarray) -> int:
    """Index of the last True in a 1-D boolean array, -1 if there is none."""
    j = flags.size - 1 - int(np.argmax(flags[::-1]))
    return j if flags[j] else -1


def _support_radius(cols: np.ndarray, r: np.ndarray, tol: float) -> float:
    """r of the last column whose max |state| exceeds tol (0.0 if none)."""
    j = _last_true(cols > tol)
    return float(r[j]) if j >= 0 else 0.0


def solve_linear_forced(data: InitialData, forcing_u: SpaceTimeField,
                        forcing_v: SpaceTimeField, into=None) -> SolutionHistory:
    """Linear wave solves with prescribed sources (the fixed-point step).

    The characteristic step of the module docstring, on the grid of the
    sources, which must have dt = dr.  The first step is d'Alembert on the data
    (Simpson's rule for the velocity integral) plus dt^2/2 of the source.  The
    sources are read one block of the cone's rows at a time (``rect``), just
    before the steps that read them, so a source built when read (the Picard
    driver's) is never held whole.  The history holds W in its light cone
    (``_LightCone``; at every column unless both sources vanish past it, their
    ``reach``; data nonzero past their ``support_radius`` are refused) and
    dt W as its first and last rows (``_CentredDt``): row 0 is
    the data velocity, and the solve steps one row past t_max, so every other
    row is the centred difference of W, the last one reading the row past
    t_max, which is then dropped.

    ``into``, two W cones of the solve's grid and reach (others are refused)
    read by the sources alone (the Picard driver's delta_{k-1}), take W's rows
    in place of two new cones: each block solved is kept aside and copied over
    its block of ``into`` once the next block's sources, which read one row
    before it, are built.
    """
    grid = forcing_u.grid
    if forcing_v.grid != grid:
        raise ValueError(f"the sources are sampled on two grids, {grid} and {forcing_v.grid}")
    if abs(grid.cfl - 1.0) > 1e-12:
        raise CflError(f"the linear solve needs dt = dr, got dt = {grid.cfl:.6g} dr")
    r, h, nt, nr = grid.r, grid.dt, grid.nt, grid.nr
    reach = max(_cone_reach(grid), forcing_u.reach, forcing_v.reach)
    if into and any(w.grid != grid or w.reach != reach for w in into):
        raise ValueError(f"into must be two cones of the solve's grid and reach {reach}")
    W = into or [_LightCone(grid, "odd", reach, np.empty) for _ in range(2)]
    steps = np.empty((3, 2, nr))  # W of both fields at n - 1, n, n + 1, in turn
    edges = np.zeros((2, 2, nr))  # (field, first | last row, column) of dt W
    P0 = edges[:, 0]
    for row, fn in zip((steps[0, 0], P0[0], steps[0, 1], P0[1]),
                       (data.u0, data.u1, data.v0, data.v1)):
        row[:] = r * data.amplitude * np.asarray(fn(r), dtype=float)
    _check_support(data, r, steps[0], P0)
    h2r = h * h * r
    src = np.empty((2, nr))  # the source term
    aside = np.empty((2, max(hi - lo for lo, hi, _ in W[0].blocks), nr))  # a block's W rows
    last = []  # (block of W, its rows aside) of the last block solved
    for (lo, hi, wu), (_, _, wv) in zip(W[0].blocks, W[1].blocks):
        fu, fv = forcing_u.rect(slice(lo, hi)), forcing_v.rect(slice(lo, hi))
        for block, rows in last:
            block[:] = rows
        last = [(w, a[:hi - lo, :w.shape[1]]) for w, a in zip((wu, wv), aside)]
        for n in range(lo, hi):
            prev, cur, new = steps[(n - 1) % 3], steps[n % 3], steps[(n + 1) % 3]
            aside[:, n - lo, :wu.shape[1]] = cur[:, :wu.shape[1]]  # zero past the cone
            _neighbour_sum(cur, new)
            np.multiply(fu[n - lo], h2r, out=src[0])
            np.multiply(fv[n - lo], h2r, out=src[1])
            new += src
            if n == 0:  # half of each, plus Simpson's rule for the velocity integral
                new *= 0.5
                new += (_neighbour_sum(P0, src) + 4 * P0) * (h / 6)
            else:
                new -= prev
            if not np.isfinite(new).all():
                raise BlowUpSuspected((n + 1) * h)
            if n == nt - 1 > 0:  # new is W one row past t_max
                np.subtract(new, prev, out=edges[:, 1])
                _divide(edges[:, 1], 2 * h)
        fu = fv = None  # freed before the next block's source rows are read
    for block, rows in last:
        block[:] = rows
    return SolutionHistory(W[0], _CentredDt(W[0], edges[0]), W[1],
                           _CentredDt(W[1], edges[1]), "linear_forced")


def _neighbour_sum(w: np.ndarray, out: np.ndarray) -> np.ndarray:
    """w_{j+1} + w_{j-1} on the last axis: odd ghost w_{-1} = -w_1, zero past the end."""
    np.add(w[..., 2:], w[..., :-2], out=out[..., 1:-1])
    out[..., 0] = 0.0
    out[..., -1] = w[..., -2]
    return out


def config_hash(obj) -> str:
    """Stable short hash of a JSON-serializable configuration."""
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
