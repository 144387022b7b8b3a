"""Method-of-lines evolution of the radially reduced coupled wave system.

The system is evolved in conjugate variables W = r*u, where the radial
d'Alembertian becomes the 1-D wave operator:

    dt^2 W_u - dr^2 W_u = r * [ (dt+dr)u dt v - dr u (dt+dr)v ],
    dt^2 W_v - dr^2 W_v = r * [ dt u dt v ],            u = W_u / r.

Time stepping is classical RK4 on the first-order system (W, dt W); r = 0 is
handled by odd reflection; the outer boundary is never reached by the support
cone.  The same integrator with frozen interpolated sources provides the
linear solves for the fixed-point driver, and a d'Alembert closed form serves
as the homogeneous oracle.

Each step updates only the window of leading columns j < J, where
J = min(nr, last + 1 + GUARD) and ``last`` is the last column of the state
that is not exactly zero (in linear_forced mode also the last nonzero forcing
column on the rows the step interpolates).  Ahead of the front the state
underflows to exact zeros, and the window is exact, not a tolerance: the
interior stencils reach one column, so stage s of RK4 reads columns up to
last + s - 1 and the new state is nonzero up to last + 4 at most.  At the
window's last column the one-sided edge stencils read 4 (second derivative)
and 3 (first derivative) columns back, which with GUARD = 8 are still zero,
so they give the same exact zero the centered stencil gives there; every
column the window cuts off stays exactly zero.  Diagnostics are taken on the
window too; the energy integrand is summed over a full-width zeroed buffer,
because np.sum's pairwise blocking depends on the length.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .grid import _FLIP, GridSpec, SpaceTimeField, _d1, _d2, _over_r, _trapz_weights, null_form

FOUR_PI = 4.0 * np.pi
_BLOW_CAP = 1e8
GUARD = 8  # zero columns stepped past the last nonzero one (module docstring)


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
        if self.support_radius > 2.0 + 1e-12:
            raise ValueError("data must be supported in r <= 2")
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
    mode: str = "semilinear"  # semilinear | linear_forced | homogeneous
    forcing: tuple[SpaceTimeField, SpaceTimeField] | None = None
    record_stride: int | None = None  # default: largest stride with stride*cfl <= 1
    store_history: bool = True
    check_support: bool = True

    def __post_init__(self):
        if self.mode not in ("semilinear", "linear_forced", "homogeneous"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if (self.forcing is not None) != (self.mode == "linear_forced"):
            raise ValueError("forcing must be supplied iff mode is linear_forced")
        if self.record_stride is None:
            self.record_stride = max(1, int(np.floor(1.0 / self.grid.cfl + 1e-9)))
        nsteps = self.grid.nt - 1
        if nsteps % self.record_stride != 0:
            raise ValueError(
                f"record stride {self.record_stride} does not divide {nsteps} steps")

    @property
    def history_grid(self) -> GridSpec:
        g = self.grid
        return GridSpec(dr=g.dr, cfl=g.cfl * self.record_stride, r_max=g.r_max, t_max=g.t_max)


@dataclass
class SolutionHistory:
    """Space-time record of the conjugate state plus per-step diagnostics."""

    W_u: SpaceTimeField
    dtW_u: SpaceTimeField
    W_v: SpaceTimeField
    dtW_v: SpaceTimeField
    config: SolveConfig
    diagnostics: dict = dc_field(default_factory=dict)

    @property
    def grid(self) -> GridSpec:
        return self.W_u.grid

    def u(self) -> SpaceTimeField:
        from .grid import conjugate_to_scalar
        return conjugate_to_scalar(self.W_u)

    def v(self) -> SpaceTimeField:
        from .grid import conjugate_to_scalar
        return conjugate_to_scalar(self.W_v)

    def save(self, outdir: str) -> None:
        os.makedirs(outdir, exist_ok=True)
        for name in ("W_u", "dtW_u", "W_v", "dtW_v"):
            getattr(self, name).to_binary(os.path.join(outdir, f"{name}.bin"))
        manifest = {
            "grid": {"dr": self.grid.dr, "cfl": self.grid.cfl,
                     "r_max": self.grid.r_max, "t_max": self.grid.t_max},
            "mode": self.config.mode,
            "diagnostics": {k: list(map(float, v)) for k, v in self.diagnostics.items()},
        }
        with open(os.path.join(outdir, "manifest.json"), "w") as fh:
            json.dump(manifest, fh, sort_keys=True)

    @classmethod
    def load(cls, outdir: str) -> "SolutionHistory":
        fields = {name: SpaceTimeField.from_binary(os.path.join(outdir, f"{name}.bin"))
                  for name in ("W_u", "dtW_u", "W_v", "dtW_v")}
        with open(os.path.join(outdir, "manifest.json")) as fh:
            manifest = json.load(fh)
        grid = fields["W_u"].grid
        mode = manifest["mode"]
        cfg = SolveConfig(grid=grid, mode="homogeneous" if mode == "linear_forced" else mode,
                          record_stride=1)
        cfg.mode = mode  # no forcing is saved: the config names the run, it cannot rerun it
        diags = {k: np.asarray(v) for k, v in manifest["diagnostics"].items()}
        return cls(fields["W_u"], fields["dtW_u"], fields["W_v"], fields["dtW_v"], cfg, diags)


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


class _Forcing:
    """The two stored forcing fields, linear in t between their rows, read on
    the leading columns of a step's window."""

    def __init__(self, fu: SpaceTimeField, fv: SpaceTimeField):
        if fu.grid != fv.grid:
            raise ValueError("the two forcing fields must share a grid")
        self.fields = (fu.values, fv.values)
        self.dt = fu.grid.dt
        nz = (fu.values != 0) | (fv.values != 0)
        # per row, the last column where either field is not exactly zero
        self.last = np.where(nz.any(axis=1),
                             nz.shape[1] - 1 - np.argmax(nz[:, ::-1], axis=1), -1)
        self._buf = np.empty((2, 2, nz.shape[1]))

    def _row(self, t: float) -> tuple[int, float]:
        rows = self.fields[0].shape[0]
        x = min(max(t / self.dt, 0.0), rows - 1.0)
        n = min(int(x), rows - 2)
        return n, x - n

    def last_col(self, t0: float, t1: float) -> int:
        """Last nonzero column that interpolation reads at any t in [t0, t1]."""
        return int(self.last[self._row(t0)[0]:self._row(t1)[0] + 2].max())

    def add(self, t: float, r: np.ndarray, out: np.ndarray) -> None:
        """out[1] += r * fu(t) and out[3] += r * fv(t) on the columns of r."""
        n, w = self._row(t)
        J = r.size
        f, g = self._buf[:, :, :J]
        for i, vals in enumerate(self.fields):
            np.multiply(vals[n, :J], 1.0 - w, out=f[i])
            np.multiply(vals[n + 1, :J], w, out=g[i])
        f += g
        f *= r
        out[1::2] += f


class _Rhs:
    """F(t, y) of the first-order system (W_u, dt W_u, W_v, dt W_v) on the
    leading columns of y, written into ``out`` through scratch allocated once.

    W_u and W_v go through each stencil together as the rows y[0::2]; every
    element sees the same operations, in the same order, as alone.
    """

    def __init__(self, r: np.ndarray, dr: float, semilinear: bool,
                 forcing: _Forcing | None):
        self.r, self.dr = r, dr
        self.semilinear = semilinear
        self.forcing = forcing
        # y / r, dr of (W_u, W_v), (dr u, dr v), the two sources
        self._buf = np.empty((10, r.size)) if semilinear else None

    def __call__(self, t: float, y: np.ndarray, out: np.ndarray) -> None:
        J = y.shape[1]
        r = self.r[:J]
        W, P = y[0::2], y[1::2]
        out[0::2] = P
        _d2(W, self.dr, "odd", out[1::2])
        if self.semilinear:
            buf = self._buf[:, :J]
            q, dW, drq, src = buf[:4], buf[4:6], buf[6:8], buf[8:]
            _over_r(y, r, q)  # u, dt u, v, dt v
            _d1(W, self.dr, "odd", dW)
            dW -= q[0::2]
            _over_r(dW, r, drq)
            dtu, dtv = q[1::2]
            dru, drv = drq
            # null_form(dtu, dru, dtv, drv) and the v source dtu * dtv
            np.add(dtu, dru, out=src[0])
            src[0] *= dtv
            np.add(dtv, drv, out=src[1])
            src[1] *= dru
            src[0] -= src[1]
            np.multiply(dtu, dtv, out=src[1])
            src *= r
            out[1::2] += src
        elif self.forcing is not None:
            self.forcing.add(t, r, out)


def solve(data: InitialData, config: SolveConfig) -> SolutionHistory:
    """Evolve the system and record the conjugate state every record_stride steps."""
    grid = config.grid
    if grid.cfl > 0.9 + 1e-12:
        raise CflError(f"evolution requires cfl <= 0.9, got {grid.cfl}")
    r, dr, dt, nr = grid.r, grid.dr, grid.dt, grid.nr
    nsteps = grid.nt - 1
    if config.mode == "linear_forced" and config.forcing is None:
        raise ValueError("linear_forced needs forcing (a loaded history's config has none)")
    forcing = _Forcing(*config.forcing) if config.mode == "linear_forced" else None
    rhs = _Rhs(r, dr, config.mode == "semilinear", forcing)

    amp = data.amplitude
    Wu = r * amp * np.asarray(data.u0(r), dtype=float)
    Pu = r * amp * np.asarray(data.u1(r), dtype=float)
    Wv = r * amp * np.asarray(data.v0(r), dtype=float)
    Pv = r * amp * np.asarray(data.v1(r), dtype=float)
    state = np.stack([Wu, Pu, Wv, Pv])

    stride = config.record_stride
    hist_grid = config.history_grid
    if config.store_history:
        frames = np.zeros((4, hist_grid.nt, nr))
        frames[:, 0] = state
    diag_t = np.zeros(nsteps + 1)
    diag_energy = np.zeros((2, nsteps + 1))
    diag_sup = np.zeros((2, nsteps + 1))
    diag_support = np.zeros(nsteps + 1)

    scale = max(np.max(np.abs(state)), 1e-300)
    # the blow-up cap also counts what the forcing builds from zero data:
    # |W| <= t^2 max|r F| / 2 and |dt W| <= t max|r F| (Duhamel)
    forced = 0.0 if forcing is None else grid.t_max ** 2 * max(
        float(np.max(r * np.maximum(f.max(axis=0), -f.min(axis=0)))) for f in forcing.fields)
    cap = _BLOW_CAP * max(scale, forced)
    wr = _trapz_weights(nr, dr)
    k1, k2, k3, k4, stage, acc, absy = np.empty((7, 4, nr))
    colmax = np.empty(nr)
    energy = np.zeros((2, nr))  # zero past the window
    dbuf = np.empty((2, nr))

    def record_diag(n, t, J, cols):
        y = state[:, :J]
        W, P = y[0::2], y[1::2]
        diag_t[n] = t
        dW = _d1(W, dr, "odd", dbuf[:, :J])
        np.square(dW, out=dW)
        e = np.square(P, out=energy[:, :J])
        e += dW
        e *= wr[:J]
        energy[:, J:] = 0.0
        # summed at full width: np.sum's pairwise blocking depends on the length
        diag_energy[0, n] = np.sum(energy[0])
        diag_energy[1, n] = np.sum(energy[1])
        q = np.abs(_over_r(W, r[:J], dbuf[:, :J]), out=dbuf[:, :J])
        diag_sup[:, n] = np.max(q, axis=1)
        # support measured against the initial scale, so a decaying solution
        # does not see an ever-tightening effective threshold
        diag_support[n] = _support_radius(cols, r, 1e-6 * scale)

    def column_max(J):
        return np.maximum.reduce(np.abs(state[:, :J], out=absy[:, :J]), out=colmax[:J])

    cols = column_max(nr)
    last = _last_true(cols != 0)
    record_diag(0, 0.0, nr, cols)

    for n in range(nsteps):
        t = n * dt
        reach = last if forcing is None else max(last, forcing.last_col(t, t + dt))
        J = min(nr, reach + 1 + GUARD)
        y, s = stage[:, :J], state[:, :J]
        a, b, c, d = k1[:, :J], k2[:, :J], k3[:, :J], k4[:, :J]
        rhs(t, s, a)
        np.multiply(a, dt / 2, out=y)
        y += s
        rhs(t + dt / 2, y, b)
        np.multiply(b, dt / 2, out=y)
        y += s
        rhs(t + dt / 2, y, c)
        np.multiply(c, dt, out=y)
        y += s
        rhs(t + dt, y, d)
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
        if config.store_history and (n + 1) % stride == 0:
            frames[:, (n + 1) // stride] = state
        if config.check_support and config.mode != "linear_forced":
            # the centered stencil sheds a dispersive precursor ahead of the
            # true front; at the 1e-6 level its width grows like ~0.3 units
            # per doubling of t (measured), so the finite-speed check allows
            # a logarithmic-in-t margin on top of a 32-cell base
            margin = 0.5 * np.log2(2.0 + tn) + 32 * dr
            if diag_support[n + 1] > tn + data.support_radius + margin:
                raise RuntimeError(
                    f"finite-speed violation: support radius {diag_support[n + 1]:.4g} "
                    f"at t = {tn:.4g}")

    diagnostics = {
        "t": diag_t, "energy_u": diag_energy[0], "energy_v": diag_energy[1],
        "sup_u": diag_sup[0], "sup_v": diag_sup[1], "support_radius": diag_support,
    }
    if not config.store_history:
        z = SpaceTimeField.zeros(hist_grid, "odd")
        return SolutionHistory(z, z, z, z, config, diagnostics)
    return SolutionHistory(
        SpaceTimeField(hist_grid, frames[0], "odd"),
        SpaceTimeField(hist_grid, frames[1], "odd"),
        SpaceTimeField(hist_grid, frames[2], "odd"),
        SpaceTimeField(hist_grid, frames[3], "odd"),
        config, diagnostics,
    )


def _last_true(flags: np.ndarray) -> int:
    """Index of the last True in a 1-D boolean array, -1 if there is none."""
    j = flags.size - 1 - int(np.argmax(flags[::-1]))
    return j if flags[j] else -1


def _support_radius(cols: np.ndarray, r: np.ndarray, tol: float) -> float:
    """r of the last column whose max |state| exceeds tol (0.0 if none)."""
    j = _last_true(cols > tol)
    return float(r[j]) if j >= 0 else 0.0


def solve_linear_forced(data: InitialData, forcing_u: SpaceTimeField,
                        forcing_v: SpaceTimeField, config: SolveConfig) -> SolutionHistory:
    """Linear wave solves with prescribed sources (the fixed-point step)."""
    cfg = SolveConfig(grid=config.grid, mode="linear_forced",
                      forcing=(forcing_u, forcing_v),
                      record_stride=config.record_stride,
                      store_history=config.store_history,
                      check_support=False)
    return solve(data, cfg)


# ----------------------------------------------------------------------
# d'Alembert oracle for the free radial wave equation
# ----------------------------------------------------------------------

def odd_extension(profile: Callable, amplitude: float = 1.0) -> Callable:
    """phi(s) = s * amplitude * profile(|s|): odd extension of r * u0(r)."""
    def phi(s):
        s = np.asarray(s, dtype=float)
        return s * amplitude * np.asarray(profile(np.abs(s)), dtype=float)
    return phi


def exact_dalembert(profile: Callable, t: float, r: np.ndarray,
                    amplitude: float = 1.0) -> np.ndarray:
    """Conjugate solution W(t, r) = (phi(r+t) + phi(r-t)) / 2 for data (u0, 0)."""
    phi = odd_extension(profile, amplitude)
    return 0.5 * (phi(r + t) + phi(r - t))


def exact_dalembert_dt(profile: Callable, t: float, r: np.ndarray,
                       amplitude: float = 1.0, h: float = 1e-6) -> np.ndarray:
    """dt W for the closed form, via a fine central difference of phi."""
    phi = odd_extension(profile, amplitude)
    return 0.5 * ((phi(r + t + h) - phi(r + t - h)) - (phi(r - t + h) - phi(r - t - h))) / (2 * h)


def dalembert_history(data: InitialData, grid: GridSpec) -> SolutionHistory:
    """Closed-form homogeneous history for data (u0, 0), (v0, 0); oracle only."""
    tvals = grid.t
    Wu = np.stack([exact_dalembert(data.u0, t, grid.r, data.amplitude) for t in tvals])
    Wv = np.stack([exact_dalembert(data.v0, t, grid.r, data.amplitude) for t in tvals])
    Pu = np.stack([exact_dalembert_dt(data.u0, t, grid.r, data.amplitude) for t in tvals])
    Pv = np.stack([exact_dalembert_dt(data.v0, t, grid.r, data.amplitude) for t in tvals])
    cfg = SolveConfig(grid=grid, mode="homogeneous", check_support=False)
    return SolutionHistory(
        SpaceTimeField(grid, Wu, "odd"), SpaceTimeField(grid, Pu, "odd"),
        SpaceTimeField(grid, Wv, "odd"), SpaceTimeField(grid, Pv, "odd"), cfg,
    )


def config_hash(obj) -> str:
    """Stable short hash of a JSON-serializable configuration."""
    blob = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]
