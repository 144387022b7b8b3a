"""Fixed-point iteration driver, boundedness bookkeeping, and decay fits.

The driver evolves the differences delta_k = u_k - u_{k-1} of the iterates:
delta_1 = u_1 is the free wave, and for k >= 2 delta_k solves the linear
system from zero data with the source G_k = F(u_{k-1}) - F(u_{k-2}), written
with the bilinear form B of each equation (``null_form`` for u, dt u dt v
for v) as B(delta_{k-1}, a) + B(a, delta_{k-1}) - B(delta_{k-1}, delta_{k-1}),
a standing for u_{k-1}.  Then u_k = u_{k-1} + delta_k; M is taken of u_k and
A of delta_k, so A_k is no difference of two separately rounded solves.  The
iterates live on the given grid at dt = dr (``PicardConfig.grid``).  One pair
of histories is resident: u_{k-1}, four grid arrays (W and dt W of u and v),
and delta_{k-1}, two (its W; a characteristic solve holds dt W as its first
and last rows, the others being the centred difference of W), one object at
k = 2, as delta_1 = u_1.  G_k (two arrays) is built from both in blocks of
rows, then delta_{k-1} is dropped before the solve makes delta_k, and G_k
when it returns; delta_k is added into u_{k-1}'s arrays in place, so they
hold u_k, whose dt W, a running sum, is kept whole.  The first solve's zero
source lives for that call only.  M and A read u = W / r per block of rows
(``over_r``), so no quotient is built whole.

With an output directory, the histories of u_k and delta_k go to
``picard_<tag>_k<k>`` and its ``delta`` subdirectory, then the records
(naming k) replace the old ones in one rename, and only then are older
histories removed: an interrupt leaves the old (records, histories) pair or
the new one.  The dt W files of delta_k hold every row, written a block at a
time, and only their first and last rows are read back.  Records that name
another k, a k with no saved delta, or histories that do not load are
refused.  The tag keys everything but ``kmax``, so a rerun with a larger kmax
solves only the new iterates and one with a smaller kmax returns the first
kmax records.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import time
from dataclasses import asdict, dataclass, field as dc_field, replace

import numpy as np

from .grid import GridSpec, SpaceTimeField, _d1, _over_r
from .norms import _check_params, a_functional, m_and_a_functionals, m_functional
from .solver import (
    InitialData, SolveConfig, SolutionHistory, _row_blocks, bump, calibrate, config_hash,
    nonlinearity, solve, solve_linear_forced, zero_profile,
)


class NonContraction(RuntimeError):
    """Raised when the difference functional fails to decrease three times in
    a row; carries the records accumulated so far."""

    def __init__(self, records):
        super().__init__(
            "difference functional non-decreasing for three consecutive iterates")
        self.records = records


@dataclass
class PicardConfig:
    grid: GridSpec
    eps: float
    p: float = 0.75
    delta: float = 0.2
    N: int = 2
    kmax: int = 6
    data: InitialData = dc_field(default_factory=lambda: InitialData(
        bump, zero_profile, bump, zero_profile))
    outdir: str | None = None

    def __post_init__(self):
        _check_params(self.p, self.delta, self.N)
        # M_1 / eps fits the boundedness constant, so eps = 0 has no verdict
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ValueError(f"eps must be finite and positive, got {self.eps}")
        if self.kmax < 1:
            raise ValueError(f"kmax must be at least 1, got {self.kmax}")
        self.grid = replace(self.grid, cfl=1.0)  # dt = dr, whatever cfl was given

    def descriptor(self) -> dict:
        """The run's resume key, all but ``kmax``; the data enter as a digest of
        the four profiles sampled on the grid (``calibrate`` sets the amplitude)."""
        g, d = self.grid, self.data
        profiles = hashlib.sha256()
        for fn in (d.u0, d.u1, d.v0, d.v1):
            profiles.update(np.broadcast_to(np.asarray(fn(g.r), dtype="<f8"), g.r.shape).tobytes())
        return {**asdict(g), "eps": self.eps, "p": self.p, "delta": self.delta,
                "N": self.N, "data": profiles.hexdigest()[:16],
                "support_radius": d.support_radius}


@dataclass
class IterationRecord:
    k: int
    m_total: float
    a_total: float
    contraction_ratio: float | None
    m_slots: dict = dc_field(default_factory=dict)
    a_slots: dict = dc_field(default_factory=dict)
    wall_time: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "IterationRecord":
        return cls(**d)


def _derivative_frames(hist: SolutionHistory, rows=slice(None)):
    """(dtu, dru, dtv, drv) scalar frames on ``rows`` of the history: dt from the
    conjugate momenta (``SolutionHistory.dt_rows``), dr by the stencil, each row
    from its own row."""
    r, dr = hist.grid.r, hist.grid.dr
    dtu, dtv = (_over_r(x, r) for x in hist.dt_rows(rows))
    dru, drv = (_d1(_over_r(f.values[rows], r), dr, "even") for f in (hist.W_u, hist.W_v))
    return dtu, dru, dtv, drv


def _source_difference(hist: SolutionHistory, diff: SolutionHistory):
    """G = B(d, a) + B(a, d) - B(d, d) of both equations, a and d the frames of
    ``hist`` and ``diff`` (B(x, y): u's derivatives from x, v's from y), taken
    in the blocks of ``solver._row_blocks``: a row's source reads that row
    alone, and small blocks keep their temporaries small beside the grid
    arrays."""
    def bilinear(x, y, which):
        return nonlinearity(x[0], x[1], y[2], y[3], which)

    out = np.empty((2, *hist.grid.shape()))
    for rows in _row_blocks(hist.grid.nt):
        a, d = _derivative_frames(hist, rows), _derivative_frames(diff, rows)
        for g, w in zip(out[:, rows], ("u-eq", "v-eq")):
            g[:] = bilinear(d, a, w) + bilinear(a, d, w) - bilinear(d, d, w)
    return [SpaceTimeField(hist.grid, g) for g in out]


def _add_into(hist: SolutionHistory, diff: SolutionHistory) -> None:
    """hist += diff in place, dt W a block of rows at a time.  A sum of solves is
    no centred difference, so hist's dt W is made whole first, from its W as
    the solve left it."""
    grid = hist.grid
    hist.dtW_u, hist.dtW_v = (SpaceTimeField(grid, f.values, "odd")
                              for f in (hist.dtW_u, hist.dtW_v))
    hist.W_u.values += diff.W_u.values
    hist.W_v.values += diff.W_v.values
    for rows in _row_blocks(grid.nt):
        for total, d in zip(hist.dt_rows(rows), diff.dt_rows(rows)):
            total += d


def run_iteration(config: PicardConfig) -> list[IterationRecord]:
    """Run the iteration on the differences (module docstring); A_1 is A of u_1.
    Records (and histories, with ``outdir``) are persisted per step and picked
    up again on rerun with the same configuration, any kmax."""
    data = calibrate(config.data, config.grid, config.N, config.eps)
    params = config.p, config.delta, config.N
    records: list[IterationRecord] = []
    tag = config_hash(config.descriptor())

    hist = diff = None  # u_k and delta_k
    if config.outdir:
        os.makedirs(config.outdir, exist_ok=True)
        records, hist, diff = _load_state(config, tag)
        records = records[:config.kmax]
    if _rising(records) >= 3:  # the saved run stopped here
        raise NonContraction(records)

    for k in range(len(records) + 1, config.kmax + 1):
        t0 = time.perf_counter()
        if k == 1:
            hist = diff = solve_linear_forced(data, *[SpaceTimeField.zeros(config.grid)] * 2)
            m, a = m_and_a_functionals(hist.W_u, hist.W_v, *params, over_r=True)
        else:
            source, diff = _source_difference(hist, diff), None
            diff = solve_linear_forced(InitialData(amplitude=0.0), *source)
            del source
            _add_into(hist, diff)  # u_{k-1} becomes u_k
            m = m_functional(hist.W_u, hist.W_v, *params, over_r=True)
            a = a_functional(diff.W_u, diff.W_v, *params, over_r=True)
        prev_a = records[-1].a_total if records else None
        ratio = None if prev_a is None else (a.total / prev_a if prev_a > 0 else float("inf"))
        rec = IterationRecord(k, m.total, a.total, ratio, dict(m.slots),
                              dict(a.slots), time.perf_counter() - t0)
        records.append(rec)
        if config.outdir:
            _save_state(config, tag, records, hist, diff)
        if _rising(records) >= 3:
            raise NonContraction(records)
    return records


def _rising(records: list[IterationRecord]) -> int:
    """How many records at the end have a contraction ratio of at least 1."""
    return next((n for n, r in enumerate(reversed(records))
                 if not (r.contraction_ratio or 0.0) >= 1.0), len(records))


def _state_paths(config: PicardConfig, tag: str):
    """(records file, prefix of the per-iterate history directories)."""
    base = os.path.join(config.outdir, f"picard_{tag}")
    return base + "_records.json", base + "_k"


def _save_state(config, tag, records, hist, diff):
    rec_path, prefix = _state_paths(config, tag)
    hist_dir = f"{prefix}{records[-1].k}"
    shutil.rmtree(hist_dir, ignore_errors=True)  # left half-written by an interrupt
    hist.save(hist_dir)
    diff.save(os.path.join(hist_dir, "delta"))
    with open(rec_path + ".tmp", "w") as fh:
        json.dump({"config": config.descriptor(), "k": records[-1].k,
                   "records": [r.to_json() for r in records]}, fh, sort_keys=True)
    os.replace(rec_path + ".tmp", rec_path)
    for name in os.listdir(config.outdir):  # older histories, once superseded
        path = os.path.join(config.outdir, name)
        if path.startswith(prefix) and path != hist_dir:
            shutil.rmtree(path)


def _load_state(config, tag):
    rec_path, prefix = _state_paths(config, tag)
    if not os.path.exists(rec_path):
        return [], None, None
    try:
        with open(rec_path) as fh:
            blob = json.load(fh)
        records = [IterationRecord.from_json(d) for d in blob["records"]]
        k, last = blob.get("k"), records[-1].k
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"{rec_path}: malformed records ({type(exc).__name__}: {exc}); "
                         "remove it to start afresh") from None
    hist_dir = f"{prefix}{k}"
    if last != k or not os.path.isdir(hist_dir):
        raise ValueError(f"{rec_path}: records up to k = {last} do not match a "
                         f"saved history of iterate k = {k}; remove it to start afresh")
    delta_dir = os.path.join(hist_dir, "delta")
    if not os.path.isdir(delta_dir):
        raise ValueError(f"{hist_dir} holds no difference delta_{k} (a state of the "
                         "separately solved iterates); remove it to start afresh")
    try:
        return (records, SolutionHistory.load(hist_dir),
                SolutionHistory.load(delta_dir, dt_edges=True))
    except (ValueError, OSError, KeyError, TypeError) as exc:  # a manifest missing a key
        raise ValueError(f"the saved state cannot be loaded ({type(exc).__name__}: {exc}); "
                         f"remove {rec_path} and {hist_dir} to start afresh") from None


def check_boundedness(records: list[IterationRecord], eps: float) -> dict:
    """Judge sup_k M_k against the 2*C0*eps threshold with C0 fitted from the
    first (linear) iterate."""
    if not records:
        raise ValueError("no iteration records")
    fitted_c0 = records[0].m_total / eps
    threshold = 2.0 * fitted_c0 * eps
    worst = max(r.m_total for r in records)
    return {
        "fitted_C0": fitted_c0,
        "threshold": threshold,
        "max_m": worst,
        "margin": worst / threshold,
        "bounded": bool(worst <= 1.05 * threshold),
    }


def fit_decay(diagnostics: dict, t_min: float | None = None,
              t_max: float | None = None) -> dict:
    """Log-log slopes of sup_x |u| and sup_x |v| against 1 + t on [T/8, T].

    Returns the fitted exponents plus the worst multiplicative departure of
    (1 + t) * sup|u| from its own median over the window.
    """
    t = np.asarray(diagnostics["t"], dtype=float)
    horizon = float(t[-1])
    lo = horizon / 8 if t_min is None else t_min
    hi = horizon if t_max is None else t_max
    sel = (t >= lo) & (t <= hi) & (t > 0)
    if np.count_nonzero(sel) < 8:
        raise ValueError(f"window [{lo}, {hi}] holds too few samples for a fit")
    out = {"window": (float(lo), float(hi))}
    for name in ("sup_u", "sup_v"):
        y = np.asarray(diagnostics[name], dtype=float)[sel]
        if np.any(y <= 0):
            raise ValueError(f"{name} vanishes inside the fit window")
        slope, intercept = np.polyfit(np.log1p(t[sel]), np.log(y), 1)
        out[f"exponent_{name[4:]}"] = float(slope)
        out[f"amplitude_{name[4:]}"] = float(np.exp(intercept))
    tu = (1.0 + t[sel]) * np.asarray(diagnostics["sup_u"], dtype=float)[sel]
    med = float(np.median(tu))
    out["t_sup_u_factor"] = float(max(np.max(tu) / med, med / np.min(tu)))
    return out


def decay_run(grid: GridSpec, eps: float, N: int = 2,
              data: InitialData | None = None) -> dict:
    """Long semilinear evolution recording diagnostics only (no history)."""
    data = data or InitialData(bump, zero_profile, bump, zero_profile)
    data = calibrate(data, grid, N, eps)
    hist = solve(data, SolveConfig(grid=grid, mode="semilinear", store_history=False))
    return hist.diagnostics
