"""Fixed-point iteration driver, boundedness bookkeeping, and decay fits.

The driver evolves the differences delta_k = u_k - u_{k-1} of the iterates:
delta_1 = u_1 is the free wave, and for k >= 2 delta_k solves the linear
system from zero data with the source G_k = F(u_{k-1}) - F(u_{k-2}), written
with the bilinear form B of each equation (``null_form`` for u, dt u dt v
for v) as B(delta_{k-1}, a) + B(a, delta_{k-1}) - B(delta_{k-1}, delta_{k-1}),
a standing for u_{k-1}.  Then u_k = u_{k-1} + delta_k; M is taken of u_k and
A of delta_k, so A_k is no difference of two separately rounded solves.  The
iterates live on the given grid at dt = dr (``PicardConfig.grid``).

u_k and delta_k are each held as W of u and v, in its light cone
(``solver._LightCone``: row n up to column n + S, S the columns with r <= 2,
0.52 of the grid at the benchmark's dr 1/8, T 64), plus the first and last
rows of dt W (``solver._CentredDt``), whose other rows are (W[n+1] -
W[n-1]) / 2h of that W.  u_k = u_{k-1} + delta_k sums W per block and the
edge rows in place (so its other rows equal the sum of the solves' rows in
exact arithmetic only).  One pair is resident, u_{k-1} and delta_{k-1}
(about two grid arrays; one object at k = 2, as delta_1 = u_1).  G_k is
never held whole: the solve of delta_k reads it one block of 16 rows or
more at a time (``_sources``), each built from both just before the steps
that read it, and delta_{k-1} goes when the solve returns.  The solve holds
the pair, delta_k (about one more) and one block's temporaries, about 0.4
grid arrays, which is the run's peak.  The first solve's zero source lives
for that call only.  M and A read u = W / r per window of 32 rows
(``over_r``); their window temporaries take about 1.3 grid arrays.

With an output directory, the histories of u_k and delta_k go to
``picard_<tag>_k<k>`` and its ``delta`` subdirectory, then the records
(naming k, and the form ``_FORM`` of the histories) replace the old ones in
one rename, and only then are older histories removed: an interrupt leaves
the old (records, histories) pair or the new one.  The dt W files hold every
row, written a block at a time, and only their first and last rows are read
back.  Records of another form, records that name another k, a k with no
saved delta, or histories that do not load are refused.  The tag keys
everything but ``kmax``, so a rerun with a larger kmax solves only the new
iterates and one with a smaller kmax returns the first kmax records.
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

from .grid import GridSpec, _d1, _over_r, _span
from .norms import _check_params, a_functional, m_and_a_functionals, m_functional
from .solver import (
    InitialData, SolveConfig, SolutionHistory, _cone_reach, _LightCone, bump, calibrate,
    config_hash, nonlinearity, solve, solve_linear_forced, zero_profile,
)

_FORM = "W and dt W edge rows"  # of the saved histories, named in the records file


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
    """(dtu, dru, dtv, drv) scalar frames on ``rows`` (a unit-step slice) of the
    history, each frame's rows read by ``rect``: dt from the conjugate momenta,
    dr by the stencil, each row from its own row."""
    r, dr = hist.grid.r, hist.grid.dr
    dtu, dtv = (_over_r(f.rect(rows), r) for f in (hist.dtW_u, hist.dtW_v))
    dru, drv = (_d1(_over_r(f.rect(rows), r), dr, "even") for f in (hist.W_u, hist.W_v))
    return dtu, dru, dtv, drv


def _source_rows(hist: SolutionHistory, diff: SolutionHistory, rows: slice) -> list:
    """G = B(d, a) + B(a, d) - B(d, d) of both equations on ``rows`` (a unit-step
    slice), a and d the frames of ``hist`` and ``diff`` (B(x, y): u's
    derivatives from x, v's from y): a row's source reads that row alone."""
    def bilinear(x, y, which):
        return nonlinearity(x[0], x[1], y[2], y[3], which)

    a, d = _derivative_frames(hist, rows), _derivative_frames(diff, rows)
    return [bilinear(d, a, w) + bilinear(a, d, w) - bilinear(d, d, w) for w in ("u-eq", "v-eq")]


class _Source:
    """One equation's G_k of ``hist`` and ``diff`` (``which``: 0 for u, 1 for v)
    as a forcing of ``solve_linear_forced``, never held whole: its cells are
    built when read (``rect``; the solve reads one block of its W's light cone
    at a time), both equations' rows at once, so the other equation's read of
    those rows takes them from ``built``, which the pair shares.  Its row n
    vanishes past column n + ``reach``, the widest cone of the W it reads."""

    def __init__(self, hist: SolutionHistory, diff: SolutionHistory, which: int, built: dict):
        self.hist, self.diff, self.which, self.built = hist, diff, which, built
        self.grid = hist.grid
        self.reach = max(f.reach for h in (hist, diff) for f in (h.W_u, h.W_v))

    values = property(lambda self: self.rect(slice(None)), doc="The whole array, built anew.")

    def rect(self, rows: slice) -> np.ndarray:
        """The rows ``rows`` (a unit-step slice)."""
        span = _span(rows, self.grid.nt)
        if span not in self.built:  # the first read of these rows builds both equations'
            self.built.clear()
            self.built[span] = _source_rows(self.hist, self.diff, rows)
        return self.built[span][self.which]


def _sources(hist: SolutionHistory, diff: SolutionHistory) -> list:
    """G_k of u_{k-1} = ``hist`` and delta_{k-1} = ``diff``: the two forcings
    (``_Source``) of the solve of delta_k."""
    built: dict = {}
    return [_Source(hist, diff, which, built) for which in (0, 1)]


def _add_into(hist: SolutionHistory, diff: SolutionHistory) -> None:
    """hist += diff in place: W to W a block at a time (both held in one light
    cone) and dt W's edge rows to its edge rows, so hist's other dt W rows are
    the centred difference of the summed W."""
    for a, b in ((hist.W_u, diff.W_u), (hist.W_v, diff.W_v)):
        for (_, _, x), (_, _, y) in zip(a.blocks, b.blocks):
            x += y
    hist.dtW_u.edges += diff.dtW_u.edges
    hist.dtW_v.edges += diff.dtW_v.edges


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
            hist = diff = solve_linear_forced(data, *[_LightCone(config.grid)] * 2)
            m, a = m_and_a_functionals(hist.W_u, hist.W_v, *params, over_r=True)
        else:
            # delta_{k-1} goes with the sources when the solve returns
            diff = solve_linear_forced(InitialData(amplitude=0.0), *_sources(hist, diff))
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
        json.dump({"config": config.descriptor(), "form": _FORM, "k": records[-1].k,
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
    if blob.get("form") != _FORM:
        raise ValueError(f"{rec_path}: histories not of the form {_FORM!r} (u_k's dt W "
                         "a running sum); remove it to start afresh")
    hist_dir = f"{prefix}{k}"
    if last != k or not os.path.isdir(hist_dir):
        raise ValueError(f"{rec_path}: records up to k = {last} do not match a "
                         f"saved history of iterate k = {k}; remove it to start afresh")
    delta_dir = os.path.join(hist_dir, "delta")
    if not os.path.isdir(delta_dir):
        raise ValueError(f"{hist_dir} holds no difference delta_{k} (a state of the "
                         "separately solved iterates); remove it to start afresh")
    try:
        hist, diff = SolutionHistory.load(hist_dir), SolutionHistory.load(delta_dir)
        if any(f.reach != _cone_reach(config.grid) for h in (hist, diff) for f in (h.W_u, h.W_v)):
            raise ValueError(f"{hist_dir}: a W file nonzero past the light cone r = t + 2")
        return records, hist, diff
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


def fit_decay(diagnostics: dict) -> dict:
    """Log-log slopes of sup_x |u| and sup_x |v| against 1 + t on [T/8, T], T
    the last time of the diagnostics.

    Returns the fitted exponents plus the worst multiplicative departure of
    (1 + t) * sup|u| from its own median over the window.
    """
    t = np.asarray(diagnostics["t"], dtype=float)
    hi = float(t[-1])
    lo = hi / 8
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


def decay_run(grid: GridSpec, eps: float) -> dict:
    """Long semilinear evolution of the bump data (u, v) = (bump, 0), (bump, 0),
    calibrated to eps at order N = 2, recording diagnostics only (no history)."""
    data = calibrate(InitialData(bump, zero_profile, bump, zero_profile), grid, 2, eps)
    hist = solve(data, SolveConfig(grid=grid, mode="semilinear", store_history=False))
    return hist.diagnostics
