"""Test oracles for the solver layer.

``linear_forced_ref`` is a copy of the characteristic solve that stored all
four arrays (W_u, dt W_u, W_v, dt W_v): each step writes dt W of row n as
(W^{n+1} - W^{n-1}) / 2h, the last row from the row one step past t_max,
and row 0 holds the data velocity.  ``solve_linear_forced`` keeps W and the
first and last dt W rows, and every row it builds must reproduce these bit
for bit.

``source_difference_ref`` is the Picard driver's earlier source step, which
built G_k whole (in the light cone of its W) before the solve of delta_k;
the driver now builds each block of G_k's rows when the solve reads it,
and every row must reproduce this bit for bit.

``add_into_ref`` is the Picard driver's earlier sum u_k = u_{k-1} + delta_k,
which kept u_k's dt W whole as a running sum of the solves' dt W.  The
driver now sums W and dt W's edge rows and differences the summed W for the
other rows: equal in exact arithmetic, rounded otherwise.

``dalembert_history`` is the closed-form homogeneous history of data
(u0, 0), (v0, 0): W = (phi(r + t) + phi(r - t)) / 2 with phi the odd
extension of r u0 (``exact_dalembert``), and dt W by a fine central
difference of phi (``exact_dalembert_dt``).
"""

from typing import Callable

import numpy as np

from radialwave.grid import GridSpec, SpaceTimeField
from radialwave.picard import _derivative_frames
from radialwave.solver import (BlowUpSuspected, InitialData, SolutionHistory, _LightCone,
                               _neighbour_sum, nonlinearity)


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
    """Closed-form homogeneous history for data (u0, 0), (v0, 0)."""
    tvals = grid.t
    Wu = np.stack([exact_dalembert(data.u0, t, grid.r, data.amplitude) for t in tvals])
    Wv = np.stack([exact_dalembert(data.v0, t, grid.r, data.amplitude) for t in tvals])
    Pu = np.stack([exact_dalembert_dt(data.u0, t, grid.r, data.amplitude) for t in tvals])
    Pv = np.stack([exact_dalembert_dt(data.v0, t, grid.r, data.amplitude) for t in tvals])
    return SolutionHistory(
        SpaceTimeField(grid, Wu, "odd"), SpaceTimeField(grid, Pu, "odd"),
        SpaceTimeField(grid, Wv, "odd"), SpaceTimeField(grid, Pv, "odd"), "homogeneous",
    )


def source_difference_ref(hist, diff) -> list:
    """G = B(d, a) + B(a, d) - B(d, d) of both equations, a and d the frames of
    ``hist`` and ``diff`` (B(x, y): u's derivatives from x, v's from y), held
    in the light cone of their W (``solver._LightCone``) and taken per block
    of it (16 rows or more)."""
    def bilinear(x, y, which):
        return nonlinearity(x[0], x[1], y[2], y[3], which)

    reach = max(f.reach for h in (hist, diff) for f in (h.W_u, h.W_v))
    out = [_LightCone(hist.grid, None, reach, np.empty) for _ in range(2)]
    for (lo, hi, gu), (_, _, gv) in zip(out[0].blocks, out[1].blocks):
        rows = slice(lo, hi)
        a, d = _derivative_frames(hist, rows), _derivative_frames(diff, rows)
        for g, w in zip((gu, gv), ("u-eq", "v-eq")):
            g[:] = (bilinear(d, a, w) + bilinear(a, d, w) - bilinear(d, d, w))[:, :g.shape[1]]
    return out


def add_into_ref(hist, diff) -> None:
    """hist += diff, dt W whole: hist's dt W (built whole from its W, or
    already whole) plus diff's, row by row, and W whole."""
    hist.dtW_u, hist.dtW_v = (SpaceTimeField(hist.grid, h.values + d.values, "odd")
                              for h, d in ((hist.dtW_u, diff.dtW_u), (hist.dtW_v, diff.dtW_v)))
    hist.W_u, hist.W_v = (SpaceTimeField(hist.grid, h.values + d.values, "odd")
                          for h, d in ((hist.W_u, diff.W_u), (hist.W_v, diff.W_v)))


def linear_forced_ref(data: InitialData, forcing_u, forcing_v) -> np.ndarray:
    """(W_u, dt W_u, W_v, dt W_v) of the characteristic solve, (4, nt, nr)."""
    grid = forcing_u.grid
    r, h, nt, nr = grid.r, grid.dt, grid.nt, grid.nr
    frames = np.empty((4, nt, nr))
    W, P = frames[0::2], frames[1::2]
    for row, fn in zip(frames[:, 0], (data.u0, data.u1, data.v0, data.v1)):
        row[:] = r * data.amplitude * np.asarray(fn(r), dtype=float)
    h2r = h * h * r
    src, past = np.empty((2, 2, nr))
    for n in range(nt):
        new = W[:, n + 1] if n + 1 < nt else past
        _neighbour_sum(W[:, n], new)
        np.multiply(forcing_u.values[n], h2r, out=src[0])
        np.multiply(forcing_v.values[n], h2r, out=src[1])
        new += src
        if n == 0:
            new *= 0.5
            new += (_neighbour_sum(P[:, 0], src) + 4 * P[:, 0]) * (h / 6)
        else:
            new -= W[:, n - 1]
            np.subtract(new, W[:, n - 1], out=P[:, n])
            P[:, n] /= 2 * h
        if not np.isfinite(new).all():
            raise BlowUpSuspected((n + 1) * h)
    return frames
