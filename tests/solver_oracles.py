"""Test oracles for the solver layer.

``linear_forced_ref`` is a copy of the characteristic solve that stored all
four arrays (W_u, dt W_u, W_v, dt W_v): each step writes dt W of row n as
(W^{n+1} - W^{n-1}) / 2h, the last row from the row one step past t_max,
and row 0 holds the data velocity.  ``solve_linear_forced`` keeps W and the
first and last dt W rows, and every row it builds must reproduce these bit
for bit.
"""

import numpy as np

from radialwave.solver import BlowUpSuspected, InitialData, _neighbour_sum


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
