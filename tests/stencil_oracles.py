"""Test oracles for the grid stencil layer.

``_diff_t``, ``_diff_r`` and ``_diff2`` are copies of the per-axis stencils
the last-axis layer replaced: ``_diff_t`` differentiates along axis 0,
``_diff_r`` along axis 1 with the parity ghost at r = 0, ``_diff2`` is the
second derivative along either axis, and ``_quot`` the quotient by r.  The
layer must reproduce them bit for bit on every array layout it serves
(``layouts``).  ``word_sums_ref`` is the word-by-word oracle of
``grid._word_sums``, built on ``apply_z_multi`` (every Z word of a field on
the full grid, one ``derivative`` at a time) and ``apply_word``.
``raw_form`` is the null form's product combination dt u dt v - dr u dr v,
ungrouped.
"""

from typing import Sequence

import numpy as np
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from radialwave.grid import MAX_WORD_LEN, SpaceTimeField, derivative, quotient_by_r, z_words


def apply_word(f: SpaceTimeField, word: Sequence[str]) -> SpaceTimeField:
    """Apply a composition of derivative directions, innermost (rightmost) first."""
    out = f
    for tag in reversed(word):
        out = derivative(out, tag)
    return out


def apply_z_multi(f: SpaceTimeField, max_len: int) -> list[tuple[tuple[str, ...], SpaceTimeField]]:
    """All Z^mu f for |mu| <= max_len over the radial vector fields {dt, dr, S}.

    Deterministic ordering (length, then lexicographic with dt < dr < S) so
    downstream reports are byte-for-byte reproducible.  Computed incrementally:
    each word of length L extends a stored word of length L-1.
    """
    if max_len > MAX_WORD_LEN:
        raise ValueError(f"N = {max_len} exceeds the supported maximum {MAX_WORD_LEN}")
    results: dict[tuple[str, ...], SpaceTimeField] = {(): f}
    for word in z_words(max_len)[1:]:
        base = results[word[1:]]
        results[word] = derivative(base, word[0])
    return [(w, results[w]) for w in z_words(max_len)]


def raw_form(dtu: np.ndarray, dru: np.ndarray, dtv: np.ndarray, drv: np.ndarray) -> np.ndarray:
    return dtu * dtv - dru * drv


def _diff_t(values: np.ndarray, dt: float) -> np.ndarray:
    out = np.empty_like(values)
    np.subtract(values[2:], values[:-2], out=out[1:-1])
    out[1:-1] /= 2 * dt
    out[0] = (-3 * values[0] + 4 * values[1] - values[2]) / (2 * dt)
    out[-1] = (3 * values[-1] - 4 * values[-2] + values[-3]) / (2 * dt)
    return out


def _diff_r(values: np.ndarray, dr: float, parity: str | None) -> np.ndarray:
    out = np.empty_like(values)
    np.subtract(values[:, 2:], values[:, :-2], out=out[:, 1:-1])
    out[:, 1:-1] /= 2 * dr
    if parity == "odd":
        out[:, 0] = values[:, 1] / dr  # ghost: f(-dr) = -f(dr)
    elif parity == "even":
        out[:, 0] = 0.0
    else:
        out[:, 0] = (-3 * values[:, 0] + 4 * values[:, 1] - values[:, 2]) / (2 * dr)
    out[:, -1] = (3 * values[:, -1] - 4 * values[:, -2] + values[:, -3]) / (2 * dr)
    return out


def _diff2(values: np.ndarray, h: float, axis: int, parity: str | None = None) -> np.ndarray:
    v = values if axis == 0 else values.T
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2 * v[1:-1] + v[:-2]) / (h * h)
    if axis == 1 and parity == "odd":
        out[0] = -2 * v[0] / (h * h)  # ghost f(-h) = -f(h); vanishes with f(0)=0
    elif axis == 1 and parity == "even":
        out[0] = 2 * (v[1] - v[0]) / (h * h)
    else:
        out[0] = (2 * v[0] - 5 * v[1] + 4 * v[2] - v[3]) / (h * h)
    out[-1] = (2 * v[-1] - 5 * v[-2] + 4 * v[-3] - v[-4]) / (h * h)
    return out if axis == 0 else out.T


def _quot(values: np.ndarray, r: np.ndarray) -> np.ndarray:
    """values / r along axis 1, the first column extrapolated from the next three."""
    out = np.empty_like(values)
    out[:, 1:] = values[:, 1:] / r[1:]
    out[:, 0] = 3 * out[:, 1] - 3 * out[:, 2] + out[:, 3]
    return out


@st.composite
def layouts(draw):
    """(values, out) in one layout the stencils serve: a 1-D row, a strided
    stack of 2 or 4 rows with a strided ``out``, or a full (nt, nr) array
    with a fresh ``out``."""
    kind = draw(st.sampled_from(["1-D", "2-row", "4-row", "full"]))
    n = draw(st.integers(5, 24))
    rows = {"1-D": 1, "2-row": 2, "4-row": 4}.get(kind) or draw(st.integers(5, 12))
    base = draw(arrays(np.float64, (2 * rows, n),
                       elements=st.floats(-1e3, 1e3, allow_nan=False, width=64)))
    out = np.full((2 * rows, n), np.nan)
    if kind == "1-D":
        return base[0], out[1]
    if kind == "full":
        return np.ascontiguousarray(base[:rows]), np.full((rows, n), np.nan)
    return base[0::2], out[1::2]


WORD_PREFIXES = (None, "dt", "dr", "d", "good", "quot", "bad", "good/r", "box", "dtdr2", "bad2",
                 "good2")


def _prefix_term(g: SpaceTimeField, prefix) -> np.ndarray:
    """|P g| of one word field g, from the public derivatives and the copies above."""
    grid = g.grid
    if prefix is None:
        return np.abs(g.values)
    if prefix in ("dt", "dr", "good", "bad"):
        return np.abs(derivative(g, prefix).values)
    if prefix == "good/r":
        return np.abs(quotient_by_r(derivative(g, "good")).values)
    if prefix == "d":
        return np.abs(derivative(g, "dt").values) + np.abs(derivative(g, "dr").values)
    if prefix == "quot":
        return np.abs(quotient_by_r(g).values)
    if prefix == "box":
        par = {"even": "odd", "odd": "even", None: None}[g.parity]
        W = grid.r[None, :] * g.values
        vals = _diff2(W, grid.dt, axis=0) - _diff2(W, grid.dr, axis=1, parity=par)
        return np.abs(quotient_by_r(SpaceTimeField(grid, vals, par)).values)
    if prefix == "dtdr2":
        return np.abs(_diff2(g.values, grid.dt, axis=0)
                      - _diff2(g.values, grid.dr, axis=1, parity=g.parity))
    if prefix in ("bad2", "good2"):
        tag = prefix[:-1]
        return np.abs(apply_word(g, (tag, tag)).values)
    raise ValueError(prefix)


def word_sums_ref(f: SpaceTimeField, keys) -> dict:
    """For each key (n, P), the sum over |mu| <= n of |P Z^mu f|: every word
    from ``apply_z_multi`` on the full grid, its terms added in word order."""
    sums = {key: np.zeros(f.grid.shape()) for key in keys}
    for word, g in apply_z_multi(f, max(n for n, _ in keys)):
        for (n, prefix), total in sums.items():
            if len(word) <= n:
                total += _prefix_term(g, prefix)
    return sums
