import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import radialwave as rw
from radialwave import grid
from radialwave.grid import (
    DR, DT, MAX_WORD_LEN, _d1, _d2, _over_r, _word_sums, _z_walk, apply_word, apply_z_multi,
    derivative, z_words,
)
from stencil_oracles import (WORD_PREFIXES, _diff2, _diff_r, _diff_t, _quot, layouts,
                             word_sums_ref)
from test_solver import _ref_d2r_odd, _ref_quotient, _ref_radial_deriv


def small_grid(dr=0.25, cfl=0.5, r_max=8.0, t_max=4.0):
    return rw.GridSpec(dr=dr, cfl=cfl, r_max=r_max, t_max=t_max)


class TestGridSpec:
    def test_shapes(self):
        g = small_grid()
        assert g.shape() == (33, 33)
        assert g.dt == 0.125
        np.testing.assert_allclose(g.r[-1], 8.0)
        np.testing.assert_allclose(g.t[-1], 4.0)

    def test_rejects_bad_cfl(self):
        with pytest.raises(ValueError):
            small_grid(cfl=1.5)
        with pytest.raises(ValueError):
            small_grid(cfl=0.0)

    def test_rejects_short_radial_extent(self):
        with pytest.raises(ValueError):
            rw.GridSpec(dr=0.25, cfl=0.5, r_max=6.0, t_max=4.0)

    def test_rejects_non_integer_cells(self):
        with pytest.raises(ValueError):
            rw.GridSpec(dr=0.3, cfl=0.5, r_max=8.0, t_max=4.0)

    @pytest.mark.parametrize("name", ["dr", "cfl", "r_max", "t_max"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_fields(self, name, value):
        kw = dict(dr=0.25, cfl=0.5, r_max=8.0, t_max=4.0)
        kw[name] = value
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            rw.GridSpec(**kw)


class TestField:
    @pytest.mark.parametrize("fn", [lambda t, r: np.cos(t) * r,  # an array of the grid's size
                                    lambda t, r: np.exp(-r),      # one row, broadcast
                                    lambda t, r: 2.5])            # a scalar, broadcast
    def test_from_function_copies_once(self, fn):
        # fn's result plus one array; the parent's astype and copy of a
        # broadcast result made two
        g = small_grid(dr=1 / 32, r_max=64.0, t_max=16.0)
        t, r = g.meshes()
        result_bytes = np.asarray(fn(t, r)).nbytes
        tracemalloc.start()
        try:
            f = rw.SpaceTimeField.from_function(g, fn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < result_bytes + 1.1 * f.values.nbytes
        assert f.values.flags.writeable and f.values.flags.owndata and f.values.flags.c_contiguous
        assert np.array_equal(f.values, np.broadcast_to(fn(t, r), g.shape()))

    def test_odd_field_must_vanish_on_axis(self):
        g = small_grid()
        vals = np.ones(g.shape())
        with pytest.raises(rw.ParityError):
            rw.SpaceTimeField(g, vals, "odd")

    @pytest.mark.parametrize("axis_value, fill, raises", [
        (1e-3, -1e6, True),     # nonzero axis against a negative-dominated scale
        (1e-5, -1e6, False),    # below 1e-10 max|values|, which comes from the min
        (1e-5, 1e6, False),
        (1e-9, 0.5, True),      # scale floors at 1
        (1e-3, np.nan, True),   # a NaN scale floors at 1, as max(1, nan) does
    ])
    def test_odd_parity_scale_is_max_abs(self, axis_value, fill, raises):
        g = small_grid()
        vals = np.full(g.shape(), fill)
        vals[:, 0] = 0.0
        vals[3, 0] = axis_value
        scale = max(1.0, float(np.max(np.abs(vals))))
        assert (abs(axis_value) > 1e-10 * scale) == raises  # the reference verdict
        if raises:
            with pytest.raises(rw.ParityError):
                rw.SpaceTimeField(g, vals, "odd")
        else:
            rw.SpaceTimeField(g, vals, "odd")

    @pytest.mark.parametrize("fill", [1e6, -1e6, np.nan])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_axis_odd_field_accepted(self, fill, zero):
        g = small_grid()
        vals = np.full(g.shape(), fill)
        vals[:, 0] = zero
        assert rw.SpaceTimeField(g, vals, "odd").parity == "odd"

    @pytest.mark.parametrize("factor, raises", [(2.0, True), (0.5, False)])
    def test_axis_against_scale_bound(self, factor, raises):
        g = small_grid()
        vals = np.full(g.shape(), -1e3)
        vals[:, 0] = 0.0
        vals[-1, 0] = factor * 1e-10 * 1e3
        if raises:
            with pytest.raises(rw.ParityError):
                rw.SpaceTimeField(g, vals, "odd")
        else:
            rw.SpaceTimeField(g, vals, "odd")

    def test_nan_axis_keeps_its_verdict(self):
        # NaN compares false against the bound, before and after the zero-axis shortcut
        g = small_grid()
        vals = np.ones(g.shape())
        vals[:, 0] = 0.0
        vals[2, 0] = np.nan
        rw.SpaceTimeField(g, vals, "odd")

    def test_binary_roundtrip_bitexact(self, tmp_path):
        g = small_grid()
        f = rw.SpaceTimeField.from_function(g, lambda t, r: np.sin(t) * np.cos(r), "even")
        path = tmp_path / "f.bin"
        f.to_binary(path)
        back = rw.SpaceTimeField.from_binary(path)
        assert back.parity == "even"
        assert back.grid == g
        assert back.values.tobytes() == f.values.tobytes()

    def test_binary_io_copies_no_whole_array(self, tmp_path):
        # to_binary writes the values as they lie (no "<f8" copy, no bytes);
        # from_binary reads the payload into the field's one array (no bytes
        # object beside it, no copy of it)
        g = rw.GridSpec(dr=1 / 8, cfl=1.0, r_max=36.0, t_max=32.0)
        f = rw.SpaceTimeField.from_function(g, lambda t, r: np.sin(t) * np.cos(r), "even")
        path = tmp_path / "f.bin"
        peaks = []
        for step in (lambda: f.to_binary(path), lambda: rw.SpaceTimeField.from_binary(path)):
            tracemalloc.start()
            try:
                back = step()
                peaks.append(tracemalloc.get_traced_memory()[1] / f.values.nbytes)
            finally:
                tracemalloc.stop()
        assert back.values.tobytes() == f.values.tobytes()
        assert peaks[0] < 0.5 and peaks[1] < 1.5, peaks

    @pytest.mark.parametrize("change", [-8, -1, 8])
    def test_binary_payload_must_match_header(self, tmp_path, change):
        g = small_grid()
        path = tmp_path / "f.bin"
        rw.SpaceTimeField.zeros(g).to_binary(path)
        blob = path.read_bytes()
        path.write_bytes(blob[:change] if change < 0 else blob + bytes(change))
        want = 8 * g.nt * g.nr
        got = want + change
        with pytest.raises(ValueError, match=f"{got} .*{want}") as exc:
            rw.SpaceTimeField.from_binary(path)
        assert str(path) in str(exc.value)

    def test_binary_refuses_the_old_format(self, tmp_path):
        # RWFLD001 headers held J and nt, not the grid; such a file is refused by name
        path = tmp_path / "old.bin"
        g = small_grid()
        header = struct.pack("<8sddqqb", b"RWFLD001", g.dr, g.dt, g.nr - 1, g.nt, 0)
        path.write_bytes(header + np.zeros(g.shape()).tobytes())
        with pytest.raises(ValueError, match="RWFLD001.*remove it to start afresh") as exc:
            rw.SpaceTimeField.from_binary(path)
        assert str(path) in str(exc.value)

    def test_binary_refuses_an_unknown_parity_byte(self, tmp_path):
        path = tmp_path / "f.bin"
        rw.SpaceTimeField.zeros(small_grid(), "odd").to_binary(path)
        blob = bytearray(path.read_bytes())
        blob[struct.calcsize("<8sdddd")] = 7  # the parity byte ends the header
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="parity byte 7") as exc:
            rw.SpaceTimeField.from_binary(path)
        assert str(path) in str(exc.value)

    def test_binary_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a field file at all")
        with pytest.raises(ValueError):
            rw.SpaceTimeField.from_binary(path)


class TestDerivatives:
    # centered and one-sided stencils are second order, hence exact on
    # quadratics [TRIVIAL]
    def test_dt_exact_on_quadratic(self):
        g = small_grid()
        f = rw.SpaceTimeField.from_function(g, lambda t, r: t * t + 3 * t + 0 * r)
        d = rw.derivative(f, "dt")
        t, _ = g.meshes()
        np.testing.assert_allclose(d.values, np.broadcast_to(2 * t + 3, g.shape()),
                                   atol=1e-11)

    def test_dr_exact_on_even_quadratic(self):
        g = small_grid()
        f = rw.SpaceTimeField.from_function(g, lambda t, r: r * r + 0 * t, "even")
        d = rw.derivative(f, "dr")
        _, r = g.meshes()
        np.testing.assert_allclose(d.values, np.broadcast_to(2 * r, g.shape()), atol=1e-11)
        assert d.parity == "odd"

    def test_scaling_exact_on_monomials(self):
        # S(t^2) = 2 t^2 and S(r^2) = 2 r^2 [TRIVIAL]
        g = small_grid()
        f = rw.SpaceTimeField.from_function(g, lambda t, r: t * t + r * r, "even")
        d = rw.derivative(f, "S")
        np.testing.assert_allclose(d.values, 2 * f.values, atol=1e-10)

    def test_good_bad_combinations(self):
        g = small_grid()
        f = rw.SpaceTimeField.from_function(g, lambda t, r: t * r * r, "even")
        good = rw.derivative(f, "good")
        dt_v = rw.derivative(f, "dt").values
        dr_v = rw.derivative(f, "dr").values
        np.testing.assert_allclose(good.values, dt_v + dr_v, atol=1e-12)
        bad = rw.derivative(f, "bad")
        np.testing.assert_allclose(bad.values, dt_v - dr_v, atol=1e-12)
        assert good.parity is None and bad.parity is None

    def test_parity_propagation(self):
        g = small_grid()
        f = rw.SpaceTimeField.from_function(g, lambda t, r: r * np.cos(t), "odd")
        assert rw.derivative(f, "dt").parity == "odd"
        assert rw.derivative(f, "dr").parity == "even"
        assert rw.derivative(f, "S").parity == "odd"

    def test_unknown_tag_raises(self):
        g = small_grid()
        f = rw.SpaceTimeField.zeros(g)
        with pytest.raises(ValueError):
            rw.derivative(f, "dx")

    def test_tiny_grid_refused(self):
        g = rw.GridSpec(dr=2.0, cfl=1.0, r_max=8.0, t_max=4.0)
        f = rw.SpaceTimeField.zeros(g)
        with pytest.raises(rw.GridTooSmallError):
            rw.derivative(f, "dt")


class TestWords:
    def test_word_count(self):
        # 1 + 3 + 9 + 27 words over three directions [TRIVIAL]
        assert len(z_words(0)) == 1
        assert len(z_words(1)) == 4
        assert len(z_words(2)) == 13
        assert len(z_words(3)) == 40

    def test_order_is_deterministic(self):
        words = z_words(2)
        assert words[0] == ()
        assert words[1:4] == [("dt",), ("dr",), ("S",)]
        assert words[4] == ("dt", "dt")
        assert words == z_words(2)

    def test_length_cap(self):
        with pytest.raises(ValueError):
            z_words(MAX_WORD_LEN + 1)

    def test_apply_z_multi_matches_apply_word(self):
        g = small_grid()
        f = rw.SpaceTimeField.from_function(g, lambda t, r: np.exp(-r * r) * np.cos(t), "even")
        for word, field in rw.apply_z_multi(f, 2):
            ref = apply_word(f, word)
            np.testing.assert_array_equal(field.values, ref.values)


class TestStencilLayer:
    """The last-axis stencils against copies of the stencils they replaced."""

    @settings(max_examples=80, deadline=None)
    @given(layouts(), st.sampled_from(["odd", "even", None]), st.sampled_from([1 / 8, 0.3]))
    def test_equal_to_the_per_axis_stencils(self, layout, parity, h):
        values, out = layout
        rows = np.atleast_2d(values)
        for stencil, want in ((_d1, _diff_r(rows, h, parity)),
                              (_d2, _diff2(rows, h, axis=1, parity=parity))):
            assert np.array_equal(np.atleast_2d(stencil(values, h, parity)), want)
            assert stencil(values, h, parity, out) is out
            assert np.array_equal(np.atleast_2d(out), want)
        if rows.shape[0] >= 4:  # in t: the same call on the transpose
            assert np.array_equal(_d1(values.T, h).T, _diff_t(values, h))
            assert np.array_equal(_d2(values.T, h).T, _diff2(values, h, axis=0))

    @settings(max_examples=80, deadline=None)
    @given(layouts(), st.sampled_from([1 / 8, 0.3]), st.integers(0, 40))
    def test_equal_to_the_solver_reference_rows(self, layout, h, j0):
        values, out = layout
        r = (j0 + np.arange(values.shape[-1])) * h  # a window that starts at j0
        for got, ref in ((_d1(values, h, "odd"), lambda v: _ref_radial_deriv(v, h)),
                         (_d2(values, h, "odd", out), lambda v: _ref_d2r_odd(v, h)),
                         (_over_r(values, r), lambda v: _ref_quotient(v, r))):
            want = np.stack([ref(v) for v in np.atleast_2d(values)])
            assert np.array_equal(np.atleast_2d(got), want)


def _as_layout(base: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(values, out) holding ``base``'s (rows, n) numbers in one memory layout."""
    rows, n = base.shape
    if kind == "C block":  # the word-walk blocks and the estimate fields
        return np.ascontiguousarray(base), np.full((rows, n), np.nan)
    if kind in ("F view", "interleaved"):  # values.T of a C array: the time stencils,
        # and for two rows the fields of an (n, 2) run, as the solver keeps them
        return np.ascontiguousarray(base.T).T, np.full((n, rows), np.nan).T
    wide = np.full((2 * rows, n + 3), np.nan)  # strided slices: every other row, a window
    wide[0::2, 1:n + 1] = base
    return wide[0::2, 1:n + 1], np.full((2 * rows, n + 3), np.nan)[1::2, 2:n + 2]


class TestStencilLayouts:
    """``_d1``, ``_d2`` and ``_over_r`` equal the oracles byte for byte on every
    layout they serve, whichever path (flat run or strided) they take."""

    @pytest.mark.parametrize("kind", ["C block", "F view", "interleaved", "strided"])
    @pytest.mark.parametrize("parity", ["odd", "even", None])
    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 5), st.integers(5, 30), st.sampled_from([1 / 8, 0.3]), st.data())
    def test_equal_to_the_oracles(self, kind, parity, rows, n, h, data):
        rows = 2 if kind == "interleaved" else rows
        base = data.draw(arrays(np.float64, (rows, n),
                                elements=st.floats(-1e3, 1e3, allow_nan=False, width=64)))
        r = np.arange(n) * h
        for stencil, want in ((_d1, _diff_r(base, h, parity)),
                              (_d2, _diff2(base, h, axis=1, parity=parity))):
            values, out = _as_layout(base, kind)
            assert stencil(values, h, parity).tobytes() == want.tobytes()
            assert stencil(values, h, parity, out) is out
            assert np.ascontiguousarray(out).tobytes() == want.tobytes()
            window = np.full((rows, n + 2), np.nan)[:, 1:-1]  # into a strided out
            assert stencil(values, h, parity, window).tobytes() == want.tobytes()
        values, out = _as_layout(base, kind)
        assert _over_r(values, r, out) is out
        assert np.ascontiguousarray(out).tobytes() == _quot(base, r).tobytes()
        if rows >= 4:  # along the other axis, as the time stencils run
            values = _as_layout(base.T, kind)[0]
            assert _d1(values, h).tobytes() == _diff_t(base, h).T.tobytes()
            assert _d2(values, h).tobytes() == _diff2(base, h, axis=0).T.tobytes()

    @pytest.mark.parametrize("parity", ["odd", "even", None])
    @settings(max_examples=10, deadline=None)
    @given(st.integers(5, 30), st.sampled_from([1 / 8, 0.3]), st.data())
    def test_shift_two_on_an_interleaved_run(self, parity, n, h, data):
        # the solver's path: the core and the edges at shift 2 on one (n, 2) run
        base = data.draw(arrays(np.float64, (n, 2),
                                elements=st.floats(-1e3, 1e3, allow_nan=False, width=64)))
        run, r = base.reshape(-1), np.repeat(np.arange(n) * h, 2)
        for core, first, last, want in (
                (grid._centred_d1, grid._d1_first, grid._d1_last, _diff_r(base.T, h, parity)),
                (grid._centred_d2, grid._d2_first, grid._d2_last,
                 _diff2(base.T, h, axis=1, parity=parity))):
            out = np.full(2 * n, np.nan)
            core(run, h, out, 2)
            first(run, h, parity, out, 2)
            last(run, h, out, 2)
            assert out.reshape(n, 2).T.tobytes() == want.tobytes()
        out = np.full(2 * n, np.nan)
        assert grid._over_r(run, r, out, 2) is out
        assert out.reshape(n, 2).T.tobytes() == _quot(base.T, r[0::2]).tobytes()


def _walk(f, N):
    g = f.grid
    return list(_z_walk(f.values, f.parity, g.t[:, None], g.r, g.dt, g.dr, N))


class TestZWalk:
    @staticmethod
    def field(parity):
        g = small_grid(dr=1 / 8, t_max=4.0)
        return rw.SpaceTimeField.from_function(
            g, lambda t, r: (r if parity == "odd" else 1.0 + 0.3 * r)
            * np.exp(-np.square(r - t) / 3) * np.cos(t), parity)

    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    @pytest.mark.parametrize("parity", ["even", "odd", None])
    def test_yields_apply_z_multi_in_order(self, N, parity):
        f = self.field(parity)
        walked = _walk(f, N)
        assert len(walked) == len(z_words(N))
        for (word, field), (length, g, par, gt, gr) in zip(apply_z_multi(f, N), walked):
            assert length == len(word) and par == field.parity, word
            assert np.array_equal(g, field.values), word
            assert np.array_equal(gt, derivative(field, DT).values), word
            assert np.array_equal(gr, derivative(field, DR).values), word

    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(["even", "odd"]), st.integers(1, 3), st.integers(0, 2 ** 32 - 1))
    def test_odd_words_vanish_on_the_axis(self, parity, N, seed):
        g = small_grid(dr=1 / 4, t_max=2.0)
        values = np.random.default_rng(seed).uniform(-1.0, 1.0, g.shape())
        if parity == "odd":
            values[:, 0] = 0.0
        f = rw.SpaceTimeField(g, values, parity)
        odd = [g for _, g, par, _, _ in _walk(f, N) if par == "odd"]
        assert odd
        for g in odd:
            assert np.all(g[:, 0] == 0.0)


_ALL_KEYS = tuple((n, p) for n in range(MAX_WORD_LEN + 1) for p in WORD_PREFIXES)


def _random_field(seed, parity):
    g = small_grid(dr=0.25, cfl=0.5, r_max=10.0, t_max=6.0)
    values = np.random.default_rng(seed).uniform(-1.0, 1.0, g.shape())
    if parity == "odd":
        values[:, 0] = 0.0
    return rw.SpaceTimeField(g, values, parity)


def _short_windows(shape):
    """Windows of n x n cells, n from 1 to 5, each side at either grid edge or
    in the interior."""
    def spans(n, size):
        return slice(0, n), slice(size - n, size), slice(size // 2, size // 2 + n)

    return [w for n in range(1, 6) for w in itertools.product(*(spans(n, s) for s in shape))]


class TestWordSums:
    """``_word_sums`` against the word-by-word oracle, on windows of every kind."""

    # which window edges lie on the grid edges: (first row, last row, axis, outer column)
    EDGES = {"full": (True, True, True, True), "interior": (False, False, False, False),
             "first row": (True, False, False, False), "last row": (False, True, False, False),
             "axis": (False, False, True, False), "outer column": (False, False, False, True)}

    @settings(max_examples=6, deadline=None)
    @given(st.data())
    @pytest.mark.parametrize("parity", ["even", "odd", None])
    @pytest.mark.parametrize("edges", list(EDGES))
    def test_equal_to_the_oracle_inside_the_halo(self, edges, parity, data):
        # every cell of the window, which the walk's halo surrounds; the field
        # vanishes from column front + slope * n of row n on, so the walk may
        # stop at that light cone (``grid._cut``) or not reach it
        f = _random_field(data.draw(st.integers(0, 2 ** 32 - 1)), parity)
        front, slope = data.draw(st.integers(0, f.grid.nr)), data.draw(st.sampled_from([0, 1]))
        f.values[np.arange(f.grid.nr) >= front + slope * np.arange(f.grid.nt)[:, None]] = 0.0
        at = self.EDGES[edges]
        window = []
        for size, at_lo, at_hi in ((f.grid.nt, *at[:2]), (f.grid.nr, *at[2:])):
            lo = 0 if at_lo else data.draw(st.integers(1, size // 3))
            hi = size if at_hi else data.draw(st.integers(2 * size // 3, size - 1))
            window.append(slice(lo, hi))
        window = tuple(window)
        sums = _word_sums(f, _ALL_KEYS, window)
        ref = word_sums_ref(f, _ALL_KEYS)
        for key in _ALL_KEYS:
            assert np.array_equal(sums[key], ref[key][window]), key

    def test_halo_depth_is_needed(self, monkeypatch):
        # with a depth helper one cell short, an interior window differs
        # somewhere; quot's 1/r extrapolation adds a cell only to an empty word,
        # since it touches just the first column, which a stencil has already
        # spoiled
        f = _random_field(7, "even")
        window = (slice(8, 40), slice(8, 30))  # the short walk stays off the grid edges
        ref = word_sums_ref(f, _ALL_KEYS)
        depth = grid._depth
        monkeypatch.setattr(grid, "_depth", lambda keys: depth(keys) - 1)
        for n, prefix in _ALL_KEYS:
            if depth(((n, prefix),)) > 0 and not (prefix == "quot" and n > 0):
                sums = _word_sums(f, ((n, prefix),), window)
                assert not np.array_equal(sums[n, prefix], ref[n, prefix][window]), (n, prefix)

    def test_short_window_at_a_grid_edge(self):
        # the one-sided stencils at a grid edge read up to three cells inward,
        # so the walk reaches beyond the window's opposite edge: a window of
        # one cell on the last row is exact too.  The keys of one depth share
        # a pass, so no key walks a deeper key's halo.
        by_depth = {}
        for key in _ALL_KEYS:
            by_depth.setdefault(grid._depth((key,)), []).append(key)
        for parity in ("even", "odd", None):
            f = _random_field(11, parity)
            ref = word_sums_ref(f, _ALL_KEYS)
            for window in _short_windows(f.grid.shape()):
                for keys in by_depth.values():
                    sums = _word_sums(f, keys, window)
                    for key in keys:
                        assert np.array_equal(sums[key], ref[key][window]), (parity, window, key)

    @pytest.mark.parametrize("window", [(slice(0, 0), slice(0, 0)),
                                        (slice(5, 5), slice(None)),
                                        (slice(None), slice(9, 9))])
    def test_empty_window_is_zeros(self, window):
        f = _random_field(3, "odd")
        sums = _word_sums(f, _ALL_KEYS, window)
        assert all(total.shape == f.values[window].shape and not total.any()
                   for total in sums.values())

    @pytest.mark.parametrize("keys", [((0, None),), ((2, None), (2, DR)),
                                      ((0, None), (2, None), (2, DR)), ((1, "quot"), (0, DT)),
                                      ((1, DT), (1, "box")), ((2, "good"), (1, None))],
                             ids=["hardy", "ks", "ks-all", "quot", "dt-box", "good"])
    def test_unread_derivatives_are_not_taken(self, monkeypatch, keys):
        # a word of the last length takes only the derivatives a key of that
        # length reads (none for hardy's (0, None), dr alone for the KS checks'
        # (2, None), (2, dr)); the sums equal the oracle in repr
        f = _random_field(13, "odd")
        n_max = max(n for n, _ in keys)
        reads = {d for n, p in keys if n == n_max for d in grid._READS.get(p, (DT, DR))}
        calls, d1 = [], grid._d1
        monkeypatch.setattr(grid, "_d1", lambda *a, **k: calls.append(1) or d1(*a, **k))
        ref = word_sums_ref(f, keys)
        for window in (np.s_[:, :], np.s_[6:14, 3:20]):
            calls.clear()
            sums = _word_sums(f, keys, window)
            for key in keys:
                assert repr(sums[key].tolist()) == repr(ref[key][window].tolist()), key
            words = z_words(n_max)  # "box" differences with _d2, not _d1
            inner = sum(len(w) < n_max for w in words)
            assert len(calls) == 2 * inner + len(reads) * (len(words) - inner)

    @pytest.mark.parametrize("window", [np.s_[:, :], np.s_[0:9, :], np.s_[9:20, :],
                                        np.s_[4:15, 6:30], np.s_[20:25, 30:41]],
                             ids=["grid", "first rows", "rows", "interior", "corner"])
    def test_over_r_equals_the_whole_grid_quotient(self, window):
        # the sums of W / r from each walk's own quotient equal those of the
        # whole-grid quotient_by_r(W) in bytes, with or without the axis
        g = small_grid(dr=0.25, cfl=0.5, r_max=10.0, t_max=6.0)
        W = rw.SpaceTimeField.from_function(
            g, lambda t, r: r * np.exp(-np.square(r - t - 1)) * np.cos(3 * t + r), "odd")
        u = rw.quotient_by_r(W)
        got = _word_sums(W, _ALL_KEYS, window, over_r=True)
        want = _word_sums(u, _ALL_KEYS, window)
        for key in _ALL_KEYS:
            assert got[key].tobytes() == want[key].tobytes(), key

    def test_unknown_prefix_rejected(self):
        with pytest.raises(ValueError, match="unknown word-sum prefix"):
            _word_sums(_random_field(3, None), ((1, "dtt"),), np.s_[:, :])


class TestConjugate:
    def test_box_conjugate_oracle(self):
        # W = t^2 r + r^3 gives (dt^2 - dr^2) W = 2r - 6r = -4r, and every
        # stencil involved is exact on cubics [DERIVED]
        g = small_grid()
        W = rw.SpaceTimeField.from_function(g, lambda t, r: t * t * r + r ** 3, "odd")
        box = rw.box_conjugate(W)
        _, r = g.meshes()
        np.testing.assert_allclose(box.values, np.broadcast_to(-4 * r, g.shape()),
                                   atol=1e-9)

    def test_box_conjugate_requires_odd(self):
        g = small_grid()
        f = rw.SpaceTimeField.from_function(g, lambda t, r: r * r + 0 * t, "even")
        with pytest.raises(rw.ParityError):
            rw.box_conjugate(f)

    def test_quotient_recovers_scalar(self):
        g = small_grid()
        u = rw.SpaceTimeField.from_function(g, lambda t, r: np.cos(r) + 0 * t, "even")
        W = rw.SpaceTimeField(g, g.r[None, :] * u.values, "odd")
        back = rw.conjugate_to_scalar(W)
        assert back.parity == "even"
        # exact off the axis; the axis value is a cubic extrapolation, O(dr^3)
        np.testing.assert_allclose(back.values[:, 1:], u.values[:, 1:], atol=1e-10)
        np.testing.assert_allclose(back.values[:, 0], u.values[:, 0],
                                   atol=4 * g.dr ** 3)

    def test_dalembertian_on_static_profile(self):
        # u = r^2: Box u = -u'' - (2/r) u' = -2 - 4 = -6 [DERIVED]
        g = small_grid()
        u = rw.SpaceTimeField.from_function(g, lambda t, r: r * r + 0 * t, "even")
        box = rw.box_scalar(u)
        np.testing.assert_allclose(box.values, -6.0, atol=1e-8)


def test_null_form_equals_raw_form():
    rng = np.random.default_rng(7)
    a, b, c, d = rng.standard_normal((4, 6, 6))
    np.testing.assert_allclose(rw.null_form(a, b, c, d), rw.raw_form(a, b, c, d),
                               atol=1e-12)
