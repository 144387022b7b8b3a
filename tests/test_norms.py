import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import radialwave as rw
from radialwave import estimates, norms, regions, registry
from radialwave import grid as grid_module
from radialwave.grid import _depth, _word_sums
from radialwave.norms import WeightSpec, le_norm, m_functional, mixed_norm, spatial_l2
from radialwave.regions import _flat, _intervals, dyadic_scales, enumerate_regions
from region_oracles import realize_mask, region_supsup
from stencil_oracles import word_sums_ref


def grid(dr=1 / 64, t_max=2.0, r_max=8.0, cfl=1.0):
    return rw.GridSpec(dr=dr, cfl=cfl, r_max=r_max, t_max=t_max)


class TestSpatialL2:
    def test_gaussian_against_quadrature_oracle(self):
        # independent oracle: adaptive quadrature of the same integrand [DERIVED]
        g = grid()
        f = rw.SpaceTimeField.from_function(g, lambda t, r: np.exp(-r * r) + 0 * t)
        got = spatial_l2(f, WeightSpec())[0]
        ref = np.sqrt(4 * np.pi * quad(
            lambda r: np.exp(-2 * r * r) * r * r, 0, 8)[0])
        np.testing.assert_allclose(got, ref, rtol=1e-6)

    def test_inverse_r_weight_folded_into_measure(self):
        g = grid()
        f = rw.SpaceTimeField.from_function(g, lambda t, r: np.exp(-r) + 0 * t)
        got = spatial_l2(f, WeightSpec(power_inv_r=1.0))[0]
        ref = np.sqrt(4 * np.pi * quad(lambda r: np.exp(-2 * r), 0, 8)[0])
        # trapezoid rule against the smooth reference: O(dr^2) quadrature error
        np.testing.assert_allclose(got, ref, rtol=1e-4)

    def test_bracket_weight(self):
        g = grid()
        f = rw.SpaceTimeField.from_function(g, lambda t, r: np.exp(-r * r) + 0 * t)
        a = 0.35
        got = spatial_l2(f, WeightSpec(power_r=a))[0]
        ref = np.sqrt(4 * np.pi * quad(
            lambda r: (1 + r * r) ** a * np.exp(-2 * r * r) * r * r, 0, 8)[0])
        np.testing.assert_allclose(got, ref, rtol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.integers(0, 64), st.integers(1, 65),
           st.sampled_from([0.0, 0.35, -0.6]), st.sampled_from([0.0, 0.5, 1.0]))
    def test_rows_do_not_depend_on_the_other_rows(self, seed, start, length, a, b):
        # each row is reduced on its own: a row slice gives those rows of the
        # full-grid call bit for bit, whatever the slice
        g = grid(dr=1 / 8, t_max=8.0, r_max=12.0)
        full = rw.SpaceTimeField(g, np.random.default_rng(seed).normal(size=g.shape()))
        stop = min(start + length, g.nt)
        part = rw.GridSpec(dr=g.dr, cfl=g.cfl, r_max=g.r_max, t_max=(stop - start - 1) * g.dt)
        rows = rw.SpaceTimeField(part, full.values[start:stop])
        want = spatial_l2(full, WeightSpec(a, b))[start:stop]
        assert np.array_equal(spatial_l2(rows, WeightSpec(a, b)), want)

    def test_invalid_inverse_power(self):
        with pytest.raises(rw.NormSpecError):
            WeightSpec(power_inv_r=0.25)


class TestMixedNorms:
    def test_linf_l2_picks_worst_time(self):
        g = grid(t_max=4.0)
        f = rw.SpaceTimeField.from_function(
            g, lambda t, r: (1 + t) * np.exp(-r * r))
        per_t = spatial_l2(f, WeightSpec())
        got = mixed_norm(f, "Linf")
        assert got == per_t[-1]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1 / 4, 1 / 8]),
           st.sampled_from([0.5, 1.0]), st.sampled_from([2.0, 5.0, 8.0]),
           st.sampled_from([4.0, 5.5]), st.sampled_from([0.0, 0.35, -0.6]),
           st.sampled_from([0.0, 0.5, 1.0]))
    def test_whole_grid_is_the_region_of_full_rows(self, seed, dr, cfl, t_max, margin, a, b):
        # one reduction: the whole-grid norm sums each row at the row starts of
        # the flat array, the region norm gathers every point; both agree bit for bit
        g = grid(dr=dr, cfl=cfl, t_max=t_max, r_max=t_max + margin)
        f = rw.SpaceTimeField(g, np.random.default_rng(seed).normal(size=g.shape()))
        w = WeightSpec(a, b)
        assert mixed_norm(f, "L2", w) == rw.region_l2l2(f, w, np.ones(g.shape()))
        # sqrt is monotone and correctly rounded, so the sup of the row norms
        # is the root of the largest row sum
        assert mixed_norm(f, "Linf", w) == np.max(spatial_l2(f, w))

    @pytest.mark.parametrize("outer", ["Linf2", "l2", None])
    def test_outer_must_be_l2_or_linf(self, outer):
        f = rw.SpaceTimeField.from_function(grid(t_max=1.0), lambda t, r: np.exp(-r) + 0 * t)
        with pytest.raises(rw.NormSpecError):
            mixed_norm(f, outer)


class TestLocalEnergy:
    def test_le_norm_static_field(self):
        # for f = 1 on r <= 1, A_1 carries (4pi/3)(sqrt(2)^3 ... ) of mass;
        # simply cross-check against a direct masked quadrature [DERIVED]
        g = grid(t_max=2.0)
        f = rw.SpaceTimeField.from_function(g, lambda t, r: np.exp(-r * r) + 0 * t)
        got = le_norm(f)
        best = 0.0
        for R in (1, 2, 4, 8):
            br = np.sqrt(1 + g.r ** 2)
            mask = np.broadcast_to((br >= R) & (br <= 2 * R), g.shape()).astype(float)
            best = max(best, R ** -0.5 * rw.region_l2l2(f, WeightSpec(), mask))
        np.testing.assert_allclose(got, best, rtol=1e-12)

    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0, np.nan])
    def test_region_mask_must_be_sharp(self, value):
        g = grid(t_max=2.0)
        f = rw.SpaceTimeField.from_function(g, lambda t, r: np.exp(-r * r) + 0 * t)
        mask = np.zeros(g.shape())
        mask[1:4, 2:9] = 1.0
        mask[2, 5] = value
        with pytest.raises(ValueError, match="sharp"):
            rw.region_l2l2(f, WeightSpec(), mask)

    def test_annulus_rows_are_built_once_per_grid(self, monkeypatch):
        g = grid(t_max=2.5)
        f = rw.SpaceTimeField.from_function(g, lambda t, r: np.exp(-r * r) + 0 * t)
        first = le_norm(f)

        def no_bisection(*args):
            raise AssertionError("le_norm re-ran the interval bisection")

        monkeypatch.setattr(regions, "_runs", no_bisection)
        assert le_norm(f) == first


class TestFunctionals:
    @staticmethod
    def fields(dr=1 / 16):
        g = rw.GridSpec(dr=dr, cfl=1.0, r_max=20, t_max=16)
        u = rw.SpaceTimeField.from_function(
            g, lambda t, r: np.exp(-np.square(r - t / 2) / 4) / (1 + t), "even")
        v = rw.SpaceTimeField.from_function(
            g, lambda t, r: np.exp(-np.square(r) / 4) / (1 + t), "even")
        return u, v

    def test_homogeneity(self):
        u, v = self.fields()
        base = m_functional(u, v, 0.75, 0.2, 2)
        c = 3.7
        scaled = m_functional(rw.SpaceTimeField(u.grid, c * u.values, "even"),
                              rw.SpaceTimeField(v.grid, c * v.values, "even"),
                              0.75, 0.2, 2)
        np.testing.assert_allclose(scaled.total, c * base.total, rtol=1e-10)
        for k in base.slots:
            np.testing.assert_allclose(scaled.slots[k], c * base.slots[k],
                                       rtol=1e-9, atol=1e-300)

    def test_slot_names_and_total(self):
        u, v = self.fields()
        b = m_functional(u, v, 0.75, 0.2, 2)
        expected = {"u_good_l2l2", "u_invr_l2l2", "v_good_l2l2", "v_invr_l2l2",
                    "u_le1", "u_d_linfl2", "v_d_weighted_l2l2",
                    "v_d_weighted_linfl2", "u_R_sup", "v_R_l2", "u_U_sup",
                    "v_U_l2", "v_R_l2_alt"}
        assert set(b.slots) == expected
        # the alternative region weighting is reported but not summed
        core = sum(val for k, val in b.slots.items() if k != "v_R_l2_alt")
        np.testing.assert_allclose(b.total, core, rtol=1e-12)

    def test_contraction_functional_drops_sup_slot(self):
        u, v = self.fields()
        b = rw.a_functional(u, v, 0.75, 0.2, 2)
        assert "v_d_weighted_linfl2" not in b.slots
        assert "v_R_l2_alt" not in b.slots

    def test_parameter_validation(self):
        u, v = self.fields()
        with pytest.raises(ValueError):
            m_functional(u, v, 1.5, 0.2, 2)
        with pytest.raises(ValueError):
            m_functional(u, v, 0.75, 0.3, 2)  # delta >= 1 - p
        with pytest.raises(ValueError):
            m_functional(u, v, 0.75, 0.2, 4)

    def test_grid_mismatch(self):
        u, _ = self.fields()
        _, v = self.fields(dr=1 / 8)
        with pytest.raises(ValueError):
            m_functional(u, v, 0.75, 0.2, 1)


# the M and A functionals' Z-word sums
_MA_KEYS = {N: ((N, "good"), (N, "dt"), (N, "dr"), (N // 2, "d"), (N, "quot"))
            for N in range(4)}


class TestFunctionalFastPaths:
    """The shared-derivative sums and the region index against the dense paths."""

    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    @pytest.mark.parametrize("parity", ["even", "odd", None])
    def test_aggregates_match_word_by_word_sums(self, N, parity):
        g = rw.GridSpec(dr=1 / 8, cfl=0.5, r_max=12, t_max=8)
        f = rw.SpaceTimeField.from_function(
            g, lambda t, r: (r if parity == "odd" else 1.0 + 0.3 * r)
            * np.exp(-np.square(r - t) / 3) * np.cos(t), parity)
        sums = _word_sums(f, _MA_KEYS[N], np.s_[:, :])
        for key, ref in word_sums_ref(f, _MA_KEYS[N]).items():
            assert np.array_equal(sums[key], ref), key

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from([0.25, 0.125]), st.sampled_from([0.5, 1.0]),
           st.sampled_from([16.0, 32.0]))
    def test_index_positions_are_the_sharp_masks(self, dr, cfl, t_max):
        g = rw.GridSpec(dr=dr, cfl=cfl, r_max=t_max + 4, t_max=t_max)
        rows = norms._region_rows(g)
        # every plain region once, the core twice (an R row and a U row)
        assert len(rows) == sum(len(enumerate_regions(tau, g)) + 1 for tau in
                                dyadic_scales(t_max / 2, start=4))
        for kind, tau, s, row_region in rows:
            pos = _flat(*_intervals(row_region, g), g.nr)
            region = (rw.DyadicRegion(tau, "core") if 2 * s == tau
                      else rw.DyadicRegion(tau, kind, s))
            rebuilt = np.zeros(g.nt * g.nr)
            rebuilt[pos] = 1.0
            np.testing.assert_array_equal(rebuilt.reshape(g.shape()),
                                          realize_mask(region, g).weights)

    def test_le_norm_equals_dense_annulus_masks(self):
        u, _ = TestFunctionals.fields(dr=1 / 8)
        best = 0.0
        for R in dyadic_scales(np.sqrt(1 + u.grid.r_max ** 2)):
            mask = realize_mask(rw.DyadicRegion(None, "annulus", R), u.grid).weights
            best = max(best, R ** -0.5 * rw.region_l2l2(u, WeightSpec(), mask))
        assert le_norm(u) == best

    @pytest.mark.parametrize("dr", [1 / 8, 4.0])  # at dr 4, A_2 holds no grid point
    def test_le_rows_equal_the_gathered_annulus_intervals(self, dr):
        # each annulus summed on its run of columns against the gather of its
        # per-row intervals, on the whole grid and on a block of rows
        g = grid(dr=dr, t_max=64.0, r_max=100.0)
        f = rw.SpaceTimeField.from_function(g, lambda t, r: np.sin(t - r) * np.exp(-r / 16))
        for window in (np.s_[:, :], np.s_[5:13, :]):
            values = f.values[window]
            got = norms._le_rows(values, g, norms._annuli(g), window)
            for R, (rows, sums) in zip(dyadic_scales(np.sqrt(1 + g.r_max ** 2)), got, strict=True):
                pos = norms._window_pos(_intervals(rw.DyadicRegion(None, "annulus", R), g), g,
                                        window)
                want = norms._row_sums(values, g, WeightSpec(), pos, window)
                assert np.array_equal(rows, want[0]) and np.array_equal(sums, want[1])
        assert [a.stop - a.start for a in norms._annuli(g)].count(0) == (dr == 4.0)

    def test_le1_norm_is_the_u_le1_slot(self):
        # both read the (0, dt), (0, dr) and (0, quot) sums; the functional in
        # two blocks of rows
        u, v = TestFunctionals.fields(dr=1 / 8)
        assert len(norms._blocks(u.grid.nt)) == 2
        assert norms.le1_norm(u) == m_functional(u, v, 0.75, 0.2, 0).slots["u_le1"]

    @pytest.mark.parametrize("functional", [m_functional, rw.a_functional])
    def test_slots_equal_dense_mask_recomputation(self, functional):
        u, v = TestFunctionals.fields(dr=1 / 8)
        p, delta, N = 0.75, 0.2, 2
        b = functional(u, v, p, delta, N)
        du, dv = (_word_sums(f, ((N // 2, "d"),), np.s_[:, :])[N // 2, "d"] for f in (u, v))
        sup_u = {"R": 0.0, "U": 0.0}
        sq_tau = sq_alt = sq_u = 0.0
        for kind in ("R", "U"):
            for tau in dyadic_scales(u.grid.t_max / 2, start=4):
                for reg in enumerate_regions(tau, u.grid):
                    if reg.kind not in (kind, "core"):
                        continue
                    s = tau // 2 if reg.kind == "core" else reg.scale
                    mask = realize_mask(reg, u.grid).weights
                    lu, lv = region_supsup(du, mask), region_supsup(dv, mask)
                    assert b.per_region[f"{kind} tau={tau} s={s} u"] == lu
                    assert b.per_region[f"{kind} tau={tau} s={s} v"] == lv
                    if kind == "R":
                        sup_u[kind] = max(sup_u[kind], tau ** 0.5 * s * lu)
                        sq_tau += (tau ** 0.5 * s ** (1 - delta / 2) * lv) ** 2
                        sq_alt += (s ** ((3 - delta) / 2) * lv) ** 2
                    else:
                        sup_u[kind] = max(sup_u[kind], tau * s ** 0.5 * lu)
                        sq_u += (tau ** (1 - delta / 2) * s ** 0.5 * lv) ** 2
        assert len(b.per_region) == 2 * len(norms._region_rows(u.grid))
        assert b.slots["u_R_sup"] == sup_u["R"]
        assert b.slots["u_U_sup"] == sup_u["U"]
        assert b.slots["v_U_l2"] == float(np.sqrt(sq_u))
        if functional is m_functional:
            assert b.slots["v_R_l2"] == float(np.sqrt(sq_tau))
            assert b.slots["v_R_l2_alt"] == float(np.sqrt(sq_alt))
            assert b.total == float(sum(x for k, x in b.slots.items() if k != "v_R_l2_alt"))
        else:
            assert b.slots["v_R_l2"] == float(np.sqrt(sq_alt))
            assert b.total == float(sum(b.slots.values()))



class TestTimeBlocks:
    """The M/A functionals' blocks of rows against one block of the whole grid."""

    @staticmethod
    def fields(nt):
        t_max = (nt - 1) / 4
        g = rw.GridSpec(dr=0.25, cfl=1.0, r_max=t_max + 4, t_max=t_max)
        rng = np.random.default_rng(nt)
        u, v = rng.uniform(-1.0, 1.0, (2, *g.shape()))
        u[:, 0] = 0.0
        return rw.SpaceTimeField(g, u, "odd"), rw.SpaceTimeField(g, v)

    @pytest.mark.parametrize("nt", [1, 5, 63, 64, 127, 128, 129, 513, 1000])
    def test_blocks_cover_the_rows_with_none_short(self, nt):
        blocks = norms._blocks(nt)
        assert blocks[0][0] == 0 and blocks[-1][1] == nt
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        sizes = [hi - lo for lo, hi in blocks]
        assert max(sizes) - min(sizes) <= 1
        assert len(blocks) == 1 or min(sizes) >= norms._BLOCK_ROWS

    # nt mod _BLOCK_ROWS = 0, 1 and neither, two blocks each
    @pytest.mark.parametrize("extra", [0, 1, 35])
    @pytest.mark.parametrize("N", [2, 3])
    def test_blocks_equal_one_block(self, monkeypatch, extra, N):
        u, v = self.fields(2 * norms._BLOCK_ROWS + extra)
        assert len(norms._blocks(u.grid.nt)) == 2
        functionals = (m_functional, rw.a_functional)
        blocked = [f(u, v, 0.75, 0.2, N) for f in functionals]
        monkeypatch.setattr(norms, "_blocks", lambda nt: [(0, nt)])
        for b, whole in zip(blocked, (f(u, v, 0.75, 0.2, N) for f in functionals)):
            assert b.total == whole.total
            assert b.slots == whole.slots
            assert b.per_region == whole.per_region

    def test_halo_of_three_rows_is_not_exact(self, monkeypatch):
        # at N = 3 a sum chains four stencils in t (Z^3, then good, dt or dr);
        # a depth helper one cell short walks three halo rows around the middle
        # block, the only one whose walk meets no grid edge
        u, v = self.fields(3 * norms._BLOCK_ROWS + 1)
        exact = m_functional(u, v, 0.75, 0.2, 3)
        monkeypatch.setattr("radialwave.grid._depth", lambda keys: _depth(keys) - 1)
        assert m_functional(u, v, 0.75, 0.2, 3).slots != exact.slots

    @pytest.mark.parametrize("solve", ["characteristic", "rk4"])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_conjugate_pass_equals_the_quotients(self, solve, N):
        # the Picard driver's pass on W_u, W_v, divided by r per block, equals
        # the functionals of the whole-grid quotients u(), v() in repr; an RK4
        # history's precursor reaches r_max, so its walks are full width
        g = rw.GridSpec(dr=1 / 8, cfl=1.0, r_max=28.0, t_max=24.0)
        data = rw.calibrate(rw.InitialData(), g, 2, 0.02)
        if solve == "rk4":
            h = rw.solve(data, rw.SolveConfig(grid=g))
        else:
            z = rw.SpaceTimeField.zeros(g)
            h = rw.solve_linear_forced(data, z, z)
        assert len(norms._blocks(g.nt)) == 3
        got = [*norms.m_and_a_functionals(h.W_u, h.W_v, 0.75, 0.2, N, over_r=True),
               m_functional(h.W_u, h.W_v, 0.75, 0.2, N, over_r=True),
               rw.a_functional(h.W_u, h.W_v, 0.75, 0.2, N, over_r=True)]
        want = [*norms.m_and_a_functionals(h.u(), h.v(), 0.75, 0.2, N)] * 2
        for b, fresh in zip(got, want):
            assert repr((b.total, b.slots, b.per_region)) == repr(
                (fresh.total, fresh.slots, fresh.per_region))

    def test_shared_pass_equals_fresh_functionals(self):
        u, v = TestFunctionals.fields(dr=1 / 8)
        shared = norms.m_and_a_functionals(u, v, 0.75, 0.2, 2)
        for b, fresh in zip(shared, (m_functional(u, v, 0.75, 0.2, 2),
                                     rw.a_functional(u, v, 0.75, 0.2, 2))):
            assert b.total == fresh.total
            assert list(b.slots.items()) == list(fresh.slots.items())
            assert b.per_region == fresh.per_region

    def test_peak_allocation_is_a_few_grid_arrays(self):
        # 513 rows, 8 blocks; the whole-grid pass peaked at about 23 arrays of
        # the grid's size, a block's pass holds about 20 of its own rows'
        g = rw.GridSpec(dr=1.0, cfl=1.0, r_max=516.0, t_max=512.0)
        rng = np.random.default_rng(0)
        u = rw.SpaceTimeField(g, rng.uniform(-1.0, 1.0, g.shape()), "even")
        v = rw.SpaceTimeField(g, rng.uniform(-1.0, 1.0, g.shape()))
        tracemalloc.start()
        try:
            m_functional(u, v, 0.75, 0.2, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(norms._blocks(g.nt)) == 8
        assert peak < 4 * u.values.nbytes

    def test_peak_allocation_with_a_light_cone_field(self):
        # support r <= t + 2: the padded sums add no array of the grid's size
        g = rw.GridSpec(dr=1.0, cfl=1.0, r_max=516.0, t_max=512.0)
        t, r = g.meshes()
        rng = np.random.default_rng(0)
        u, v = rng.uniform(-1.0, 1.0, (2, *g.shape())) * (r <= t + 2)
        u[:, 0] = 0.0
        u, v = rw.SpaceTimeField(g, u, "odd"), rw.SpaceTimeField(g, v)
        tracemalloc.start()
        try:
            m_functional(u, v, 0.75, 0.2, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(norms._blocks(g.nt)) == 8
        assert peak < 4 * u.values.nbytes

    def test_le1_norm_peak_allocation(self):
        # the whole-grid sums and the field built from them peaked at about
        # 6.2 arrays of the grid's size; a block of rows holds its own rows'
        g = rw.GridSpec(dr=1 / 32, cfl=1.0, r_max=22.0, t_max=18.0)
        u = registry.traveling_sym(g)
        tracemalloc.start()
        try:
            norms.le1_norm(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(norms._blocks(g.nt)) == 9
        assert peak < 2 * u.values.nbytes


def _no_cut(f, keys, spans):
    """``grid._cut`` switched off: every word sum walks its window's full width."""
    return spans[1][1]


class TestLightCone:
    """The M/A pass with the word sums cut at the light cone (``grid._cut``)
    against the full-width walk, byte for byte."""

    GRID = rw.GridSpec(dr=0.25, cfl=1.0, r_max=44.5, t_max=40.5)  # 163 rows, 2 blocks

    @staticmethod
    def pair(g, support):
        """A random odd u and v, zero where ``support(t, r)`` is false."""
        t, r = g.meshes()
        rng = np.random.default_rng(7)
        u, v = rng.uniform(-1.0, 1.0, (2, *g.shape())) * support(t, r)
        u[:, 0] = 0.0
        return rw.SpaceTimeField(g, u, "odd"), rw.SpaceTimeField(g, v)

    @staticmethod
    def both(u, v, N=3):
        return [f(u, v, 0.75, 0.2, N) for f in (m_functional, rw.a_functional)]

    @staticmethod
    def equal(a, b):
        return all(x.total == y.total and x.slots == y.slots and x.per_region == y.per_region
                   for x, y in zip(a, b))

    def full_width(self, monkeypatch, u, v, N=3):
        with monkeypatch.context() as m:
            m.setattr(grid_module, "_cut", _no_cut)
            return self.both(u, v, N)

    @pytest.mark.parametrize("support", [
        lambda t, r: r <= t + 2,  # the light cone: ends mid-grid in every row
        lambda t, r: r <= 2 + 0 * t,  # the data's support, far from r_max
        lambda t, r: r <= 4 * t + 2,  # reaches r_max after a quarter of the rows
        lambda t, r: r >= 0,  # every column
        lambda t, r: r < 0,  # all zero
        lambda t, r: (r <= t + 2) & (t >= 20),  # nothing in the first rows
    ], ids=["cone", "data", "reaches-r-max", "full", "zero", "late"])
    @pytest.mark.parametrize("N", [2, 3])
    def test_equals_the_full_width_walk(self, monkeypatch, support, N):
        u, v = self.pair(self.GRID, support)
        assert len(norms._blocks(self.GRID.nt)) == 2
        assert self.equal(self.both(u, v, N), self.full_width(monkeypatch, u, v, N))

    @pytest.mark.parametrize("gap", range(9))
    def test_last_column_near_r_max(self, monkeypatch, gap):
        # the one-sided stencils at r_max read three columns inward, so a
        # field that ends within d + 3 columns of the edge is walked whole
        g = self.GRID
        u, v = self.pair(g, lambda t, r: r <= g.r_max - gap * g.dr)
        assert self.equal(self.both(u, v), self.full_width(monkeypatch, u, v))

    @pytest.mark.parametrize("row", [60, 76, 80, 84, 87, 88, 100])
    def test_one_cell_near_a_block_edge(self, monkeypatch, row):
        # the blocks are rows [0, 81) and [81, 163); a cell up to d = 4 rows
        # outside a block enters its sums
        assert norms._blocks(self.GRID.nt) == [(0, 81), (81, 163)]
        u, v = self.pair(self.GRID, lambda t, r: (t == row * 0.25) & (r == 20.0))
        assert self.equal(self.both(u, v), self.full_width(monkeypatch, u, v))

    def test_rk4_history(self, monkeypatch):
        # the RK4 precursor is nonzero past the front, so the cut reads the field
        g = rw.GridSpec(dr=1 / 8, cfl=0.5, r_max=12.0, t_max=8.0)
        h = rw.solve(rw.calibrate(rw.InitialData(), g, 2, 0.02), rw.SolveConfig(grid=g))
        for N in (1, 2):
            assert self.equal(self.both(h.u(), h.v(), N),
                              self.full_width(monkeypatch, h.u(), h.v(), N))

    def test_one_column_short_changes_a_slot(self, monkeypatch):
        u, v = self.pair(self.GRID, lambda t, r: r <= t + 2)
        exact = self.both(u, v)
        cut = grid_module._cut
        monkeypatch.setattr(grid_module, "_cut", lambda f, keys, spans: cut(f, keys, spans) - 1)
        assert [b.slots for b in self.both(u, v)] != [b.slots for b in exact]

    def test_region_sups_equal_the_dense_oracle(self):
        # every R/U/core region of the functionals at once, on blocks of rows
        g = self.GRID
        values = np.random.default_rng(3).uniform(-1.0, 1.0, g.shape())
        regions = [region for *_, region in norms._region_rows(g)]
        intervals = norms._region_intervals(regions, g)
        masks = [realize_mask(region, g).weights for region in regions]
        read = []
        for lo, hi in [(0, 81), (81, 163), (0, 1), (40, 41), (162, 163), (0, 163), (40, 40)]:
            window = np.s_[lo:hi, :]
            got = norms._region_sups(values[window], intervals, len(regions), g, window)
            want = [region_supsup(values[window], mask[window]) if hi > lo else 0.0
                    for mask in masks]
            assert got.tolist() == want
            read += want
        assert 0.0 in read and max(read) > 0.9  # a region with no point in a block reads 0.0

    @pytest.mark.parametrize("kind, scale", [("R", 1), ("R", 2), ("U", 1), ("U", 2)])
    def test_region_sups_on_ks_windows(self, kind, scale):
        # one plain region on the windows of a Klainerman-Sobolev check, which
        # are boxes of its enlarged region's rows, not full rows
        g = rw.GridSpec(dr=1 / 16, cfl=1.0, r_max=22.0, t_max=18.0)
        values = np.random.default_rng(5).uniform(-1.0, 1.0, g.shape())
        region = rw.DyadicRegion(8, kind, scale)
        plain, mask = norms._region_intervals([region], g), realize_mask(region, g).weights
        keys = ((0, None), (2, None), (2, "dr"))
        windows = estimates._ks_windows(_intervals(region.enlarged(1), g), keys, g.shape())
        sups = [norms._region_sups(values[w], plain, 1, g, w)[0] for w in windows]
        assert sups == [region_supsup(values[w], mask[w]) for w in windows]
        assert max(sups) == region_supsup(values, mask)
