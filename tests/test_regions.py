import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import radialwave as rw
import region_oracles as oracle
from estimate_oracles import interval_l2, region_l2l2
from radialwave import regions
from radialwave.regions import DyadicRegion, bracket, dyadic_scales, sigma_U, sigma_U_prime
from region_oracles import enumerate_regions, realize_mask, slab_mask


def grid(dr=0.125, t_max=16.0):
    return rw.GridSpec(dr=dr, cfl=1.0, r_max=t_max + 4, t_max=t_max)


class TestCutoffs:
    @given(st.floats(-50, 50), st.sampled_from([1.0, 2.0, 8.0]))
    def test_sigma_bounded_and_odd(self, z, U):
        s = float(sigma_U(z, U))
        assert abs(s) < 1.0
        np.testing.assert_allclose(sigma_U(-z, U), -s, atol=1e-15)

    @given(st.floats(-50, 50, allow_nan=False), st.sampled_from([1.0, 4.0]))
    def test_sigma_prime_is_derivative(self, z, U):
        h = 1e-6
        num = (sigma_U(z + h, U) - sigma_U(z - h, U)) / (2 * h)
        np.testing.assert_allclose(num, sigma_U_prime(z, U), rtol=1e-4, atol=1e-8)

    def test_sigma_rejects_small_U(self):
        with pytest.raises(ValueError):
            sigma_U(0.0, 0.5)


class TestDyadicRegion:
    def test_scale_cap(self):
        with pytest.raises(ValueError):
            DyadicRegion(8, "R", 4)  # 4 > 8/4

    def test_non_dyadic_rejected(self):
        with pytest.raises(ValueError):
            DyadicRegion(12, "R", 1)
        with pytest.raises(ValueError):
            DyadicRegion(8, "R", 3)

    def test_enlargement_is_plain_or_tilde(self):
        assert DyadicRegion(8, "U", 2).enlarged() == DyadicRegion(8, "U", 2, enlargement=1)
        with pytest.raises(ValueError, match="enlargement must be 0 or 1"):
            DyadicRegion(8, "U", 2, enlargement=2)

    def test_enumerate_order(self):
        regs = enumerate_regions(16, grid(t_max=32.0))
        kinds = [(r.kind, r.scale) for r in regs]
        assert kinds == [("R", 1), ("R", 2), ("R", 4),
                         ("U", 1), ("U", 2), ("U", 4), ("core", None)]

    def test_enumerate_rejects_small_tau(self):
        with pytest.raises(ValueError):
            enumerate_regions(2, grid())

    def test_enumerate_rejects_slab_beyond_horizon(self):
        with pytest.raises(ValueError):
            enumerate_regions(16, grid(t_max=16.0))


class TestMasks:
    def test_covering_is_grid_exact(self):
        g = grid(dr=0.25, t_max=32.0)
        for tau in (4, 8, 16):
            union = np.zeros(g.shape())
            for reg in enumerate_regions(tau, g):
                union = np.maximum(union, realize_mask(reg, g).weights)
            np.testing.assert_array_equal(union, slab_mask(tau, g))

    def test_tilde_contains_plain(self):
        g = grid(dr=0.25)
        for reg in enumerate_regions(4, g):
            plain = realize_mask(reg, g).weights
            tilde = realize_mask(reg.enlarged(), g).weights
            assert np.all(tilde >= plain)

    def test_tilde_endpoints(self):
        # R-kind [2, 4] widens to [7/4, 17/4] [TRIVIAL]
        g = grid(dr=0.25, t_max=32.0)
        reg = DyadicRegion(16, "R", 2, enlargement=1)
        w = realize_mask(reg, g).weights
        t, r = g.meshes()
        inside = w > 0
        rs = np.broadcast_to(r, g.shape())[inside]
        assert rs.min() == 7 / 4
        assert rs.max() == 17 / 4

    def test_complement_additivity(self):
        g = grid(dr=0.25)
        m = realize_mask(DyadicRegion(4, "R", 1), g).weights
        f = rw.SpaceTimeField.from_function(g, lambda t, r: np.cos(t) * np.exp(-r))
        full = region_l2l2(f, rw.WeightSpec(), np.ones(g.shape()))
        a = region_l2l2(f, rw.WeightSpec(), m)
        b = region_l2l2(f, rw.WeightSpec(), 1.0 - m)
        assert abs(full ** 2 - a ** 2 - b ** 2) <= 1e-10 * full ** 2

    def test_cone_intersection(self):
        g = grid(dr=0.25)
        w = realize_mask(DyadicRegion(4, "R", 1), g).weights
        t, r = g.meshes()
        assert not np.any(w * (r > t + 2 + 1e-9))

    def test_strip_mask_uses_cone_distance_bracket(self):
        g = grid(dr=0.25)
        w = realize_mask(DyadicRegion(None, "strip", 2), g).weights
        t, r = g.meshes()
        br = bracket(t - r)
        assert np.all(w[(br < 2) | (br > 4)] == 0)
        sel = (br >= 2) & (br <= 4)
        assert np.all(w[sel] == 1)


def _valid_grids(drs, cfls, t_maxes):
    out = []
    for dr, cfl, t_max in itertools.product(drs, cfls, t_maxes):
        try:
            out.append(rw.GridSpec(dr=dr, cfl=cfl, r_max=t_max + 4, t_max=t_max))
        except ValueError:  # t_max is not a whole number of time steps
            pass
    return out


ORACLE_GRIDS = _valid_grids((0.25, 0.125, 0.1), (0.3, 0.5, 1.0), (16.0, 18.0, 32.0))


def _every_region(g):
    """Every kind at every scale, 1 included: the slab pieces of each slab
    that fits the grid and annuli and strips up past the grid's extent."""
    out = []
    for tau in dyadic_scales(g.t_max / 2, start=4):
        out += enumerate_regions(tau, g)
    for s in dyadic_scales(2 * g.r_max):
        out += [DyadicRegion(None, "annulus", s), DyadicRegion(None, "strip", s)]
    return out


def _assert_maximal_runs(g, rows, lo, hi):
    assert np.all((0 <= lo) & (lo < hi) & (hi <= g.nr))
    assert np.all(np.diff(rows) >= 0)
    same = np.diff(rows) == 0
    assert np.all(lo[1:][same] > hi[:-1][same])  # disjoint and not adjacent


def test_valid_oracle_grids():
    assert len(ORACLE_GRIDS) == 21


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE_GRIDS))
def test_intervals_render_the_dense_masks(g):
    f = rw.SpaceTimeField.from_function(g, lambda t, r: np.cos(t - r) * np.exp(-r / 8))
    weight = rw.WeightSpec(0.3, 0.5)
    seen = set()
    for region in _every_region(g):
        for reg in (region, region.enlarged()):
            seen.add((reg.kind, reg.scale, reg.enlargement))
            rows, lo, hi = regions._intervals(reg, g)
            _assert_maximal_runs(g, rows, lo, hi)
            want = oracle.inequality_mask(reg, g).weights
            assert np.array_equal(realize_mask(reg, g).weights, want), reg
            # the dense mask and the intervals reduce the same points
            l2 = interval_l2(f.values, g, weight, reg)
            assert region_l2l2(f, weight, want) == l2, reg
    for kind in ("R", "U", "annulus", "strip"):
        assert {(kind, 1, lev) for lev in (0, 1)} <= seen
    assert {("core", None, lev) for lev in (0, 1)} <= seen


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([0.25, 0.125]), st.sampled_from([0.5, 1.0]),
       st.sampled_from([16.0, 32.0]))
def test_row_intervals_reproduce_sharp_masks(dr, cfl, t_max):
    g = rw.GridSpec(dr=dr, cfl=cfl, r_max=t_max + 4, t_max=t_max)
    seen = set()
    for tau in dyadic_scales(t_max / 2, start=4):
        for reg in enumerate_regions(tau, g):
            seen.add((reg.kind, reg.scale))
            w = oracle.inequality_mask(reg, g).weights
            rows, lo, hi = regions._intervals(reg, g)
            assert np.all(lo < hi)
            rebuilt = np.zeros(g.shape())
            for n, a, b in zip(rows, lo, hi):
                rebuilt[n, a:b] = 1.0
            np.testing.assert_array_equal(rebuilt, w)
            # plain regions meet each time row in one interval
            assert len(np.unique(rows)) == len(rows)
    assert {("R", 1), ("U", 1), ("core", None)} <= seen


def test_strip_rows_split_at_the_cone():
    # <t - r> >= 2 leaves out the cone's neighbourhood, so a late row has two runs
    g = grid(dr=0.25)
    rows, lo, hi = regions._intervals(DyadicRegion(None, "strip", 2), g)
    n = g.nt - 1
    assert rows.tolist().count(n) == 2
    t, r = g.t[n], g.r
    first, second = np.flatnonzero(rows == n)
    assert np.all(t - r[lo[first]:hi[first]] > 0)
    assert np.all(t - r[lo[second]:hi[second]] < 0)


def test_dyadic_scales():
    assert dyadic_scales(8) == [1, 2, 4, 8]
    assert dyadic_scales(7) == [1, 2, 4]
    assert dyadic_scales(0.5) == []
    assert dyadic_scales(16, start=4) == [4, 8, 16]
