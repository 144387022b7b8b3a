import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

import radialwave as rw
from radialwave import norms
from radialwave.grid import DR, DT, apply_z_multi, derivative, quotient_by_r
from radialwave.norms import (
    MixedNormSpec, WeightSpec, le_norm, m_functional, mixed_norm, spatial_l2, spatial_sup,
)
from radialwave.regions import dyadic_scales, enumerate_regions
from region_oracles import realize_mask, region_supsup


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

    def test_invalid_inverse_power(self):
        with pytest.raises(rw.NormSpecError):
            WeightSpec(power_inv_r=0.25)


class TestMixedNorms:
    def test_linf_l2_picks_worst_time(self):
        g = grid(t_max=4.0)
        f = rw.SpaceTimeField.from_function(
            g, lambda t, r: (1 + t) * np.exp(-r * r))
        per_t = spatial_l2(f, WeightSpec())
        got = mixed_norm(f, MixedNormSpec("Linf", "L2"))
        assert got == per_t[-1]

    def test_l2_linf(self):
        g = grid(t_max=4.0)
        f = rw.SpaceTimeField.from_function(g, lambda t, r: np.cos(t) * np.exp(-r))
        got = mixed_norm(f, MixedNormSpec("L2", "Linf"))
        sup_t = np.max(np.abs(f.values), axis=1)
        wt = np.full(g.nt, g.dt)
        wt[0] = wt[-1] = g.dt / 2
        np.testing.assert_allclose(got, np.sqrt(np.sum(sup_t ** 2 * wt)), rtol=1e-12)

    def test_sup_norm_rejects_inverse_weight(self):
        with pytest.raises(rw.NormSpecError):
            MixedNormSpec("Linf", "Linf", WeightSpec(power_inv_r=1.0))

    def test_ghost_weight_factor(self):
        g = grid(t_max=2.0)
        f = rw.SpaceTimeField.from_function(g, lambda t, r: np.exp(-r) + 0 * t)
        plain = mixed_norm(f, MixedNormSpec("L2", "L2"))
        ghosted = mixed_norm(f, MixedNormSpec("L2", "L2", WeightSpec(ghost_U=1.0)))
        assert 0 < ghosted != plain
        # e^{-sigma} is within [e^-1, e], so the two norms are comparable
        assert plain / np.e <= ghosted <= plain * np.e


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

    def test_le1_uses_supplied_derivatives(self):
        g = grid(t_max=2.0)
        f = rw.SpaceTimeField.from_function(g, lambda t, r: np.exp(-r * r) + 0 * t, "even")
        auto = rw.le1_norm(f)
        manual = rw.le1_norm(f, dt_f=rw.derivative(f, "dt"),
                             dr_f=rw.derivative(f, "dr"),
                             f_over_r=rw.quotient_by_r(f))
        np.testing.assert_allclose(auto, manual, rtol=1e-12)


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

    def test_truncation_recorded(self):
        u, v = self.fields()
        b = m_functional(u, v, 0.75, 0.2, 1)
        assert b.truncation_T == 16.0


def _word_by_word_sums(f, N):
    """The Z-word sums accumulated from ``apply_z_multi``, one stencil per word."""
    sums = {k: np.zeros(f.grid.shape()) for k in ("good", "d_t", "d_r", "d_half", "quot")}
    for word, g in apply_z_multi(f, N):
        gt, gr = derivative(g, DT).values, derivative(g, DR).values
        sums["good"] += np.abs(gt + gr)
        sums["d_t"] += np.abs(gt)
        sums["d_r"] += np.abs(gr)
        sums["quot"] += np.abs(quotient_by_r(g).values)
        if len(word) <= N // 2:
            sums["d_half"] += np.abs(gt) + np.abs(gr)
    return sums


class TestFunctionalFastPaths:
    """The shared-derivative sums and the region index against the dense paths."""

    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    @pytest.mark.parametrize("parity", ["even", "odd", None])
    def test_aggregates_match_word_by_word_sums(self, N, parity):
        g = rw.GridSpec(dr=1 / 8, cfl=0.5, r_max=12, t_max=8)
        f = rw.SpaceTimeField.from_function(
            g, lambda t, r: (r if parity == "odd" else 1.0 + 0.3 * r)
            * np.exp(-np.square(r - t) / 3) * np.cos(t), parity)
        agg = norms._Aggregates(f, N)
        for name, ref in _word_by_word_sums(f, N).items():
            assert np.array_equal(getattr(agg, name), ref), name

    @settings(max_examples=8, deadline=None)
    @given(st.sampled_from([0.25, 0.125]), st.sampled_from([0.5, 1.0]),
           st.sampled_from([16.0, 32.0]))
    def test_index_positions_are_the_sharp_masks(self, dr, cfl, t_max):
        g = rw.GridSpec(dr=dr, cfl=cfl, r_max=t_max + 4, t_max=t_max)
        index = norms._region_index(g)
        # every plain region once, the core twice (an R row and a U row)
        assert len(index.rows) == sum(len(enumerate_regions(tau, g)) + 1 for tau in
                                      dyadic_scales(t_max / 2, start=4))
        for i, (kind, tau, s) in enumerate(index.rows):
            pos = index.flat[index.offsets[i]:index.offsets[i + 1]]
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

    @pytest.mark.parametrize("functional", [m_functional, rw.a_functional])
    def test_slots_equal_dense_mask_recomputation(self, functional):
        u, v = TestFunctionals.fields(dr=1 / 8)
        p, delta, N = 0.75, 0.2, 2
        b = functional(u, v, p, delta, N)
        au, av = norms._Aggregates(u, N), norms._Aggregates(v, N)
        sup_u = {"R": 0.0, "U": 0.0}
        sq_tau = sq_alt = sq_u = 0.0
        for kind in ("R", "U"):
            for tau in dyadic_scales(u.grid.t_max / 2, start=4):
                for reg in enumerate_regions(tau, u.grid):
                    if reg.kind not in (kind, "core"):
                        continue
                    s = tau // 2 if reg.kind == "core" else reg.scale
                    mask = realize_mask(reg, u.grid).weights
                    lu, lv = region_supsup(au.d_half, mask), region_supsup(av.d_half, mask)
                    assert b.per_region[f"{kind} tau={tau} s={s} u"] == lu
                    assert b.per_region[f"{kind} tau={tau} s={s} v"] == lv
                    if kind == "R":
                        sup_u[kind] = max(sup_u[kind], tau ** 0.5 * s * lu)
                        sq_tau += (tau ** 0.5 * s ** (1 - delta / 2) * lv) ** 2
                        sq_alt += (s ** ((3 - delta) / 2) * lv) ** 2
                    else:
                        sup_u[kind] = max(sup_u[kind], tau * s ** 0.5 * lu)
                        sq_u += (tau ** (1 - delta / 2) * s ** 0.5 * lv) ** 2
        assert len(b.per_region) == 2 * len(norms._region_index(u.grid).rows)
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


def test_spatial_sup_matches_direct_max():
    g = grid(t_max=2.0)
    f = rw.SpaceTimeField.from_function(g, lambda t, r: np.sin(r + t))
    got = spatial_sup(f, WeightSpec(power_r=0.5))
    w = (1 + g.r ** 2) ** 0.25
    np.testing.assert_allclose(got, np.max(np.abs(f.values) * w[None, :], axis=1))
