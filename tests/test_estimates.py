import sys
import tracemalloc

import numpy as np
import pytest

import radialwave as rw
from radialwave import estimates, registry
from radialwave import grid as grid_module
from radialwave.norms import WeightSpec, region_l2l2, spatial_l2
from radialwave.regions import DyadicRegion, _intervals
from region_oracles import realize_mask, region_supsup
from radialwave.grid import _depth, _word_sums
from stencil_oracles import _diff2, word_sums_ref


def grid(dr=1 / 32, t_max=8.0, r_max=12.0):
    return rw.GridSpec(dr=dr, cfl=1.0, r_max=r_max, t_max=t_max)


class TestIdentities:
    @pytest.mark.parametrize("family", ["traveling_sym", "standing_bump"])
    def test_plus_residual_refines_at_second_order(self, family):
        res = []
        for dr in (1 / 16, 1 / 32):
            w = registry.build(family, grid(dr=dr))
            res.append(estimates.check_identity_plus(w, 0.75, 1.0).relative_residual)
        assert res[1] <= 2e-3
        assert estimates.observed_order(res[0], res[1]) >= 1.8

    @pytest.mark.parametrize("family", ["traveling_sym", "standing_bump"])
    def test_minus_residual_refines_at_second_order(self, family):
        res = []
        for dr in (1 / 16, 1 / 32):
            w = registry.build(family, grid(dr=dr))
            res.append(estimates.check_identity_minus(w, 0.2).relative_residual)
        assert res[1] <= 2e-3
        assert estimates.observed_order(res[0], res[1]) >= 1.8

    def test_plus_sign_terms(self):
        w = registry.traveling_sym(grid())
        rep = estimates.check_identity_plus(w, 0.75, 2.0)
        assert rep.rhs_terms["p_flux"] >= 0
        assert rep.rhs_terms["ghost"] >= 0
        assert rep.rhs_terms["axis_line"] >= 0
        assert rep.rhs_terms["angular_flux"] == 0.0

    def test_minus_sign_terms(self):
        w = registry.standing_bump(grid())
        rep = estimates.check_identity_minus(w, 0.2)
        assert rep.rhs_terms["delta_flux"] >= 0
        assert rep.rhs_terms["axis_line"] <= 0

    def test_parameter_range(self):
        w = registry.standing_bump(grid(dr=1 / 8))
        with pytest.raises(ValueError):
            estimates.check_identity_plus(w, 2.5, 1.0)
        with pytest.raises(ValueError):
            estimates.check_identity_minus(w, -0.1)


class TestAlgebraicIdentities:
    def test_scaling_identity_exact(self):
        u = registry.standing_bump(grid(dr=1 / 16))
        assert estimates.scaling_identity_residual(u) <= 1e-12

    def test_box_decomposition_converges(self):
        res = [estimates.box_decomposition_residual(registry.standing_bump(grid(dr=dr)))
               for dr in (1 / 16, 1 / 32)]
        assert res[1] <= 1e-10  # centered product rule is exact in the interior

    def test_commutator_with_scaling(self):
        # Box(S u) - S(Box u) = 2 Box u up to truncation error [DERIVED]
        errs = []
        for dr in (1 / 16, 1 / 32):
            g = grid(dr=dr)
            u = registry.standing_bump(g)
            box = estimates.box_scalar(u)
            lhs = estimates.box_scalar(rw.derivative(u, "S")).values \
                - rw.derivative(box, "S").values
            rhs = 2 * box.values
            t, r = g.meshes()
            keep = (r >= 0.5) & (r <= g.r_max - 0.5) & (t >= 0.5) & (t <= g.t_max - 0.5)
            scale = np.max(np.abs(np.where(keep, rhs, 0)))
            errs.append(np.max(np.abs(np.where(keep, lhs - rhs, 0))) / scale)
        assert estimates.observed_order(errs[0], errs[1]) >= 1.8


class TestRatioChecks:
    @pytest.mark.parametrize("family", list(registry.ANALYTIC_FAMILIES))
    def test_ratios_finite(self, family):
        u = registry.build(family, rw.GridSpec(dr=1 / 16, cfl=1.0, r_max=20, t_max=16))
        for rep in (estimates.check_hardy(u, 0.75, family),
                    estimates.check_le(u, family),
                    estimates.check_mr(u, 0.75, family),
                    estimates.check_newle(u, 0.75, 0.2, family)):
            assert np.isfinite(rep.ratio)
            assert rep.rhs > 0

    def test_scale_invariance(self):
        g = rw.GridSpec(dr=1 / 16, cfl=1.0, r_max=20, t_max=16)
        u = registry.standing_bump(g)
        cu = rw.SpaceTimeField(g, 5.0 * u.values, "even")
        for fn in (lambda f: estimates.check_hardy(f, 0.75),
                   lambda f: estimates.check_mr(f, 0.75),
                   lambda f: estimates.check_newle(f, 0.75, 0.2)):
            np.testing.assert_allclose(fn(cu).ratio, fn(u).ratio, rtol=1e-10)

    def test_mr_reports_dyadic_detail(self):
        g = rw.GridSpec(dr=1 / 16, cfl=1.0, r_max=20, t_max=16)
        rep = estimates.check_mr(registry.expanding_bump(g), 0.75)
        detail = [k for k in rep.rhs_slots if k.startswith("detail")]
        assert any("R tau=4" in k for k in detail)
        assert any("core" in k for k in detail)

    def test_angular_slots_vanish(self):
        g = rw.GridSpec(dr=1 / 16, cfl=1.0, r_max=20, t_max=16)
        rep = estimates.check_mr(registry.standing_bump(g), 0.75)
        assert rep.lhs_slots["ang_linfl2"] == 0.0
        assert rep.rhs_slots["data_ang"] == 0.0

    def test_data_slots_are_row_0_of_spatial_l2(self):
        # a data slot reduces only row 0, and gets row 0 of the whole-grid call
        g = rw.GridSpec(dr=1 / 16, cfl=1.0, r_max=20, t_max=16)
        u = registry.expanding_bump(g)
        p, delta, a = 0.75, 0.2, -0.125
        good_u, bad_u = rw.derivative(u, rw.GOOD), rw.derivative(u, rw.BAD)

        def row0(f, weight):
            return float(spatial_l2(f, weight)[0])

        assert estimates.check_hardy(u, p).rhs_slots["data"] == row0(u, WeightSpec(a, 0.5))
        du = estimates._du_magnitude(u)
        assert estimates.check_le(u).rhs_slots["data_sq"] == row0(du, WeightSpec()) ** 2
        mr = estimates.check_mr(u, p).rhs_slots
        assert mr["data_invhalf"] == row0(u, WeightSpec(a, 0.5))
        assert mr["data_good"] == row0(good_u, WeightSpec(p / 2))
        newle = estimates.check_newle(u, p, delta).rhs_slots
        assert newle["data_bad"] == row0(bad_u, WeightSpec(-delta / 2))
        assert newle["data_good"] == row0(good_u, WeightSpec(p / 2))
        assert newle["data_invr"] == row0(u, WeightSpec(p / 2, 1.0))


class TestPointwiseChecks:
    @staticmethod
    def field_and_grid(family, dr=1 / 16):
        g = rw.GridSpec(dr=dr, cfl=1.0, r_max=22, t_max=18)
        return registry.build(family, g), g

    @pytest.mark.parametrize("family,kind,scale", registry.KS_COMBOS)
    def test_spacetime_ks_finite(self, family, kind, scale):
        u, _ = self.field_and_grid(family)
        rep = estimates.check_spacetime_ks(u, 8, kind, scale)
        assert np.isfinite(rep.ratio) and rep.rhs > 0
        if kind == "R":
            assert "product_form" in rep.rhs_slots

    @pytest.mark.parametrize("family,kind,scale", registry.KS_COMBOS)
    def test_second_derivative_ks_finite(self, family, kind, scale):
        u, _ = self.field_and_grid(family)
        rep = estimates.check_second_derivative_ks(u, 8, kind, scale)
        assert np.isfinite(rep.ratio) and rep.rhs > 0
        assert np.isfinite(rep.rhs_slots["bad2_ratio"])
        assert not rep.flagged

    def test_noise_floor_flagged_for_vanishing_field(self):
        g = rw.GridSpec(dr=1 / 16, cfl=1.0, r_max=22, t_max=18)
        u = rw.SpaceTimeField.from_function(
            g, lambda t, r: 1.0 + 1e-14 * np.exp(-np.square(r - 4)) + 0 * t, "even")
        rep = estimates.check_second_derivative_ks(u, 8, "R", 2)
        # the constant background differences away, leaving derivative mass
        # at the rounding floor of the O(1) field
        assert rep.flagged

    def test_ks_scale_invariance(self):
        u, g = self.field_and_grid("cone_hugger")
        cu = rw.SpaceTimeField(g, 3.0 * u.values, "even")
        a = estimates.check_spacetime_ks(u, 8, "U", 1).ratio
        b = estimates.check_spacetime_ks(cu, 8, "U", 1).ratio
        np.testing.assert_allclose(a, b, rtol=1e-10)

    def test_bad_kind_rejected(self):
        u, _ = self.field_and_grid("standing_bump")
        with pytest.raises(ValueError):
            estimates.check_spacetime_ks(u, 8, "core", 1)

    @pytest.mark.parametrize("check", [estimates.check_spacetime_ks,
                                       estimates.check_second_derivative_ks])
    @pytest.mark.parametrize("kind", ["core", "annulus", "strip", "r"])
    def test_bad_kind_rejected_before_any_work(self, monkeypatch, check, kind):
        u, _ = self.field_and_grid("standing_bump")

        def no_masks(*args, **kwargs):
            raise AssertionError("a region was built for a rejected region kind")

        monkeypatch.setattr(estimates, "_intervals", no_masks)
        with pytest.raises(ValueError, match="region_kind must be R or U"):
            check(u, 8, kind, 1)


def test_checks_build_no_dense_mask(monkeypatch):
    def no_masks(*args, **kwargs):
        raise AssertionError("a dense region mask was built")

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "radialwave" and hasattr(mod, "realize_mask"):
            monkeypatch.setattr(mod, "realize_mask", no_masks)
    g = grid(dr=1 / 16, t_max=18.0, r_max=22.0)
    u = registry.build("standing_bump", g)
    assert np.isfinite(estimates.check_mr(u, 0.75).ratio)
    assert np.isfinite(estimates.check_newle(u, 0.75, 0.2).ratio)
    for kind, scale in (("R", 1), ("U", 2)):
        assert np.isfinite(estimates.check_spacetime_ks(u, 8, kind, scale).ratio)
        assert np.isfinite(estimates.check_second_derivative_ks(u, 8, kind, scale).ratio)


# ----------------------------------------------------------------------
# the windowed Z-word pass against the word-by-word oracle
# ----------------------------------------------------------------------

_KS_KEYS = ((2, None), (2, "dr"), (3, "d"), (2, "box"), (2, "dtdr2"), (2, "bad2"),
            (2, "good2"))


def _reference_reports(w, tau, kind, scale, ref):
    """Both KS reports as the full-grid loop made them, from the sums ``ref``."""
    grid = w.grid
    region = DyadicRegion(tau, kind, scale)
    plain = realize_mask(region, grid).weights
    tilde = realize_mask(region.enlarged(1), grid).weights

    def mass(key):
        return region_l2l2(rw.SpaceTimeField(grid, ref[key]), WeightSpec(), tilde)

    lhs = region_supsup(w.values, plain)
    m0, m1 = mass((2, None)), mass((2, "dr"))
    if kind == "R":
        rhs = tau ** -0.5 * scale ** -1.5 * m0 + tau ** -0.5 * scale ** -0.5 * m1
        product_form = tau ** -0.5 * scale ** -1.5 * m0 + tau ** -0.5 / scale * np.sqrt(m0 * m1)
    else:
        rhs = tau ** -1.5 * scale ** -0.5 * m0 + scale ** 0.5 * tau ** -1.5 * m1
        product_form = None
    ks = estimates.EstimateReport("spacetime_ks", lhs, rhs, "", {"supsup": lhs},
                                  {"mass": m0, "mass_dr": m1, "tau": float(tau),
                                   "scale": float(scale), "kind": kind})
    if product_form is not None:
        ks.rhs_slots["product_form"] = float(product_form)

    du = np.abs(rw.derivative(w, "dt").values) + np.abs(rw.derivative(w, "dr").values)
    lhs = region_supsup(du, plain)
    m_d, m_box = mass((3, "d")), mass((2, "box"))
    m_dtdr2, m_bad2, m_good2 = mass((2, "dtdr2")), mass((2, "bad2")), mass((2, "good2"))
    if kind == "R":
        rhs = tau ** -0.5 * scale ** -1.5 * m_d + tau ** -0.5 * scale ** -0.5 * m_box
        bad2_rhs = good2_rhs = m_d / scale + m_dtdr2
    else:
        rhs = scale ** -0.5 * tau ** -1.5 * m_d + scale ** -0.5 * tau ** -0.5 * m_box
        bad2_rhs = m_d / scale + (tau / scale) * m_dtdr2
        good2_rhs = m_d / tau + m_dtdr2
    noise = np.finfo(float).eps * float(np.max(np.abs(w.values))) / grid.dr ** 4
    d2 = estimates.EstimateReport("second_derivative_ks", lhs, rhs, "", {"supsup_du": lhs},
                                  {"mass_d3": m_d, "mass_box2": m_box, "tau": float(tau),
                                   "scale": float(scale), "kind": kind},
                                  flagged=m_d < 1e3 * noise)
    d2.rhs_slots["bad2_ratio"] = float(m_bad2 / bad2_rhs) if bad2_rhs > 0 else 0.0
    d2.rhs_slots["good2_ratio"] = float(m_good2 / good2_rhs) if good2_rhs > 0 else 0.0
    return ks, d2


def _ks_cases():
    crit4 = {"r_max": 22.0, "t_max": 18.0}
    for dr in (1 / 16, 1 / 32):
        for family, kind, scale in registry.KS_COMBOS:
            yield pytest.param(dr, crit4, family, kind, scale, 8,
                               id=f"{family}-{kind}{scale}-dr{round(1 / dr)}")
    # the enlarged slab [14, 34] runs past t_max = 18: clipped at the last row
    yield pytest.param(1 / 16, crit4, "cone_hugger", "U", 2, 16, id="clipped-last-row")
    yield pytest.param(1 / 16, crit4, "expanding_bump", "R", 4, 16, id="clipped-R4")
    yield pytest.param(1 / 16, crit4, "standing_bump", "R", 1, 4, id="tau4-R1")
    # the enlarged slab [7, 17] misses a grid that ends at t = 6: an empty window
    yield pytest.param(1 / 16, {"r_max": 10.0, "t_max": 6.0}, "standing_bump", "U", 1, 8,
                       id="empty-window")


class TestKSWordPass:
    @pytest.mark.parametrize("dr, extent, family, kind, scale, tau", list(_ks_cases()))
    def test_pass_equals_word_by_word_loop(self, dr, extent, family, kind, scale, tau):
        g = rw.GridSpec(dr=dr, cfl=1.0, **extent)
        u = registry.build(family, g)
        region = DyadicRegion(tau, kind, scale)
        plain = realize_mask(region, g).weights > 0
        tilde = realize_mask(region.enlarged(1), g).weights
        inside = tilde > 0
        assert not np.any(plain & ~inside)  # the d2 lhs reads du on plain only

        # the windows are blocks of tilde's rows, each the bounding box of its
        # rows' intervals
        windows = estimates._ks_windows(_intervals(region.enlarged(1), g), _depth(_KS_KEYS))
        if not inside.any():
            assert windows == [(slice(0, 0), slice(0, 0))]
        else:
            # the blocks cover tilde's rows in order, and no row twice
            walked = np.concatenate([np.arange(rows.start, rows.stop) for rows, _ in windows])
            assert np.array_equal(walked, np.flatnonzero(inside.any(axis=1)))
            # so every tilde point lies in exactly one block's window
            assert sum(inside[window].sum() for window in windows) == inside.sum()
            for window in windows:
                sub = inside[window]
                assert sub[0].any() and sub[-1].any() and sub[:, 0].any() and sub[:, -1].any()
            if kind == "R":  # a rectangle keeps its one box
                assert len(windows) == 1
            if (family, kind, scale, tau) == ("standing_bump", "R", 1, 8):
                (rows, cols), = windows
                assert cols.start == 0 and rows.start > 0
            if tau == 16:
                assert windows[-1][0].stop == g.nt
            if kind == "U" and tau == 8:  # every edge of every window is inside the grid
                assert len(windows) > 1
                for rows, cols in windows:
                    assert 0 < rows.start and rows.stop < g.nt
                    assert 0 < cols.start and cols.stop < g.nr

        ref = word_sums_ref(u, _KS_KEYS)
        du = np.abs(rw.derivative(u, "dt").values) + np.abs(rw.derivative(u, "dr").values)
        for window in windows:
            sums = _word_sums(u, _KS_KEYS + ((0, "d"),), window)
            for key in _KS_KEYS:  # every cell of the window
                assert np.array_equal(sums[key], ref[key][window]), key
            assert np.array_equal(sums[0, "d"], du[window])

        ref_ks, ref_d2 = _reference_reports(u, tau, kind, scale, ref)
        for rep, want in ((estimates.check_spacetime_ks(u, tau, kind, scale), ref_ks),
                          (estimates.check_second_derivative_ks(u, tau, kind, scale), ref_d2)):
            assert rep.lhs == want.lhs and rep.rhs == want.rhs
            assert rep.lhs_slots == want.lhs_slots
            assert rep.rhs_slots == want.rhs_slots
            assert rep.flagged == want.flagged

    @pytest.mark.parametrize("scale", [1, 2])
    def test_sup_reads_every_block(self, scale):
        # the field grows with t, so the plain strip's sup lies in the last block
        g = rw.GridSpec(dr=1 / 16, cfl=1.0, r_max=22.0, t_max=18.0)
        u = rw.SpaceTimeField(g, g.t[:, None] * registry.cone_hugger(g).values, "even")
        assert len(estimates._ks_windows(_intervals(DyadicRegion(8, "U", scale).enlarged(1), g),
                                         _depth(_KS_KEYS))) > 1
        ref_ks, ref_d2 = _reference_reports(u, 8, "U", scale, word_sums_ref(u, _KS_KEYS))
        assert estimates.check_spacetime_ks(u, 8, "U", scale).lhs == ref_ks.lhs
        assert estimates.check_second_derivative_ks(u, 8, "U", scale).lhs == ref_d2.lhs

    @staticmethod
    def walked(monkeypatch, fn) -> int:
        """Cells of every ``_z_walk`` that ``fn()`` runs."""
        cells, real = [], grid_module._z_walk

        def counting(values, *args):
            cells.append(values.size)
            return real(values, *args)

        with monkeypatch.context() as m:
            m.setattr(grid_module, "_z_walk", counting)
            fn()
        return sum(cells)

    def box_walk(self, monkeypatch, u, keys, tilde) -> int:
        """Cells walked by one ``_word_sums`` pass on the bounding box of ``tilde``."""
        rows, j_lo, j_hi = tilde
        box = (slice(rows[0], rows[-1] + 1), slice(j_lo.min(), j_hi.max())) if rows.size \
            else (slice(0, 0), slice(0, 0))
        return self.walked(monkeypatch, lambda: _word_sums(u, keys, box))

    @pytest.mark.parametrize("dr, extent, family, kind, scale, tau", list(_ks_cases()))
    def test_blocks_never_walk_more_than_the_box(self, monkeypatch, dr, extent, family,
                                                 kind, scale, tau):
        g = rw.GridSpec(dr=dr, cfl=1.0, **extent)
        u = registry.build(family, g)
        tilde = _intervals(DyadicRegion(tau, kind, scale).enlarged(1), g)
        for check, keys in ((estimates.check_spacetime_ks, _KS_KEYS[:2]),
                            (estimates.check_second_derivative_ks, _KS_KEYS[2:] + ((0, "d"),))):
            walk = self.walked(monkeypatch, lambda: check(u, tau, kind, scale))
            assert walk <= self.box_walk(monkeypatch, u, keys, tilde)

    def test_r_pieces_keep_one_box_and_u_strips_walk_half_of_it(self, monkeypatch):
        g = rw.GridSpec(dr=1 / 32, cfl=1.0, r_max=22.0, t_max=18.0)
        for family, kind, scale in registry.KS_COMBOS:
            u = registry.build(family, g)
            tilde = _intervals(DyadicRegion(8, kind, scale).enlarged(1), g)
            for check, keys in ((estimates.check_spacetime_ks, _KS_KEYS[:2]),
                                (estimates.check_second_derivative_ks, _KS_KEYS[2:])):
                windows = estimates._ks_windows(tilde, _depth(keys))
                walk = self.walked(monkeypatch, lambda: check(u, 8, kind, scale))
                box = self.box_walk(monkeypatch, u, keys, tilde)
                if kind == "R":
                    assert len(windows) == 1 and walk == box
                else:
                    assert len(windows) > 1 and 2 * walk <= box

    def test_u_strip_peak_allocation(self):
        # the bounding box of the U1 strip at dr 1/32 peaked at about 13
        # arrays of the grid's size, its row blocks at under 2
        g = rw.GridSpec(dr=1 / 32, cfl=1.0, r_max=22.0, t_max=18.0)
        u = registry.build("cone_hugger", g)
        tracemalloc.start()
        try:
            estimates.check_second_derivative_ks(u, 8, "U", 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * u.values.nbytes

    def test_box_scalar_equals_conjugate_form(self):
        g = rw.GridSpec(dr=1 / 16, cfl=1.0, r_max=12.0, t_max=8.0)
        for parity in ("even", "odd", None):
            vals = registry.standing_bump(g).values * (g.r[None, :] if parity == "odd" else 1.0)
            u = rw.SpaceTimeField(g, vals, parity)
            par = {"even": "odd", "odd": "even", None: None}[parity]
            W = g.r[None, :] * u.values
            raw = _diff2(W, g.dt, axis=0) - _diff2(W, g.dr, axis=1, parity=par)
            want = rw.quotient_by_r(rw.SpaceTimeField(g, raw, par))
            got = estimates.box_scalar(u)
            assert np.array_equal(got.values, want.values)
            assert got.parity == want.parity


def test_box_scalar_checks_grid_size():
    g = rw.GridSpec(dr=0.25, cfl=1.0, r_max=4.5, t_max=0.5)
    assert g.shape() == (3, 19)
    u = rw.SpaceTimeField(g, np.ones(g.shape()), "even")
    with pytest.raises(rw.GridTooSmallError):
        estimates.box_scalar(u)


class TestWeightedSobolev:
    def test_ratio_finite_and_scale_invariant(self):
        r = np.arange(0, 16 + 1e-9, 1 / 32)
        h = np.exp(-np.square((r - 4) / 1.5))
        rep = estimates.check_weighted_sobolev(h, r, 4)
        assert np.isfinite(rep.ratio) and rep.lhs > 0
        rep2 = estimates.check_weighted_sobolev(2.5 * h, r, 4)
        np.testing.assert_allclose(rep2.ratio, rep.ratio, rtol=1e-12)

    def test_empty_annulus_rejected(self):
        r = np.arange(0, 2 + 1e-9, 1 / 16)
        with pytest.raises(ValueError):
            estimates.check_weighted_sobolev(np.exp(-r), r, 16)


def test_registry_unknown_family():
    g = grid(dr=1 / 8)
    with pytest.raises(KeyError):
        registry.build("no_such_family", g)
