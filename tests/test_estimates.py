import functools
import importlib
import pkgutil

import numpy as np
import pytest

import radialwave as rw
from radialwave import cli, estimates, norms, registry
from radialwave import grid as grid_module
from radialwave.norms import WeightSpec
from radialwave.regions import DyadicRegion, _intervals
import estimate_oracles
from estimate_oracles import (box_decomposition_residual, box_scalar, check_weighted_sobolev,
                              le1_norm, observed_order, scaling_identity_residual,
                              region_l2l2, spatial_l2)
from region_oracles import inequality_mask, region_supsup
from radialwave.grid import _word_sums
from stencil_oracles import _diff2, quotient_by_r, word_sums_ref


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
        assert observed_order(res[0], res[1]) >= 1.8

    @pytest.mark.parametrize("family", ["traveling_sym", "standing_bump"])
    def test_minus_residual_refines_at_second_order(self, family):
        res = []
        for dr in (1 / 16, 1 / 32):
            w = registry.build(family, grid(dr=dr))
            res.append(estimates.check_identity_minus(w, 0.2).relative_residual)
        assert res[1] <= 2e-3
        assert observed_order(res[0], res[1]) >= 1.8

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

    @pytest.mark.parametrize("dr", [1 / 16, 1 / 32])
    @pytest.mark.parametrize("family", sorted(registry.ANALYTIC_FAMILIES))
    def test_reports_equal_the_two_checks_they_replace(self, family, dr):
        w = registry.build(family, grid(dr=dr))
        cases = [(estimates.check_identity_plus, estimate_oracles.check_identity_plus, args)
                 for args in ((0.75, 1.0), (1.5, 2.0))]
        cases += [(estimates.check_identity_minus, estimate_oracles.check_identity_minus, (d,))
                  for d in (0.2, 0.5)]
        for check, oracle, args in cases:
            got, want = check(w, *args), oracle(w, *args)
            assert got.name == want.name
            for key in ("lhs", "rhs", "relative_residual"):
                assert getattr(got, key).hex() == getattr(want, key).hex(), (check, args, key)
            for key, value in want.rhs_terms.items():
                assert got.rhs_terms[key].hex() == value.hex(), (check, args, key)
            extra = {k: v for k, v in got.rhs_terms.items() if k not in want.rhs_terms}
            if want.name == "identity_minus":
                assert extra == {"angular_flux": 0.0}
            else:
                assert extra == {} and list(got.rhs_terms) == list(want.rhs_terms)

    @pytest.mark.parametrize("which, bound", [("plus", 8.05), ("minus", 5.05)])
    def test_peak_allocation(self, traced_peak, which, bound):
        # at the identities command's default grid, where the two checks the one
        # evaluator replaced peaked at 8.03 (plus) and 5.03 (minus) arrays of the
        # grid's size; a bulk weight built before the call would stay resident
        # through it, where one built when its term is taken does not
        w = registry.traveling_sym(grid(dr=1 / 64))
        check = {"plus": lambda: estimates.check_identity_plus(w, 0.75, 1.0),
                 "minus": lambda: estimates.check_identity_minus(w, 0.2)}[which]
        peak = traced_peak(check)
        assert peak <= bound * w.values.nbytes

    def test_parameter_range(self):
        w = registry.standing_bump(grid(dr=1 / 8))
        with pytest.raises(ValueError):
            estimates.check_identity_plus(w, 2.5, 1.0)
        with pytest.raises(ValueError):
            estimates.check_identity_minus(w, -0.1)


class TestAlgebraicIdentities:
    def test_scaling_identity_exact(self):
        u = registry.standing_bump(grid(dr=1 / 16))
        assert scaling_identity_residual(u) <= 1e-12

    def test_box_decomposition_converges(self):
        res = [box_decomposition_residual(registry.standing_bump(grid(dr=dr)))
               for dr in (1 / 16, 1 / 32)]
        assert res[1] <= 1e-10  # centered product rule is exact in the interior

    def test_commutator_with_scaling(self):
        # Box(S u) - S(Box u) = 2 Box u up to truncation error [DERIVED]
        errs = []
        for dr in (1 / 16, 1 / 32):
            g = grid(dr=dr)
            u = registry.standing_bump(g)
            box = box_scalar(u)
            lhs = box_scalar(rw.derivative(u, "S")).values \
                - rw.derivative(box, "S").values
            rhs = 2 * box.values
            t, r = g.meshes()
            keep = (r >= 0.5) & (r <= g.r_max - 0.5) & (t >= 0.5) & (t <= g.t_max - 0.5)
            scale = np.max(np.abs(np.where(keep, rhs, 0)))
            errs.append(np.max(np.abs(np.where(keep, lhs - rhs, 0))) / scale)
        assert observed_order(errs[0], errs[1]) >= 1.8


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
        du = rw.SpaceTimeField(g, np.sqrt(np.square(rw.derivative(u, rw.DT).values)
                                          + np.square(rw.derivative(u, rw.DR).values)))
        assert estimates.check_le(u).rhs_slots["data_sq"] == row0(du, WeightSpec()) ** 2
        mr = estimates.check_mr(u, p).rhs_slots
        assert mr["data_invhalf"] == row0(u, WeightSpec(a, 0.5))
        assert mr["data_good"] == row0(good_u, WeightSpec(p / 2))
        newle = estimates.check_newle(u, p, delta).rhs_slots
        assert newle["data_bad"] == row0(bad_u, WeightSpec(-delta / 2))
        assert newle["data_good"] == row0(good_u, WeightSpec(p / 2))
        assert newle["data_invr"] == row0(u, WeightSpec(p / 2, 1.0))


_RATIO_NAMES = ("hardy", "le", "mr", "newle")


def _ratio_checks(module, p=0.75, delta=0.2):
    """The four ratio checks of ``module`` (``estimates`` or the oracle) by name."""
    return {"hardy": lambda u: module.check_hardy(u, p), "le": module.check_le,
            "mr": lambda u: module.check_mr(u, p),
            "newle": lambda u: module.check_newle(u, p, delta)}


class TestStreamedRatioChecks:
    """The four ratio checks stream blocks of rows through ``grid._word_sums``;
    the whole-grid copies in ``estimate_oracles`` are their oracle."""

    @pytest.mark.parametrize("dr", [1 / 16, 1 / 32])
    @pytest.mark.parametrize("family", list(registry.ANALYTIC_FAMILIES) + ["no parity"])
    def test_every_slot_equals_the_whole_grid_oracle(self, dr, family):
        g = rw.GridSpec(dr=dr, cfl=1.0, r_max=22.0, t_max=18.0)
        if family == "no parity":  # the one-sided stencil at r = 0
            cases = [rw.SpaceTimeField(g, registry.expanding_bump(g).values, None)]
        else:
            base = registry.build(family, g).values
            cases = [rw.SpaceTimeField(g, factor * base, "even") for factor in (0.1, 1.0, 3.7)]
        streamed, oracle = _ratio_checks(estimates), _ratio_checks(estimate_oracles)
        for u in cases:
            for name in streamed:
                got, want = streamed[name](u), oracle[name](u)
                assert list(got.lhs_slots) == list(want.lhs_slots), name
                assert list(got.rhs_slots) == list(want.rhs_slots), name
                slots = {**got.lhs_slots, **got.rhs_slots}
                for key, value in {**want.lhs_slots, **want.rhs_slots}.items():
                    if (name, key) == ("le", "forcing"):  # row sums first, then t
                        assert abs(slots[key] - value) <= 1e-15 * abs(value)
                    else:
                        assert repr(slots[key]) == repr(value), (name, key)
                if name != "le":
                    assert (repr(got.lhs), repr(got.rhs)) == (repr(want.lhs), repr(want.rhs))

    @pytest.mark.parametrize("family", list(registry.ANALYTIC_FAMILIES) + ["no parity"])
    def test_combined_call_equals_the_single_calls(self, family):
        # one pass of u over the union of the four checks' slots, one of r u
        g = rw.GridSpec(dr=1 / 16, cfl=1.0, r_max=22.0, t_max=18.0)
        u = (rw.SpaceTimeField(g, registry.expanding_bump(g).values, None)
             if family == "no parity" else registry.build(family, g))
        combined = estimates._ratio_reports(u, 0.75, 0.2, _RATIO_NAMES, family)
        singles = [check(u) for check in _ratio_checks(estimates).values()]
        for got, want in zip(combined, singles, strict=True):
            assert got.name == want.name
            for side in ("lhs_slots", "rhs_slots"):
                assert list(getattr(got, side)) == list(getattr(want, side)), got.name
                assert ([float(v).hex() for v in getattr(got, side).values()]
                        == [float(v).hex() for v in getattr(want, side).values()]), got.name
            assert (got.lhs.hex(), got.rhs.hex()) == (want.lhs.hex(), want.rhs.hex())
            assert got.family_id == family

    def test_passes(self, tmp_path, monkeypatch):
        # a single check makes the passes it made on its own (the u pass, and
        # the r u pass of Hardy's good slot or the ghost strips); the
        # estimates command reads each family's four checks off two passes,
        # and each Klainerman-Sobolev check makes one
        calls = []
        stream = estimates._stream
        monkeypatch.setattr(estimates, "_stream", lambda *a, **k: calls.append(1) or stream(*a, **k))
        u = registry.build("traveling_sym", grid(dr=1 / 8))
        for name, check in _ratio_checks(estimates).items():
            calls.clear()
            check(u)
            assert len(calls) == {"hardy": 2, "le": 1, "mr": 2, "newle": 2}[name]
        calls.clear()
        assert cli.main(["--out", str(tmp_path), "estimates", "--dr", "0.125",
                         "--t-max", "8"]) == 0
        assert len(calls) == 2 * len(registry.ANALYTIC_FAMILIES) + 2 * len(registry.KS_COMBOS)
        assert len(registry.ANALYTIC_FAMILIES) == 4

    @pytest.mark.parametrize("name", ["hardy", "le", "mr", "newle", "combined"])
    def test_peak_allocation(self, traced_peak, name):
        # the whole-grid checks peaked at 4.0 (hardy), 5.0 (le, mr) and 6.0
        # (newle) arrays of the grid's size; streamed, at 1.35 (le) and 1.6,
        # the conjugate field r u being the one whole-grid array, and at
        # 1.7-1.9 with a block's sums kept alive through the next block's pass;
        # the combined call builds r u after the u pass has freed its windows
        g = rw.GridSpec(dr=1 / 32, cfl=1.0, r_max=22.0, t_max=18.0)
        u = registry.build("traveling_sym", g)
        check = _ratio_checks(estimates).get(
            name, lambda u: estimates._ratio_reports(u, 0.75, 0.2, _RATIO_NAMES))
        peak = traced_peak(lambda: check(u))
        assert peak < 1.75 * u.values.nbytes

    def test_non_finite_delta_and_U_are_refused(self):
        u = registry.standing_bump(grid(dr=1 / 8))
        with pytest.raises(ValueError, match="delta"):
            estimates.check_newle(u, 0.75, float("nan"))
        with pytest.raises(ValueError, match="delta"):
            estimates.check_identity_minus(u, float("nan"))
        with pytest.raises(ValueError, match="U must be >= 1"):
            estimates.check_identity_plus(u, 0.75, float("nan"))
        for fn in (rw.sigma_U, rw.sigma_U_prime):
            with pytest.raises(ValueError, match="U must be >= 1"):
                fn(0.0, float("nan"))


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


def test_checks_build_no_dense_mask():
    # no module of the package defines a dense mask: the masks live in region_oracles
    names = [info.name for info in pkgutil.iter_modules(rw.__path__)]
    assert "regions" in names
    for mod in [rw] + [importlib.import_module(f"radialwave.{name}") for name in names]:
        assert not hasattr(mod, "realize_mask") and not hasattr(mod, "RegionMask"), mod
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
    plain = inequality_mask(region, grid).weights
    tilde = inequality_mask(region.enlarged(), grid).weights

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
        plain = inequality_mask(region, g).weights > 0
        tilde = inequality_mask(region.enlarged(), g).weights
        inside = tilde > 0
        assert not np.any(plain & ~inside)  # the d2 lhs reads du on plain only

        # the windows are blocks of tilde's rows, each the bounding box of its
        # rows' intervals
        windows = estimates._ks_windows(_intervals(region.enlarged(), g))
        if not inside.any():
            assert windows == [(slice(0, 0), slice(0, 0))]
        else:
            # the blocks cover tilde's rows in order, and no row twice
            tilde_rows = np.flatnonzero(inside.any(axis=1))
            walked = np.concatenate([np.arange(rows.start, rows.stop) for rows, _ in windows])
            assert np.array_equal(walked, tilde_rows)
            # so every tilde point lies in exactly one block's window
            assert sum(inside[window].sum() for window in windows) == inside.sum()
            for window in windows:
                sub = inside[window]
                assert sub[0].any() and sub[-1].any() and sub[:, 0].any() and sub[:, -1].any()
            # every window spans at most one block of tilde's rows (grid._blocks)
            first = tilde_rows[0]
            blocks = grid_module._blocks(tilde_rows[-1] + 1 - first)
            for rows, _ in windows:
                assert any(first + lo <= rows.start and rows.stop <= first + hi
                           for lo, hi in blocks)
            if (family, kind, scale, tau) == ("standing_bump", "R", 1, 8):
                assert all(cols.start == 0 for _, cols in windows)
                assert windows[0][0].start > 0
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

    @pytest.mark.parametrize("dr, extent, family, kind, scale, tau", [
        case for case in _ks_cases() if case.id in
        ("cone_hugger-U1-dr16", "cone_hugger-U2-dr16", "expanding_bump-R2-dr16", "empty-window")])
    def test_stream_on_ks_windows_equals_the_row_blocks(self, dr, extent, family, kind,
                                                        scale, tau):
        # norms._stream on a check's boxes against its default full-row blocks:
        # a region L2 slot on tilde and a list-of-regions sup slot on plain
        g = rw.GridSpec(dr=dr, cfl=1.0, **extent)
        u = registry.build(family, g)
        region = DyadicRegion(tau, kind, scale)
        keys = ((0, None), (2, None), (2, "dr"))
        slots = {"mass": ((2, "dr"), WeightSpec(), region.enlarged()),
                 "sup": ((0, None), None, [region])}
        windows = estimates._ks_windows(_intervals(region.enlarged(), g))
        boxes = norms._stream(u, keys, slots, windows)
        assert repr(boxes) == repr(norms._stream(u, keys, slots))
        if windows == [(slice(0, 0), slice(0, 0))]:
            assert boxes == {"mass": 0.0, "sup": [0.0]}
        else:  # a U strip's boxes are blocks of its rows, not full rows
            assert len(windows) > (kind == "U") and windows[0][1] != slice(0, g.nr)
            assert boxes["mass"] > 0.0 and boxes["sup"][0] > 0.0

    @pytest.mark.parametrize("scale", [1, 2])
    def test_sup_reads_every_block(self, scale):
        # the field grows with t, so the plain strip's sup lies in the last block
        g = rw.GridSpec(dr=1 / 16, cfl=1.0, r_max=22.0, t_max=18.0)
        u = rw.SpaceTimeField(g, g.t[:, None] * registry.cone_hugger(g).values, "even")
        assert len(estimates._ks_windows(_intervals(DyadicRegion(8, "U", scale).enlarged(),
                                                    g))) > 1
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
        # the cells both checks walk on tilde's row blocks against one walk on
        # its bounding box: a U strip along the light cone walks at most the
        # box, and at most half of it at dr 1/32 and tau 8 (0.40-0.69 of it
        # measured at tau 8); an R piece is a rectangle, whose blocks walk the
        # box plus the halo rows where they meet (1.036-1.097 of it measured)
        g = rw.GridSpec(dr=dr, cfl=1.0, **extent)
        u = registry.build(family, g)
        tilde = _intervals(DyadicRegion(tau, kind, scale).enlarged(), g)
        bound = 1.12 if kind == "R" else 0.5 if (dr, tau) == (1 / 32, 8) else 1.0
        for check, keys in ((estimates.check_spacetime_ks, _KS_KEYS[:2]),
                            (estimates.check_second_derivative_ks, _KS_KEYS[2:] + ((0, "d"),))):
            walk = self.walked(monkeypatch, lambda: check(u, tau, kind, scale))
            assert walk <= bound * self.box_walk(monkeypatch, u, keys, tilde)

    def test_mass_slots_share_their_window_positions(self, monkeypatch):
        # the five mass slots of the second-derivative check read tilde's one
        # memoised intervals tuple, so each window finds its points once; with
        # a fresh tuple per slot they are found per slot, to an equal report
        g = rw.GridSpec(dr=1 / 32, cfl=1.0, r_max=22.0, t_max=18.0)
        u = registry.build("cone_hugger", g)
        tilde = _intervals(DyadicRegion(8, "U", 1).enlarged(), g)
        windows = estimates._ks_windows(tilde)
        calls, real = [], norms._window_pos

        def counting(intervals, *args):
            calls.append(all(np.array_equal(a, b) for a, b in zip(intervals, tilde)))
            return real(intervals, *args)

        def run():
            calls.clear()
            return repr(estimates.check_second_derivative_ks(u, 8, "U", 1)), sum(calls)

        def fresh(region, grid):  # a new intervals tuple on every call
            return tuple(list(_intervals(region, grid)))

        with monkeypatch.context() as m:
            m.setattr(norms, "_window_pos", counting)
            shared = run()
            m.setattr(norms, "_intervals", fresh)
            per_slot = run()
        assert len(windows) == 5
        assert shared == (per_slot[0], len(windows))
        assert per_slot[1] == 5 * len(windows)

    def test_u_strip_peak_allocation(self, traced_peak):
        # the bounding box of the U1 strip at dr 1/32 peaked at about 13
        # arrays of the grid's size, its row blocks at under 2
        g = rw.GridSpec(dr=1 / 32, cfl=1.0, r_max=22.0, t_max=18.0)
        u = registry.build("cone_hugger", g)
        peak = traced_peak(lambda: estimates.check_second_derivative_ks(u, 8, "U", 1))
        assert peak < 3 * u.values.nbytes

    def test_r_piece_peak_allocation(self, traced_peak):
        # the row blocks of the R2 piece at dr 1/32 peak at about 0.6 arrays
        # of the grid's size; its one bounding box peaked at 2.6
        g = rw.GridSpec(dr=1 / 32, cfl=1.0, r_max=22.0, t_max=18.0)
        u = registry.build("expanding_bump", g)
        peak = traced_peak(lambda: estimates.check_second_derivative_ks(u, 8, "R", 2))
        assert peak < 0.8 * u.values.nbytes

    def test_box_scalar_equals_conjugate_form(self):
        g = rw.GridSpec(dr=1 / 16, cfl=1.0, r_max=12.0, t_max=8.0)
        for parity in ("even", "odd", None):
            vals = registry.standing_bump(g).values * (g.r[None, :] if parity == "odd" else 1.0)
            u = rw.SpaceTimeField(g, vals, parity)
            par = {"even": "odd", "odd": "even", None: None}[parity]
            W = g.r[None, :] * u.values
            raw = _diff2(W, g.dt, axis=0) - _diff2(W, g.dr, axis=1, parity=par)
            want = quotient_by_r(rw.SpaceTimeField(g, raw, par))
            got = box_scalar(u)
            assert np.array_equal(got.values, want.values)
            assert got.parity == want.parity



class TestLightConeCut:
    """``le1_norm``, the ratio checks and the Klainerman-Sobolev checks with
    the word sums cut at the field's light cone (``grid._cut``) against the
    full-width walk."""

    @staticmethod
    def run(monkeypatch, fn, cut):
        """(repr of fn(), cells of every ``_z_walk`` it runs), the word sums cut
        at the light cone or walking their windows' full width."""
        cells, real = [], grid_module._z_walk

        def counting(values, *args):
            cells.append(values.size)
            return real(values, *args)

        with monkeypatch.context() as m:
            m.setattr(grid_module, "_z_walk", counting)
            if not cut:
                m.setattr(grid_module, "_cut", lambda f, keys, spans: spans[1][1])
            return repr(fn()), sum(cells)

    def test_equal_to_the_full_width_walk(self, monkeypatch):
        # compactly supported fields: the light cone, a support that leaves the
        # R2 and U windows empty, and one that ends inside every U window
        g = rw.GridSpec(dr=1 / 16, cfl=1.0, r_max=22.0, t_max=18.0)
        t, r = g.meshes()
        walked = {}
        for family, kind, scale in registry.KS_COMBOS:
            for support in (r <= t + 2, r <= 1.5, r <= t - 3):
                u = rw.SpaceTimeField(g, registry.build(family, g).values * support, "even")
                checks = {
                    "le1": lambda: le1_norm(u),
                    "ks": lambda: estimates.check_spacetime_ks(u, 8, kind, scale),
                    "d2ks": lambda: estimates.check_second_derivative_ks(u, 8, kind, scale),
                    **{name: functools.partial(check, u)
                       for name, check in _ratio_checks(estimates).items()},
                }
                for name, fn in checks.items():
                    (cut, cut_cells), (full, full_cells) = (self.run(monkeypatch, fn, c)
                                                            for c in (True, False))
                    assert cut == full, (family, kind, scale, name)
                    cells = walked.setdefault(name, [0, 0])
                    cells[0] += cut_cells
                    cells[1] += full_cells
        # the cut walks fewer cells in every kind of pass
        assert all(cut < full for cut, full in walked.values()), walked

def test_box_scalar_checks_grid_size():
    g = rw.GridSpec(dr=0.25, cfl=1.0, r_max=4.5, t_max=0.5)
    assert g.shape() == (3, 19)
    u = rw.SpaceTimeField(g, np.ones(g.shape()), "even")
    with pytest.raises(rw.GridTooSmallError):
        box_scalar(u)


class TestWeightedSobolev:
    def test_ratio_finite_and_scale_invariant(self):
        r = np.arange(0, 16 + 1e-9, 1 / 32)
        h = np.exp(-np.square((r - 4) / 1.5))
        rep = check_weighted_sobolev(h, r, 4)
        assert np.isfinite(rep.ratio) and rep.lhs > 0
        rep2 = check_weighted_sobolev(2.5 * h, r, 4)
        np.testing.assert_allclose(rep2.ratio, rep.ratio, rtol=1e-12)

    def test_empty_annulus_rejected(self):
        r = np.arange(0, 2 + 1e-9, 1 / 16)
        with pytest.raises(ValueError):
            check_weighted_sobolev(np.exp(-r), r, 16)


def test_registry_unknown_family():
    g = grid(dr=1 / 8)
    with pytest.raises(KeyError):
        registry.build("no_such_family", g)


class TestRegistrySampling:
    """The registry's fields, sampled one block of rows at a time
    (``SpaceTimeField.from_function``), against one whole-grid call of their
    pointwise functions."""

    @pytest.mark.parametrize("dr", [1 / 16, 1 / 32], ids=["dr16", "dr32"])
    @pytest.mark.parametrize("family", sorted(registry.ANALYTIC_FAMILIES))
    def test_equal_to_the_whole_grid_call(self, monkeypatch, family, dr):
        g = rw.GridSpec(dr=dr, cfl=1.0, r_max=22.0, t_max=18.0)
        blocked = registry.build(family, g)
        monkeypatch.setattr(grid_module, "_blocks", lambda nt, rows: [(0, nt)])
        whole = registry.build(family, g)
        assert blocked.values.tobytes() == whole.values.tobytes()
        assert blocked.parity == whole.parity == "even"

    @pytest.mark.parametrize("family", sorted(registry.ANALYTIC_FAMILIES))
    def test_build_peak_allocation(self, traced_peak, family):
        # the field plus one block's temporaries; a whole-grid call of fn
        # peaked at 4.0 arrays of the grid's size
        g = rw.GridSpec(dr=1 / 32, cfl=1.0, r_max=22.0, t_max=18.0)
        peak = traced_peak(lambda: registry.build(family, g))
        assert peak < 1.25 * g.nt * g.nr * 8
