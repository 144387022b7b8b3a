"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line for its criterion; tolerances are stated
inline next to the assertion they guard.
"""

import time

import numpy as np
import pytest

import radialwave as rw
from radialwave import estimates, picard, registry, regions
from radialwave.solver import InitialData, SolveConfig, poly_bump
from estimate_oracles import box_scalar, observed_order, region_l2l2, scaling_identity_residual
from region_oracles import enumerate_regions, realize_mask, slab_mask
from solver_oracles import exact_dalembert
from stencil_oracles import raw_form


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_criterion_1_free_wave_oracle():
    """Homogeneous solve converges to the closed-form solution at second
    order: relative sup error <= 1e-3 at dr = 1/64, observed order >= 1.9,
    within 10 s."""
    t0 = time.perf_counter()
    errs = []
    for dr in (1 / 32, 1 / 64):
        g = rw.GridSpec(dr=dr, cfl=0.5, r_max=8.0, t_max=4.0)
        data = InitialData(poly_bump, rw.zero_profile, poly_bump, rw.zero_profile)
        hist = rw.solve(data, SolveConfig(grid=g, mode="homogeneous"))
        hg = hist.grid
        exact = np.stack([exact_dalembert(poly_bump, t, hg.r) for t in hg.t])
        errs.append(float(np.max(np.abs(hist.W_u.values - exact))
                          / np.max(np.abs(exact))))
    order = observed_order(errs[0], errs[1])
    elapsed = time.perf_counter() - t0
    ok = errs[1] <= 1e-3 and order >= 1.9 and elapsed <= 10.0
    _report("criterion 1 (free-wave oracle)", ok,
            f"rel_err={errs[1]:.3e} order={order:.2f} elapsed={elapsed:.1f}s")
    assert errs[1] <= 1e-3
    assert order >= 1.9
    assert elapsed <= 10.0


def test_criterion_2_multiplier_identities():
    """Both multiplier identities close with relative residual <= 1e-3 at
    dr = 1/64, refine at order >= 1.8, and all sign-definite terms are
    nonnegative to rounding."""
    worst_res, worst_order = 0.0, np.inf
    for family in ("traveling_sym", "standing_bump", "expanding_bump"):
        for check in (lambda w: estimates.check_identity_plus(w, 0.75, 1.0),
                      lambda w: estimates.check_identity_minus(w, 0.2)):
            res = []
            for dr in (1 / 32, 1 / 64):
                g = rw.GridSpec(dr=dr, cfl=1.0, r_max=12.0, t_max=8.0)
                rep = check(registry.build(family, g))
                res.append(rep.relative_residual)
            worst_res = max(worst_res, res[1])
            worst_order = min(worst_order, observed_order(res[0], res[1]))
            for term in ("p_flux", "ghost", "delta_flux"):
                if term in rep.rhs_terms:
                    assert rep.rhs_terms[term] >= -1e-12
    ok = worst_res <= 1e-3 and worst_order >= 1.8
    _report("criterion 2 (multiplier identities)", ok,
            f"worst_residual={worst_res:.3e} worst_order={worst_order:.2f}")
    assert worst_res <= 1e-3
    assert worst_order >= 1.8


def test_criterion_3_algebraic_structure():
    """Null-form grouping and the scaling-split identity hold to rounding;
    the scaling commutator identity refines at order >= 1.8."""
    rng = np.random.default_rng(11)
    a, b, c, d = rng.standard_normal((4, 8, 8))
    null_gap = float(np.max(np.abs(rw.null_form(a, b, c, d) - raw_form(a, b, c, d))))

    g = rw.GridSpec(dr=1 / 16, cfl=1.0, r_max=12.0, t_max=8.0)
    split_res = scaling_identity_residual(registry.standing_bump(g))

    errs = []
    for dr in (1 / 16, 1 / 32):
        gg = rw.GridSpec(dr=dr, cfl=1.0, r_max=12.0, t_max=8.0)
        u = registry.standing_bump(gg)
        box = box_scalar(u)
        lhs = box_scalar(rw.derivative(u, "S")).values \
            - rw.derivative(box, "S").values
        rhs = 2 * box.values
        t, r = gg.meshes()
        keep = (r >= 0.5) & (r <= gg.r_max - 0.5) & (t >= 0.5) & (t <= gg.t_max - 0.5)
        errs.append(float(np.max(np.abs(np.where(keep, lhs - rhs, 0)))
                          / np.max(np.abs(np.where(keep, rhs, 0)))))
    comm_order = observed_order(errs[0], errs[1])
    ok = null_gap <= 1e-12 and split_res <= 1e-12 and comm_order >= 1.8
    _report("criterion 3 (algebraic structure)", ok,
            f"null_gap={null_gap:.1e} split_res={split_res:.1e} "
            f"commutator_order={comm_order:.2f}")
    assert null_gap <= 1e-12
    assert split_res <= 1e-12
    assert comm_order >= 1.8


def test_criterion_4_estimate_ratios():
    """All estimate ratios over the test families are finite, invariant under
    field rescaling to 1e-10, and drift <= 5% between dr = 1/32 and 1/64."""
    def all_ratios(dr):
        g = rw.GridSpec(dr=dr, cfl=1.0, r_max=22.0, t_max=18.0)
        fields = {f: registry.build(f, g) for f in registry.ANALYTIC_FAMILIES}
        out = {}
        for fam, u in fields.items():
            out[f"{fam}/hardy"] = estimates.check_hardy(u, 0.75, fam).ratio
            out[f"{fam}/le"] = estimates.check_le(u, fam).ratio
            out[f"{fam}/mr"] = estimates.check_mr(u, 0.75, fam).ratio
            out[f"{fam}/newle"] = estimates.check_newle(u, 0.75, 0.2, fam).ratio
        for fam, kind, scale in registry.KS_COMBOS:
            u = fields[fam]
            out[f"{fam}/ks_{kind}{scale}"] = \
                estimates.check_spacetime_ks(u, 8, kind, scale).ratio
            out[f"{fam}/d2ks_{kind}{scale}"] = \
                estimates.check_second_derivative_ks(u, 8, kind, scale).ratio
        return out, fields

    coarse, fields = all_ratios(1 / 32)
    fine, _ = all_ratios(1 / 64)
    assert all(np.isfinite(v) for v in coarse.values())
    drift = max(abs(fine[k] - coarse[k]) / coarse[k] for k in coarse)

    g = rw.GridSpec(dr=1 / 32, cfl=1.0, r_max=22.0, t_max=18.0)
    u = fields["standing_bump"]
    cu = rw.SpaceTimeField(g, 7.3 * u.values, "even")
    inv_gap = abs(estimates.check_mr(cu, 0.75).ratio
                  - estimates.check_mr(u, 0.75).ratio)
    ok = drift <= 0.05 and inv_gap <= 1e-10
    _report("criterion 4 (estimate ratios)", ok,
            f"max_drift={drift:.4f} scale_invariance_gap={inv_gap:.1e}")
    assert drift <= 0.05
    assert inv_gap <= 1e-10


def test_criterion_5_picard_contraction():
    """Full-scale iteration (eps = 0.01, dr = 1/32, horizon 64, six iterates)
    contracts with ratio <= 0.5 from the third iterate on, within 10 min."""
    t0 = time.perf_counter()
    g = rw.GridSpec(dr=1 / 32, cfl=0.5, r_max=68.0, t_max=64.0)
    records = picard.run_iteration(picard.PicardConfig(grid=g, eps=0.01, kmax=6))
    elapsed = time.perf_counter() - t0
    ratios = [r.contraction_ratio for r in records if r.k >= 3]
    worst = max(ratios)
    verdict = picard.check_boundedness(records, 0.01)
    ok = worst <= 0.5 and verdict["bounded"] and elapsed <= 600
    _report("criterion 5 (fixed-point contraction)", ok,
            f"worst_ratio(k>=3)={worst:.3g} bounded={verdict['bounded']} "
            f"elapsed={elapsed:.0f}s")
    assert worst <= 0.5
    assert verdict["bounded"]
    assert elapsed <= 600


def test_criterion_6_amplitude_scaling():
    """Across eps in {0.02, 0.01, 0.005, 0.0025}: the functional stays under
    its fitted threshold, the first iterate scales linearly within 5%, and the
    first correction scales quadratically within 20%."""
    g = rw.GridSpec(dr=1 / 16, cfl=0.5, r_max=36.0, t_max=32.0)
    rows = []
    for eps in (0.02, 0.01, 0.005, 0.0025):
        records = picard.run_iteration(picard.PicardConfig(grid=g, eps=eps, kmax=2))
        verdict = picard.check_boundedness(records, eps)
        assert verdict["max_m"] <= 1.05 * verdict["threshold"]
        rows.append((eps, records[0].m_total,
                     records[1].m_total - records[0].m_total))
    e0, m0, d0 = rows[0]
    lin_gap = max(abs((m / m0) / (e / e0) - 1) for e, m, _ in rows[1:])
    quad_gap = max(abs((d / d0) / (e / e0) ** 2 - 1) for e, _, d in rows[1:])
    ok = lin_gap <= 0.05 and quad_gap <= 0.20
    _report("criterion 6 (amplitude scaling)", ok,
            f"linear_gap={lin_gap:.3g} quadratic_gap={quad_gap:.3g}")
    assert lin_gap <= 0.05
    assert quad_gap <= 0.20


def test_criterion_7_pointwise_decay():
    """Long run to t = 256: sup|u| decays like t^-1 (fitted exponent within
    0.15), t * sup|u| varies by at most a factor 2 on [32, 256], and v decays
    at least as fast up to 0.05."""
    g = rw.GridSpec(dr=1 / 32, cfl=0.5, r_max=260.0, t_max=256.0)
    diags = picard.decay_run(g, 0.01)
    fit = picard.fit_decay(diags)
    t = np.asarray(diags["t"])
    sel = (t >= 32) & (t <= 256)
    tu = t[sel] * np.asarray(diags["sup_u"])[sel]
    factor = float(tu.max() / tu.min())
    ok = (abs(fit["exponent_u"] + 1.0) <= 0.15 and factor <= 2.0
          and fit["exponent_v"] <= fit["exponent_u"] + 0.05)
    _report("criterion 7 (pointwise decay)", ok,
            f"exponent_u={fit['exponent_u']:.3f} exponent_v={fit['exponent_v']:.3f} "
            f"t*sup_u factor={factor:.2f}")
    assert abs(fit["exponent_u"] + 1.0) <= 0.15
    assert factor <= 2.0
    assert fit["exponent_v"] <= fit["exponent_u"] + 0.05


def test_criterion_8_geometry_and_reproducibility():
    """Dyadic covering of each slab is grid-exact for tau in {4..64}; masked
    norms are exactly additive under complements; repeated runs are
    byte-identical."""
    g = rw.GridSpec(dr=1 / 8, cfl=1.0, r_max=132.0, t_max=128.0)
    cover_exact = True
    for tau in (4, 8, 16, 32, 64):
        union = np.zeros(g.shape())
        for reg in enumerate_regions(tau, g):
            union = np.maximum(union, realize_mask(reg, g).weights)
        cover_exact &= bool(np.array_equal(union, slab_mask(tau, g)))

    gs = rw.GridSpec(dr=1 / 8, cfl=1.0, r_max=20.0, t_max=16.0)
    f = registry.standing_bump(gs)
    m = realize_mask(regions.DyadicRegion(4, "R", 1), gs).weights
    full = region_l2l2(f, rw.WeightSpec(), np.ones(gs.shape()))
    parts = (region_l2l2(f, rw.WeightSpec(), m) ** 2
             + region_l2l2(f, rw.WeightSpec(), 1.0 - m) ** 2)
    additivity_gap = abs(full ** 2 - parts) / full ** 2

    gsolve = rw.GridSpec(dr=1 / 16, cfl=0.5, r_max=12.0, t_max=8.0)
    data = rw.calibrate(InitialData(), gsolve, 2, 0.02)
    h1 = rw.solve(data, SolveConfig(grid=gsolve, mode="semilinear"))
    h2 = rw.solve(data, SolveConfig(grid=gsolve, mode="semilinear"))
    bytes_equal = (h1.W_u.values.tobytes() == h2.W_u.values.tobytes()
                   and h1.W_v.values.tobytes() == h2.W_v.values.tobytes())
    b1 = rw.m_functional(h1.u(), h1.v(), 0.75, 0.2, 1)
    b2 = rw.m_functional(h2.u(), h2.v(), 0.75, 0.2, 1)
    func_equal = repr(b1.slots) == repr(b2.slots)

    ok = cover_exact and additivity_gap <= 1e-10 and bytes_equal and func_equal
    _report("criterion 8 (geometry and reproducibility)", ok,
            f"covering_exact={cover_exact} additivity_gap={additivity_gap:.1e} "
            f"bytes_equal={bytes_equal}")
    assert cover_exact
    assert additivity_gap <= 1e-10
    assert bytes_equal and func_equal
