import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

import radialwave as rw
from radialwave import grid as grid_module, solver
from radialwave.solver import InitialData, SolveConfig, poly_bump, smallness_sum
from estimate_oracles import observed_order
from solver_oracles import dalembert_history, linear_forced_ref


def grid(dr=1 / 16, t_max=4.0, cfl=0.5):
    return rw.GridSpec(dr=dr, cfl=cfl, r_max=t_max + 4, t_max=t_max)


def standard_data(amplitude=1.0):
    return InitialData(rw.bump, rw.zero_profile, rw.bump, rw.zero_profile,
                       amplitude=amplitude)


class TestInitialData:
    def test_support_cap(self):
        with pytest.raises(ValueError):
            InitialData(rw.bump, rw.zero_profile, rw.bump, rw.zero_profile,
                        support_radius=3.0)

    @pytest.mark.parametrize("radius", [float("nan"), -0.5, float("inf"), 2.5])
    def test_support_radius_outside_zero_to_two_is_refused(self, radius):
        # a NaN radius would turn off every support check (r > nan is never true)
        with pytest.raises(ValueError, match=r"support_radius must lie in \[0, 2\]"):
            InitialData(support_radius=radius)
        for edge in (0.0, 2.0):
            assert InitialData(support_radius=edge).support_radius == edge

    def test_calibration_hits_eps_exactly(self):
        g = grid()
        data = rw.calibrate(standard_data(), g, N=2, eps=0.01)
        np.testing.assert_allclose(smallness_sum(data, g, 2), 0.01, rtol=1e-12)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -0.01])
    def test_calibration_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
            rw.calibrate(standard_data(), grid(), N=2, eps=eps)

    def test_calibration_refuses_zero_data_at_positive_eps(self):
        # the data-size sum of all-zero profiles is 0, which eps > 0 was divided by
        zero = InitialData(rw.zero_profile, rw.zero_profile, rw.zero_profile, rw.zero_profile)
        with pytest.raises(ValueError, match=r"data-size sum is 0\.0.*eps = 0\.01"):
            rw.calibrate(zero, grid(), N=2, eps=0.01)
        assert rw.calibrate(zero, grid(), N=2, eps=0.0).amplitude == 0.0

    @pytest.mark.parametrize("amplitude", [float("nan"), float("inf")])
    def test_amplitude_must_be_finite(self, amplitude):
        with pytest.raises(ValueError, match="amplitude must be finite"):
            standard_data(amplitude=amplitude)

    def test_calibration_is_linear_in_eps(self):
        g = grid()
        a = rw.calibrate(standard_data(), g, N=2, eps=0.01).amplitude
        b = rw.calibrate(standard_data(), g, N=2, eps=0.02).amplitude
        np.testing.assert_allclose(b, 2 * a, rtol=1e-12)


class TestHomogeneousSolve:
    def test_matches_dalembert_oracle(self):
        # closed-form conjugate solution W = (phi(r+t) + phi(r-t)) / 2 with
        # phi the odd extension of r * u0 [DERIVED]
        g = grid(dr=1 / 32)
        data = InitialData(poly_bump, rw.zero_profile, poly_bump, rw.zero_profile)
        hist = rw.solve(data, SolveConfig(grid=g, mode="homogeneous"))
        oracle = dalembert_history(data, hist.grid)
        err = np.max(np.abs(hist.W_u.values - oracle.W_u.values))
        assert err <= 5e-3 * np.max(np.abs(oracle.W_u.values))

    def test_energy_conserved(self):
        g = grid(dr=1 / 32)
        hist = rw.solve(standard_data(), SolveConfig(grid=g, mode="homogeneous"))
        e = hist.diagnostics["energy_u"]
        # RK4 is not symplectic; a slow O(dt^4)-per-step drift accumulates
        assert np.max(np.abs(e - e[0])) <= 5e-3 * e[0]

    def test_energy_conserved_long_horizon(self):
        # RK4 at dt = dr damps grid-scale modes: the drift at T = 64 is about
        # -1.1e-3 here, and larger on coarser grids (README)
        g = grid(dr=1 / 32, t_max=64.0)
        hist = rw.solve(standard_data(), SolveConfig(grid=g, mode="homogeneous",
                                                     store_history=False))
        e = hist.diagnostics["energy_u"]
        assert abs(e[-1] - e[0]) <= 2e-3 * e[0]

    def test_finite_speed_diagnostic(self):
        g = grid(dr=1 / 16, t_max=8.0)
        hist = rw.solve(standard_data(), SolveConfig(grid=g, mode="homogeneous"))
        d = hist.diagnostics
        assert np.all(d["support_radius"] <= d["t"] + 2 + 2.5)

    def test_zero_data_stays_zero(self):
        g = grid()
        data = rw.calibrate(standard_data(), g, N=2, eps=0.0)
        hist = rw.solve(data, SolveConfig(grid=g, mode="semilinear"))
        assert np.all(hist.W_u.values == 0.0)
        assert np.all(hist.W_v.values == 0.0)


    def test_data_past_their_support_radius_are_refused(self):
        # bump data reach r = 2, past a support radius of 1: RK4 refuses them
        # at t = 0, as the characteristic solve does; bump vanishes at r = 2,
        # so the default data run
        g = grid(dr=1 / 16)
        narrow = InitialData(rw.bump, rw.zero_profile, rw.bump, rw.zero_profile,
                             support_radius=1.0)
        for mode in ("semilinear", "homogeneous"):
            with pytest.raises(ValueError, match="nonzero past their support radius 1"):
                rw.solve(narrow, SolveConfig(grid=g, mode=mode))
        assert rw.solve(standard_data(), SolveConfig(grid=g)).W_u.values.any()


class TestSemilinear:
    def test_small_data_stays_close_to_linear(self):
        g = grid(dr=1 / 16, t_max=8.0)
        data = rw.calibrate(standard_data(), g, N=2, eps=0.01)
        lin = rw.solve(data, SolveConfig(grid=g, mode="homogeneous"))
        non = rw.solve(data, SolveConfig(grid=g, mode="semilinear"))
        scale = np.max(np.abs(lin.W_u.values))
        diff = np.max(np.abs(non.W_u.values - lin.W_u.values))
        # the first correction is quadratic in the data size
        assert diff <= 10 * 0.01 * scale

    def test_finite_speed_margin_on_the_cli_grid(self):
        # solve's default CLI grid: the precursor stays at least 1 unit inside
        # the margin that solve's finite-speed check allows (1.53 measured)
        g = grid(dr=1 / 32, t_max=16.0)
        data = rw.calibrate(standard_data(), g, N=2, eps=0.01)
        d = rw.solve(data, SolveConfig(grid=g, store_history=False)).diagnostics
        margin = 0.5 * np.log2(2.0 + d["t"]) + 32 * g.dr
        assert np.all(d["support_radius"] <= d["t"] + 2 + margin - 1)

    def test_blow_up_detected(self):
        # large data: the semilinear solution stops being finite near t = 0.97
        g = grid(t_max=2.0)
        with pytest.raises(rw.BlowUpSuspected) as err:
            rw.solve(standard_data(amplitude=10.0), SolveConfig(grid=g, mode="semilinear"))
        assert 0.5 < err.value.t < 1.5

    def test_nan_forcing_is_blow_up(self):
        g = grid(t_max=2.0, cfl=1.0)
        f = rw.SpaceTimeField.from_function(g, lambda t, r: np.where(t > 1, np.nan, 0 * r))
        with pytest.raises(rw.BlowUpSuspected):
            rw.solve_linear_forced(standard_data(amplitude=0.0), f, f)

    @pytest.mark.parametrize("size", [1e-3, 1.0])
    def test_forced_solve_from_zero_data_completes(self, size):
        # the forcing alone builds a finite, nonzero solution from zero data
        g = grid(dr=1 / 16, t_max=8.0, cfl=1.0)
        f = rw.SpaceTimeField.from_function(
            g, lambda t, r: size * np.exp(-np.square(r - 1) - np.square(t - 1)))
        hist = rw.solve_linear_forced(standard_data(amplitude=0.0), f, f)
        for field in (hist.W_u, hist.W_v):
            assert np.all(np.isfinite(field.values))
            assert 0 < np.max(np.abs(field.values)) < 1e3 * size

    def test_cfl_refused(self):
        # RK4 refuses no cfl (it steps at dt = dr whatever the grid's); the
        # cfl still refused is a source off dt = dr, and a semilinear
        # history's fields, on the grid at cfl 1, never are that
        g = grid(t_max=2.0, cfl=0.5)
        hist = rw.solve(standard_data(amplitude=0.01), SolveConfig(grid=g))
        assert hist.grid.cfl == 1.0
        rw.solve_linear_forced(standard_data(), hist.W_u, hist.W_v)
        off = rw.SpaceTimeField.zeros(g)
        with pytest.raises(rw.CflError, match="dt = dr"):
            rw.solve_linear_forced(standard_data(), off, off)


LINEAR_FORCED_CASES = {
    # (grid, data, forcing scale): zero data driven by a source; a velocity,
    # which row 0 of dt W holds; and t_max an odd number of rows, 49 past row 0
    "forced zero data": (grid(dr=1 / 16, t_max=4.0, cfl=1.0), InitialData(amplitude=0.0), 1.0),
    "velocity data": (grid(dr=1 / 16, t_max=4.0, cfl=1.0),
                      InitialData(rw.zero_profile, poly_bump, rw.bump, poly_bump), 0.5),
    "t_max odd in rows": (grid(dr=1 / 16, t_max=49 / 16, cfl=1.0),
                          InitialData(poly_bump, poly_bump, rw.zero_profile, rw.bump), 0.25),
}


class TestLinearForced:
    @pytest.mark.parametrize("case", list(LINEAR_FORCED_CASES))
    def test_equals_the_four_array_oracle(self, case, tmp_path):
        # W and dt W equal the solve that stored all four arrays, in bytes:
        # whole, per block of rows (the first and last rows included), as
        # saved (W's files and dt W's edges file), and as loaded back
        g, data, scale = LINEAR_FORCED_CASES[case]
        fu, fv = (rw.SpaceTimeField.from_function(
            g, lambda t, r, c=c: scale * np.exp(-np.square(r - c) - np.square(t - 1)))
            for c in (1.0, 1.5))
        hist = rw.solve_linear_forced(data, fu, fv)
        ref = linear_forced_ref(data, fu, fv)
        assert ref[1].any() and ref[3].any()
        hist.save(tmp_path / "run")
        back = rw.SolutionHistory.load(tmp_path / "run")
        assert back.dtW_u.edges.shape == back.dtW_v.edges.shape == (2, g.nr)
        nt = g.nt
        assert (case == "t_max odd in rows") == (nt == 50)
        blocks = [slice(lo, hi) for lo, hi in grid_module._blocks(nt, 16)]
        blocks += [slice(0, 1), slice(1, 2), slice(nt - 2, nt - 1), slice(nt - 1, nt),
                   slice(1, nt - 1), slice(0, nt), slice(3, 3)]
        edges = np.load(tmp_path / "run" / "dtW_edges.npy")
        assert [x.tobytes() for x in edges] == [ref[i][[0, -1]].tobytes() for i in (1, 3)]
        for h in (hist, back):
            for i, name in enumerate(("W_u", "dtW_u", "W_v", "dtW_v")):
                assert getattr(h, name).values.tobytes() == ref[i].tobytes(), name
            for i, name in ((0, "W_u"), (2, "W_v")):
                saved = rw.SpaceTimeField.from_binary(tmp_path / "run" / f"{name}.bin")
                assert saved.values.tobytes() == ref[i].tobytes(), name
            for rows in blocks:
                got = (h.dtW_u.rect(rows), h.dtW_v.rect(rows))
                assert [x.tobytes() for x in got] == [ref[1][rows].tobytes(),
                                                     ref[3][rows].tobytes()], rows

    @pytest.mark.parametrize("dr", [1 / 8, 1 / 16])
    def test_free_wave_equals_dalembert(self, dr):
        # the characteristic step is exact for the free wave: rounding only
        g = grid(dr=dr, t_max=16.0, cfl=1.0)
        data = InitialData(poly_bump, rw.zero_profile, rw.bump, rw.zero_profile)
        z = rw.SpaceTimeField.zeros(g)
        hist = rw.solve_linear_forced(data, z, z)
        oracle = dalembert_history(data, g)
        for name in ("W_u", "W_v"):
            exact = getattr(oracle, name).values
            err = np.max(np.abs(getattr(hist, name).values - exact))
            assert err <= 1e-13 * np.max(np.abs(exact)), name

    @pytest.mark.parametrize("case", ["forced zero data", "velocity data"])
    def test_second_order_self_convergence(self, case):
        # the sup differences of W and dt W on the coarse points, dr = 1/16
        # against 1/32 and 1/32 against 1/64, give an observed order >= 1.9
        hists = []
        for dr in (1 / 16, 1 / 32, 1 / 64):
            g = grid(dr=dr, cfl=1.0)
            if case == "forced zero data":
                data = InitialData(amplitude=0.0)
                f = rw.SpaceTimeField.from_function(
                    g, lambda t, r: np.exp(-np.square(r) - np.square(t - 1)))
            else:
                data = InitialData(rw.zero_profile, poly_bump, rw.zero_profile, poly_bump)
                f = rw.SpaceTimeField.zeros(g)
            hists.append(rw.solve_linear_forced(data, f, f))
        for name in ("W_u", "dtW_u", "W_v", "dtW_v"):
            a, b, c = (getattr(h, name).values for h in hists)
            order = observed_order(np.max(np.abs(a - b[::2, ::2])),
                                   np.max(np.abs(b - c[::2, ::2])))
            assert order >= 1.9, (name, order)

    def test_sources_on_another_grid_refused(self):
        # the u and v sources on two grids of one shape, (65, 97), at dt = dr
        g = rw.GridSpec(dr=0.125, cfl=1.0, r_max=12.0, t_max=8.0)
        other = rw.SpaceTimeField.zeros(rw.GridSpec(dr=0.25, cfl=1.0, r_max=24.0, t_max=16.0))
        assert other.values.shape == g.shape()
        z = rw.SpaceTimeField.zeros(g)
        for forcing in ((z, other), (other, z)):
            with pytest.raises(ValueError, match="two grids"):
                rw.solve_linear_forced(standard_data(), *forcing)

    def test_into_of_another_grid_or_reach_refused(self):
        # the solve writes W over ``into`` only when it holds the solve's cones;
        # two of another grid, or of reach nr, are refused, not replaced
        g = rw.GridSpec(dr=0.125, cfl=1.0, r_max=12.0, t_max=8.0)
        other = rw.GridSpec(dr=0.125, cfl=1.0, r_max=14.0, t_max=8.0)
        z = solver._LightCone(g)
        fits = [solver._LightCone(g, "odd") for _ in range(2)]
        hist = rw.solve_linear_forced(standard_data(), z, z, into=fits)
        assert hist.W_u is fits[0] and hist.W_v is fits[1]
        for bad in (solver._LightCone(other, "odd"), solver._LightCone(g, "odd", g.nr)):
            for into in ((bad, fits[1]), (fits[0], bad)):
                with pytest.raises(ValueError, match="into must be two cones"):
                    rw.solve_linear_forced(standard_data(), z, z, into=into)

    def test_needs_dt_equal_to_dr(self):
        g = rw.GridSpec(dr=1 / 8, cfl=0.8, r_max=12.0, t_max=8.0)
        z = rw.SpaceTimeField.zeros(g)
        with pytest.raises(rw.CflError, match="dt = dr"):
            rw.solve_linear_forced(standard_data(), z, z)


class TestConfig:
    def test_forcing_mode_consistency(self):
        # forced solves are solve_linear_forced's own scheme, not a mode of solve
        g = grid()
        with pytest.raises(ValueError, match="unknown mode"):
            SolveConfig(grid=g, mode="linear_forced")

    def test_default_stride_gives_unit_history_ratio(self):
        # one RK4 step of dt = dr per history row of dt = dr
        g = grid(cfl=0.5)
        hg = SolveConfig(grid=g).grid
        assert hg.dt == hg.dr
        hist = rw.solve(standard_data(), SolveConfig(grid=g, store_history=False))
        t = hist.diagnostics["t"]
        assert len(t) - 1 == hg.nt - 1 == (g.nt - 1) // 2
        assert np.all(np.diff(t) == hg.dr)

    def test_bad_stride_rejected(self):
        # 33 steps at cfl 0.5 are 16.5 history rows: t_max is not a whole
        # number of dr, which the grid at cfl 1 refuses
        g = rw.GridSpec(dr=0.25, cfl=0.5, r_max=8.25, t_max=4.125)
        assert g.nt - 1 == 33
        with pytest.raises(ValueError, match="t_max must be an integer multiple of dt"):
            SolveConfig(grid=g)

    def test_history_on_the_given_grid_whatever_the_cfl(self):
        # RK4 steps at dt = dr whatever cfl the grid is given with: the
        # history and the diagnostics lie on the rows of the grid at dt = dr
        g = grid(t_max=2.0, cfl=1.0)
        data = rw.calibrate(standard_data(), g, N=2, eps=0.02)
        runs = [rw.solve(data, SolveConfig(grid=dataclasses.replace(g, cfl=cfl)))
                for cfl in (0.25, 0.5, 1.0)]
        for hist in runs:
            assert hist.grid == g
            for name in ("W_u", "dtW_u", "W_v", "dtW_v"):
                assert (getattr(hist, name).values.tobytes()
                        == getattr(runs[0], name).values.tobytes()), name
            assert hist.diagnostics.keys() == runs[0].diagnostics.keys()
            for key, vals in hist.diagnostics.items():
                assert vals.tobytes() == runs[0].diagnostics[key].tobytes(), key
        assert runs[0].diagnostics["t"].tobytes() == g.t.tobytes()
        assert len(runs[0].diagnostics["t"]) == g.nt

    def test_history_roundtrip(self, tmp_path):
        g = grid(t_max=2.0)
        hist = rw.solve(standard_data(), SolveConfig(grid=g, mode="homogeneous"))
        hist.save(tmp_path / "run")
        back = rw.SolutionHistory.load(tmp_path / "run")
        np.testing.assert_array_equal(back.W_u.values, hist.W_u.values)
        np.testing.assert_array_equal(back.dtW_v.values, hist.dtW_v.values)
        np.testing.assert_allclose(back.diagnostics["energy_u"],
                                   hist.diagnostics["energy_u"])

    def test_solve_history_holds_w_and_the_edge_rows(self):
        # two grid arrays of W and O(nr) edge rows: 2.12 grid arrays traced at
        # dr 1/32, T 16 (4.11 with dt W stored on every row)
        g = grid(dr=1 / 32, t_max=16.0, cfl=1.0)
        data = rw.calibrate(standard_data(), g, N=2, eps=0.01)
        tracemalloc.start()
        try:
            hist = rw.solve(data, SolveConfig(grid=g))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hist.dtW_u.edges.shape == (2, g.nr)
        assert peak <= 2.5 * g.nt * g.nr * 8, peak / (g.nt * g.nr * 8)

    def test_load_refuses_the_four_file_form(self, tmp_path):
        # a history saved with dt W's two whole field files and no edges file
        # is refused by the name of the edges file it lacks
        hist = rw.solve(standard_data(), SolveConfig(grid=grid(t_max=2.0)))
        hist.save(tmp_path / "run")
        for f in "uv":
            grid_module._write_field(tmp_path / "run" / f"dtW_{f}.bin", getattr(hist, f"dtW_{f}"))
        (tmp_path / "run" / "dtW_edges.npy").unlink()
        with pytest.raises(OSError, match="dtW_edges.npy"):
            rw.SolutionHistory.load(tmp_path / "run")

    @pytest.mark.parametrize("mode", ["homogeneous", "semilinear", "linear_forced"])
    def test_history_roundtrip_keeps_mode(self, tmp_path, mode):
        if mode == "linear_forced":
            f = rw.SpaceTimeField.from_function(
                grid(t_max=2.0, cfl=1.0), lambda t, r: 1e-3 * np.exp(-r * r) + 0 * t)
            hist = rw.solve_linear_forced(standard_data(), f, f)
        else:
            hist = rw.solve(standard_data(), SolveConfig(grid=grid(t_max=2.0), mode=mode))
        hist.save(tmp_path / "run")
        back = rw.SolutionHistory.load(tmp_path / "run")
        assert back.mode == mode
        assert back.grid == hist.grid
        for name in ("W_u", "dtW_u", "W_v", "dtW_v"):
            np.testing.assert_array_equal(getattr(back, name).values,
                                          getattr(hist, name).values)
        assert back.diagnostics.keys() == hist.diagnostics.keys()
        for key, vals in hist.diagnostics.items():
            np.testing.assert_array_equal(back.diagnostics[key], vals)

    def test_history_roundtrip_keeps_an_inexact_grid(self, tmp_path):
        # at dr = 1/49, J dr and (nt - 1) dt read 7.999999999999999 and
        # 3.9999999999999996; the field header holds the grid's own values
        g = rw.GridSpec(dr=1 / 49, cfl=1.0, r_max=8.0, t_max=4.0)
        z = rw.SpaceTimeField.zeros(g)
        hist = rw.solve_linear_forced(standard_data(), z, z)
        hist.save(tmp_path / "run")
        assert rw.SpaceTimeField.from_binary(tmp_path / "run" / "W_u.bin").grid == g
        back = rw.SolutionHistory.load(tmp_path / "run")
        assert back.grid == hist.grid == g
        for name in ("W_u", "dtW_u", "W_v", "dtW_v"):
            assert getattr(back, name).grid == g
            np.testing.assert_array_equal(getattr(back, name).values,
                                          getattr(hist, name).values)

    @pytest.mark.parametrize("other", [dict(dr=0.25, cfl=0.5, r_max=24.0),
                                       dict(cfl=0.5, t_max=2.0), dict(t_max=2.0),
                                       dict(t_max=8.0)],
                             ids=["dr", "dt", "shape", "longer"])
    def test_load_refuses_a_field_off_the_manifest_grid(self, tmp_path, monkeypatch, other):
        # each other grid differs from the manifest's in dr, dt or shape alone
        # (fewer rows, or more); the file is refused by its path from its
        # header, before a row is read
        g = rw.GridSpec(dr=0.125, cfl=1.0, r_max=12.0, t_max=4.0)
        z = rw.SpaceTimeField.zeros(g)
        rw.solve_linear_forced(standard_data(), z, z).save(tmp_path / "run")
        path = tmp_path / "run" / "W_v.bin"
        rw.SpaceTimeField.zeros(dataclasses.replace(g, **other), "odd").to_binary(path)
        message = re.escape(f"{path}: the header's grid ") + ".* is not the manifest's"
        with pytest.raises(ValueError, match=message):
            rw.SolutionHistory.load(tmp_path / "run")

        def no_read(*args, **kwargs):
            raise AssertionError("a row was read")

        monkeypatch.setattr(grid_module.np, "fromfile", no_read)
        with pytest.raises(ValueError, match=message):
            grid_module._read_field(path, g)

    def test_load_refuses_edges_off_the_manifest_grid(self, tmp_path):
        # the dt W edges file holds the (field, first | last row, column)
        # doubles of the manifest's grid; another shape or type is refused
        g = rw.GridSpec(dr=0.125, cfl=1.0, r_max=12.0, t_max=4.0)
        z = rw.SpaceTimeField.zeros(g)
        rw.solve_linear_forced(standard_data(), z, z).save(tmp_path / "run")
        path = tmp_path / "run" / "dtW_edges.npy"
        for bad in (np.zeros((2, 2, g.nr - 1)), np.zeros((2, 2, g.nr), dtype=np.float32)):
            np.save(path, bad)
            with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
                rw.SolutionHistory.load(tmp_path / "run")

    def test_loaded_linear_forced_config_cannot_rerun(self, tmp_path):
        # a history names its solve; no forcing is saved, and solve refuses the name
        f = rw.SpaceTimeField.zeros(grid(t_max=2.0, cfl=1.0))
        rw.solve_linear_forced(standard_data(), f, f).save(tmp_path / "r")
        back = rw.SolutionHistory.load(tmp_path / "r")
        assert back.mode == "linear_forced"
        with pytest.raises(ValueError, match="unknown mode"):
            SolveConfig(grid=back.grid, mode=back.mode)

    def test_diagnostics_only_mode(self):
        g = grid(t_max=2.0)
        hist = rw.solve(standard_data(), SolveConfig(grid=g, mode="homogeneous",
                                                     store_history=False))
        assert np.all(hist.W_u.values == 0)
        assert hist.diagnostics["t"].tobytes() == hist.grid.t.tobytes()
        assert len(hist.diagnostics["t"]) == hist.grid.nt

    def test_diagnostics_only_history_is_not_saved(self, tmp_path):
        # its W and edge rows are read-only zeros, not the solution: saved, they
        # would load back as a valid semilinear history with the real diagnostics
        hist = rw.solve(standard_data(), SolveConfig(grid=grid(t_max=2.0), store_history=False))
        with pytest.raises(ValueError, match="diagnostics only"):
            hist.save(tmp_path / "run")
        assert not (tmp_path / "run").exists()

    def test_diagnostics_only_mode_holds_no_grid_array(self):
        # W and dt W's edge rows of a run without history are read-only zeros
        # of stride 0: decay_run's traced peak is its O(nr) workspace, 0.075
        # grid arrays here (1.08 with a zero array of the grid's size)
        g = rw.GridSpec(dr=1 / 8, cfl=1.0, r_max=100.0, t_max=96.0)
        tracemalloc.start()
        try:
            diags = rw.decay_run(g, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(diags["t"]) == g.nt
        assert peak < 0.1 * g.nt * g.nr * 8
        hist = rw.solve(standard_data(), SolveConfig(grid=grid(), store_history=False))
        assert hist.W_u.values.shape == hist.grid.shape() and not hist.dtW_v.values.any()
        with pytest.raises(ValueError, match="read-only"):
            hist.W_u.values[1, 1] = 1.0
        # and dt W's edge rows are a read-only zero of stride 0 too
        for f in (hist.dtW_u, hist.dtW_v):
            assert f.edges.shape == (2, hist.grid.nr) and f.edges.strides == (0, 0)
            assert not f.edges.any()
            with pytest.raises(ValueError, match="read-only"):
                f.edges[1, 1] = 1.0


class TestDeterminism:
    def test_solve_is_byte_reproducible(self):
        g = grid(t_max=2.0)
        data = rw.calibrate(standard_data(), g, N=2, eps=0.02)
        a = rw.solve(data, SolveConfig(grid=g, mode="semilinear"))
        b = rw.solve(data, SolveConfig(grid=g, mode="semilinear"))
        assert a.W_u.values.tobytes() == b.W_u.values.tobytes()
        assert a.W_v.values.tobytes() == b.W_v.values.tobytes()

    def test_config_hash_stable(self):
        h1 = rw.config_hash({"a": 1.0, "b": [1, 2]})
        h2 = rw.config_hash({"b": [1, 2], "a": 1.0})
        assert h1 == h2
        assert h1 != rw.config_hash({"a": 1.0, "b": [1, 3]})


def test_nonlinearity_tags():
    a = np.ones((2, 2))
    np.testing.assert_array_equal(rw.nonlinearity(a, a, a, a, "v-eq"), a * a)
    np.testing.assert_allclose(rw.nonlinearity(a, 0 * a, a, 0 * a, "u-eq"), a)
    with pytest.raises(ValueError):
        rw.nonlinearity(a, a, a, a, "w-eq")


# ----------------------------------------------------------------------
# the active window against the full-width loop it replaced
# ----------------------------------------------------------------------

def _ref_radial_deriv(vals, dr):
    out = np.empty_like(vals)
    out[1:-1] = (vals[2:] - vals[:-2]) / (2 * dr)
    out[0] = vals[1] / dr
    out[-1] = (3 * vals[-1] - 4 * vals[-2] + vals[-3]) / (2 * dr)
    return out


def _ref_quotient(vals, r):
    q = np.empty_like(vals)
    q[1:] = vals[1:] / r[1:]
    q[0] = 3 * q[1] - 3 * q[2] + q[3]
    return q


def _ref_d2r_odd(vals, dr):
    out = np.empty_like(vals)
    out[1:-1] = (vals[2:] - 2 * vals[1:-1] + vals[:-2]) / (dr * dr)
    out[0] = -2 * vals[0] / (dr * dr)
    out[-1] = (2 * vals[-1] - 5 * vals[-2] + 4 * vals[-3] - vals[-4]) / (dr * dr)
    return out


def _reference_solve(data, config):
    """The full-width RK4 loop: every stage, step and diagnostic over all nr
    columns, with fresh arrays throughout (test oracle only)."""
    grid = config.grid
    r, dr = grid.r, grid.dr
    dt = dr  # one step per history row
    nsteps = grid.nt - 1
    semilinear = config.mode == "semilinear"
    amp = data.amplitude
    state = np.stack([r * amp * np.asarray(fn(r), dtype=float)
                      for fn in (data.u0, data.u1, data.v0, data.v1)])

    def rhs(y):
        Wu, Pu, Wv, Pv = y
        out = np.empty_like(y)
        out[0] = Pu
        out[2] = Pv
        out[1] = _ref_d2r_odd(Wu, dr)
        out[3] = _ref_d2r_odd(Wv, dr)
        if semilinear:
            u = _ref_quotient(Wu, r)
            v = _ref_quotient(Wv, r)
            dtu = _ref_quotient(Pu, r)
            dtv = _ref_quotient(Pv, r)
            dru = _ref_quotient(_ref_radial_deriv(Wu, dr) - u, r)
            drv = _ref_quotient(_ref_radial_deriv(Wv, dr) - v, r)
            out[1] += r * ((dtu + dru) * dtv - dru * (dtv + drv))
            out[3] += r * (dtu * dtv)
        return out

    def energy(P, W):
        w = np.full(W.size, dr)
        w[0] = w[-1] = dr / 2
        return float(np.sum((np.square(P) + np.square(_ref_radial_deriv(W, dr))) * w))

    frames = np.zeros((4, grid.nt, grid.nr))
    frames[:, 0] = state
    diags = {k: np.zeros(nsteps + 1) for k in
             ("t", "energy_u", "energy_v", "sup_u", "sup_v", "support_radius")}
    scale = max(np.max(np.abs(state)), 1e-300)

    def record(n, t, y):
        diags["t"][n] = t
        diags["energy_u"][n] = energy(y[1], y[0])
        diags["energy_v"][n] = energy(y[3], y[2])
        diags["sup_u"][n] = np.max(np.abs(_ref_quotient(y[0], r)))
        diags["sup_v"][n] = np.max(np.abs(_ref_quotient(y[2], r)))
        idx = np.nonzero(np.max(np.abs(y), axis=0) > 1e-6 * scale)[0]
        diags["support_radius"][n] = float(r[idx[-1]]) if idx.size else 0.0

    record(0, 0.0, state)
    for n in range(nsteps):
        k1 = rhs(state)
        k2 = rhs(state + (dt / 2) * k1)
        k3 = rhs(state + (dt / 2) * k2)
        k4 = rhs(state + dt * k3)
        state = state + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        record(n + 1, (n + 1) * dt, state)
        frames[:, n + 1] = state
    return frames, diags


WINDOW_GRIDS = {
    "reaches r_max": grid(dr=1 / 16, t_max=6.0),  # every column from step 64 of 96
    "zero data": grid(dr=1 / 16, t_max=6.0),
    "t_max odd in dr": grid(dr=1 / 16, t_max=49 / 16),  # 49 history rows past row 0
    "never reaches r_max": rw.GridSpec(dr=1 / 16, cfl=0.5, r_max=16.0, t_max=3.0),
}


@pytest.mark.parametrize("mode", ["semilinear", "homogeneous"])
@pytest.mark.parametrize("case", list(WINDOW_GRIDS))
def test_window_equals_full_width_loop(mode, case):
    g = WINDOW_GRIDS[case]
    data = rw.calibrate(standard_data(), g, N=2, eps=0.0 if case == "zero data" else 0.02)
    cfg = SolveConfig(grid=g, mode=mode)
    hist = rw.solve(data, cfg)
    frames, diags = _reference_solve(data, cfg)
    # W on every row and dt W's edge rows are the loop's; dt W's other rows
    # are the centred difference of W (dr 1/16: a power of two, so the
    # history's multiplication by 1 / 2dr is this division, bit for bit)
    for f, W, P in zip("uv", frames[0::2], frames[1::2]):
        assert getattr(hist, f"W_{f}").values.tobytes() == W.tobytes(), f
        dt = getattr(hist, f"dtW_{f}").values
        assert dt[[0, -1]].tobytes() == P[[0, -1]].tobytes(), f
        assert dt[1:-1].tobytes() == ((W[2:] - W[:-2]) / (2 * hist.grid.dt)).tobytes(), f
    assert set(hist.diagnostics) == set(diags)
    for name, ref in diags.items():
        assert hist.diagnostics[name].tobytes() == ref.tobytes(), name
    last = [np.flatnonzero(np.any(frames[:, n] != 0, axis=0))[-1]
            for n in range(frames.shape[1])] if np.any(frames) else []
    if case == "reaches r_max":
        # the window starts narrow and the last column is reached before t_max:
        # the exact zeros recede 2 columns per step, so by row 64 of 96
        assert last[0] + 1 + rw.solver.GUARD < g.nr
        assert last[3 * (frames.shape[1] - 1) // 4] == g.nr - 1
    if case == "zero data":
        assert not np.any(frames)
    if case == "t_max odd in dr":
        assert hist.grid.nt == frames.shape[1] == 50
        assert len(diags["t"]) == 50
    if case == "never reaches r_max":
        assert max(last) + 1 + rw.solver.GUARD < g.nr


def test_history_dt_w_converges_to_the_loop_state():
    # dt W's rows between the edges are the centred difference of W, within
    # O(dr^2) of RK4's own dt W: the sup gap to the loop's P, over the sup of
    # P, at dr 1/16, 1/32 and 1/64 (8.8e-3, 2.2e-3, 5.6e-4) gives an observed
    # order >= 1.9 for poly_bump data (bump's is 1.57 at dr 1/16, not yet
    # asymptotic: its derivatives are steep near r = 2)
    gaps = []
    for dr in (1 / 16, 1 / 32, 1 / 64):
        g = grid(dr=dr, t_max=4.0, cfl=1.0)
        cfg = SolveConfig(grid=g)
        data = rw.calibrate(InitialData(poly_bump, rw.zero_profile, poly_bump, rw.zero_profile),
                            g, N=2, eps=0.02)
        hist = rw.solve(data, cfg)
        frames, _ = _reference_solve(data, cfg)
        P = frames[1::2]
        dt = np.stack([hist.dtW_u.values, hist.dtW_v.values])
        gaps.append(np.max(np.abs(dt - P)) / np.max(np.abs(P)))
    for coarse, fine in zip(gaps, gaps[1:]):
        assert observed_order(coarse, fine) >= 1.9, gaps
