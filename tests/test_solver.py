import numpy as np
import pytest

import radialwave as rw
from radialwave.solver import (
    InitialData, SolveConfig, dalembert_history, poly_bump, smallness_sum,
)


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

    def test_calibration_hits_eps_exactly(self):
        g = grid()
        data = rw.calibrate(standard_data(), g, N=2, eps=0.01)
        np.testing.assert_allclose(smallness_sum(data, g, 2), 0.01, rtol=1e-12)

    @pytest.mark.parametrize("eps", [float("nan"), float("inf"), -0.01])
    def test_calibration_rejects_bad_eps(self, eps):
        with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
            rw.calibrate(standard_data(), grid(), N=2, eps=eps)

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

    def test_blow_up_detected(self):
        # large data: the semilinear solution stops being finite near t = 0.97
        g = grid(t_max=2.0)
        with pytest.raises(rw.BlowUpSuspected) as err:
            rw.solve(standard_data(amplitude=10.0), SolveConfig(grid=g, mode="semilinear"))
        assert 0.5 < err.value.t < 1.5

    def test_nan_forcing_is_blow_up(self):
        g = grid(t_max=2.0)
        hg = SolveConfig(grid=g).history_grid
        f = rw.SpaceTimeField.from_function(hg, lambda t, r: np.where(t > 1, np.nan, 0 * r))
        with pytest.raises(rw.BlowUpSuspected):
            rw.solve_linear_forced(standard_data(amplitude=0.0), f, f, SolveConfig(grid=g))

    @pytest.mark.parametrize("size", [1e-3, 1.0])
    def test_forced_solve_from_zero_data_completes(self, size):
        # the blow-up cap counts the forcing, not only the (zero) initial state
        g = grid(dr=1 / 16, t_max=8.0)
        hg = SolveConfig(grid=g).history_grid
        f = rw.SpaceTimeField.from_function(
            hg, lambda t, r: size * np.exp(-np.square(r - 1) - np.square(t - 1)))
        hist = rw.solve_linear_forced(standard_data(amplitude=0.0), f, f, SolveConfig(grid=g))
        for field in (hist.W_u, hist.W_v):
            assert np.all(np.isfinite(field.values))
            assert 0 < np.max(np.abs(field.values)) < 1e3 * size

    def test_cfl_refused(self):
        g = grid(cfl=1.0)
        with pytest.raises(rw.CflError):
            rw.solve(standard_data(), SolveConfig(grid=g))


class TestConfig:
    def test_forcing_mode_consistency(self):
        g = grid()
        with pytest.raises(ValueError):
            SolveConfig(grid=g, mode="linear_forced")  # missing forcing

    def test_default_stride_gives_unit_history_ratio(self):
        g = grid(cfl=0.5)
        cfg = SolveConfig(grid=g)
        assert cfg.record_stride == 2
        hg = cfg.history_grid
        np.testing.assert_allclose(hg.dt, hg.dr)

    def test_bad_stride_rejected(self):
        g = grid(cfl=0.5, t_max=4.0)
        with pytest.raises(ValueError):
            SolveConfig(grid=g, record_stride=7)

    def test_history_roundtrip(self, tmp_path):
        g = grid(t_max=2.0)
        hist = rw.solve(standard_data(), SolveConfig(grid=g, mode="homogeneous"))
        hist.save(tmp_path / "run")
        back = rw.SolutionHistory.load(tmp_path / "run")
        np.testing.assert_array_equal(back.W_u.values, hist.W_u.values)
        np.testing.assert_array_equal(back.dtW_v.values, hist.dtW_v.values)
        np.testing.assert_allclose(back.diagnostics["energy_u"],
                                   hist.diagnostics["energy_u"])

    @pytest.mark.parametrize("mode", ["homogeneous", "semilinear", "linear_forced"])
    def test_history_roundtrip_keeps_mode(self, tmp_path, mode):
        g = grid(t_max=2.0)
        if mode == "linear_forced":
            f = rw.SpaceTimeField.from_function(
                SolveConfig(grid=g).history_grid, lambda t, r: 1e-3 * np.exp(-r * r) + 0 * t)
            hist = rw.solve_linear_forced(standard_data(), f, f, SolveConfig(grid=g))
        else:
            hist = rw.solve(standard_data(), SolveConfig(grid=g, mode=mode))
        hist.save(tmp_path / "run")
        back = rw.SolutionHistory.load(tmp_path / "run")
        assert back.config.mode == mode
        assert back.config.grid == hist.grid
        for name in ("W_u", "dtW_u", "W_v", "dtW_v"):
            np.testing.assert_array_equal(getattr(back, name).values,
                                          getattr(hist, name).values)
        assert back.diagnostics.keys() == hist.diagnostics.keys()
        for key, vals in hist.diagnostics.items():
            np.testing.assert_array_equal(back.diagnostics[key], vals)

    def test_loaded_linear_forced_config_cannot_rerun(self, tmp_path):
        g = grid(t_max=2.0)  # stride 1 keeps cfl 0.5, so only the forcing is missing
        f = rw.SpaceTimeField.from_function(g, lambda t, r: 0 * t * r)
        rw.solve_linear_forced(standard_data(), f, f,
                               SolveConfig(grid=g, record_stride=1)).save(tmp_path / "r")
        back = rw.SolutionHistory.load(tmp_path / "r")
        with pytest.raises(ValueError, match="needs forcing"):
            rw.solve(standard_data(), back.config)

    def test_diagnostics_only_mode(self):
        g = grid(t_max=2.0)
        hist = rw.solve(standard_data(), SolveConfig(grid=g, mode="homogeneous",
                                                     store_history=False))
        assert np.all(hist.W_u.values == 0)
        assert len(hist.diagnostics["t"]) == g.nt


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


def _ref_at(values, dt_f, t):
    x = min(max(t / dt_f, 0.0), values.shape[0] - 1.0)
    n = min(int(x), values.shape[0] - 2)
    w = x - n
    return (1.0 - w) * values[n] + w * values[n + 1]


def _reference_solve(data, config):
    """The full-width RK4 loop: every stage, step and diagnostic over all nr
    columns, with fresh arrays throughout (test oracle only)."""
    grid = config.grid
    r, dr, dt = grid.r, grid.dr, grid.dt
    nsteps = grid.nt - 1
    semilinear = config.mode == "semilinear"
    forced = config.mode == "linear_forced"
    if forced:
        fu, fv = config.forcing
        dt_f = fu.grid.dt
    amp = data.amplitude
    state = np.stack([r * amp * np.asarray(fn(r), dtype=float)
                      for fn in (data.u0, data.u1, data.v0, data.v1)])

    def rhs(t, y):
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
        elif forced:
            out[1] += r * _ref_at(fu.values, dt_f, t)
            out[3] += r * _ref_at(fv.values, dt_f, t)
        return out

    def energy(P, W):
        w = np.full(W.size, dr)
        w[0] = w[-1] = dr / 2
        return float(np.sum((np.square(P) + np.square(_ref_radial_deriv(W, dr))) * w))

    stride = config.record_stride
    frames = np.zeros((4, config.history_grid.nt, grid.nr))
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
        t = n * dt
        k1 = rhs(t, state)
        k2 = rhs(t + dt / 2, state + (dt / 2) * k1)
        k3 = rhs(t + dt / 2, state + (dt / 2) * k2)
        k4 = rhs(t + dt, state + dt * k3)
        state = state + (dt / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        record(n + 1, (n + 1) * dt, state)
        if (n + 1) % stride == 0:
            frames[:, (n + 1) // stride] = state
    return frames, diags


def _window_case(case):
    """(data, grid, forcing) for one window equality case; the forcing is used
    in linear_forced mode only."""
    g = grid(dr=1 / 16, t_max=6.0)  # the window spans every column from step ~60 of 192
    data = rw.calibrate(standard_data(), g, N=2, eps=0.0 if case == "zero data" else 0.02)
    if case == "forcing ahead of the data":
        # a source pulse running out ahead of the solution's nonzero columns
        hg = SolveConfig(grid=g).history_grid
        f = rw.SpaceTimeField.from_function(hg, lambda t, r: 1e-3 * rw.bump(r - 4 - t))
        return data, g, (f, f)
    hist = rw.solve(data, SolveConfig(grid=g, mode="homogeneous"))
    if case == "picard 2 iterates":
        hist = rw.solve_linear_forced(data, *rw.picard._forcing_from(hist),
                                      SolveConfig(grid=g))
    return data, g, rw.picard._forcing_from(hist)


WINDOW_CASES = ["reaches r_max", "zero data", "picard 2 iterates", "forcing ahead of the data"]


@pytest.mark.parametrize("mode", ["semilinear", "homogeneous", "linear_forced"])
@pytest.mark.parametrize("case", WINDOW_CASES)
def test_window_equals_full_width_loop(mode, case):
    data, g, forcing = _window_case(case)
    cfg = SolveConfig(grid=g, mode=mode, forcing=forcing if mode == "linear_forced" else None,
                      check_support=mode != "linear_forced")
    hist = rw.solve(data, cfg)
    frames, diags = _reference_solve(data, cfg)
    for i, name in enumerate(("W_u", "dtW_u", "W_v", "dtW_v")):
        assert np.array_equal(getattr(hist, name).values, frames[i]), name
    assert set(hist.diagnostics) == set(diags)
    for name, ref in diags.items():
        assert hist.diagnostics[name].tobytes() == ref.tobytes(), name
    if case == "reaches r_max" and mode != "linear_forced":
        # the window starts narrow and the last column is reached before t_max
        last = [np.flatnonzero(np.any(frames[:, n] != 0, axis=0))[-1]
                for n in range(frames.shape[1])]
        assert last[0] + 1 + rw.solver.GUARD < g.nr
        assert last[frames.shape[1] // 2] == g.nr - 1
    if case == "zero data":
        assert not np.any(frames)
