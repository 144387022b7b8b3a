import copy
import itertools
import json
import os
import shutil
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import radialwave as rw
from radialwave import cli, grid as grid_module, norms, picard, solver
from radialwave.picard import IterationRecord, PicardConfig
from solver_oracles import (add_into_ref, dalembert_history, linear_forced_ref,
                            source_difference_ref)


class _Interrupt(Exception):
    pass


def _values(rec):
    """A record without its wall time."""
    return (rec.k, rec.m_total, rec.a_total, rec.contraction_ratio, rec.m_slots, rec.a_slots)


def small_config(**kw):
    g = rw.GridSpec(dr=1 / 16, cfl=0.5, r_max=20, t_max=16)
    defaults = dict(grid=g, eps=0.02, kmax=3)
    defaults.update(kw)
    return PicardConfig(**defaults)


class TestIteration:
    def test_records_and_contraction(self):
        records = picard.run_iteration(small_config())
        assert [r.k for r in records] == [1, 2, 3]
        assert records[0].contraction_ratio is None
        # the second difference is a quadratically small correction
        assert records[1].contraction_ratio < 0.5
        assert records[2].a_total < records[1].a_total

    def test_first_iterate_is_linear(self):
        # u_1 is the free wave: M_1 is M of the closed-form history
        cfg = small_config(kmax=1)
        records = picard.run_iteration(cfg)
        data = rw.calibrate(cfg.data, cfg.grid, cfg.N, cfg.eps)
        lin = dalembert_history(data, cfg.grid)
        m = rw.m_functional(lin.u(), lin.v(), cfg.p, cfg.delta, cfg.N)
        np.testing.assert_allclose(records[0].m_total, m.total, rtol=1e-12)

    def test_first_iterate_shares_one_pass_for_m_and_a(self, monkeypatch):
        # A_1 is A of (u_1, v_1) itself, read off M_1's pass: equal to fresh calls
        cfg = small_config(kmax=1)
        monkeypatch.setattr(picard, "m_functional", None)
        monkeypatch.setattr(picard, "a_functional", None)
        rec, = picard.run_iteration(cfg)
        data = rw.calibrate(cfg.data, cfg.grid, cfg.N, cfg.eps)
        zero = rw.SpaceTimeField.zeros(cfg.grid)
        lin = rw.solve_linear_forced(data, zero, zero)
        m = rw.m_functional(lin.u(), lin.v(), cfg.p, cfg.delta, cfg.N)
        a = rw.a_functional(lin.u(), lin.v(), cfg.p, cfg.delta, cfg.N)
        assert (rec.m_total, rec.m_slots) == (m.total, m.slots)
        assert (rec.a_total, rec.a_slots) == (a.total, a.slots)

    def test_persistence_and_resume(self, tmp_path, monkeypatch):
        # interrupt a kmax-3 run at each step of saving iterate 2, rerun the
        # same configuration, and get exactly the fresh run's records
        fresh = [_values(r) for r in picard.run_iteration(small_config())]
        save, replace, rmtree = rw.SolutionHistory.save, os.replace, shutil.rmtree

        def after_save(last):
            # each iterate saves u_k, then delta_k: saves 3 and 4 are iterate 2's
            saved = []

            def interrupt(hist, path):
                save(hist, path)
                saved.append(str(path))
                if len(saved) == last:
                    assert saved[-1].endswith("_k2" if last == 3 else "delta")
                    raise _Interrupt
            return interrupt

        def at_records_commit(src, dst):
            if dst.endswith("_records.json") and json.loads(Path(src).read_text())["k"] == 2:
                raise _Interrupt
            replace(src, dst)

        def at_history_removal(path, *args, **kwargs):
            if path.endswith("_k1"):
                raise _Interrupt
            rmtree(path, *args, **kwargs)

        stages = ((rw.SolutionHistory, "save", after_save(3)),
                  (rw.SolutionHistory, "save", after_save(4)),
                  (os, "replace", at_records_commit), (shutil, "rmtree", at_history_removal))
        for i, (owner, name, interrupt) in enumerate(stages):
            out = str(tmp_path / str(i))
            with monkeypatch.context() as m:
                m.setattr(owner, name, interrupt)
                with pytest.raises(_Interrupt):
                    picard.run_iteration(small_config(outdir=out))
            resumed = picard.run_iteration(small_config(outdir=out))
            assert [_values(r) for r in resumed] == fresh, name
            tag = rw.config_hash(small_config().descriptor())
            assert sorted(os.listdir(out)) == [f"picard_{tag}_k3", f"picard_{tag}_records.json"]
            # a completed run reruns from its records alone
            assert [_values(r) for r in picard.run_iteration(small_config(outdir=out))] == fresh

    def test_mismatched_state_is_refused(self, tmp_path):
        out = str(tmp_path)
        cfg = small_config(kmax=2, outdir=out)
        picard.run_iteration(cfg)
        rec_path = Path(picard._state_paths(cfg, rw.config_hash(cfg.descriptor()))[0])
        blob = json.loads(rec_path.read_text())
        blob["records"] = blob["records"][:1]  # records of k = 1 beside the history of k = 2
        rec_path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="do not match"):
            picard.run_iteration(cfg)
        del blob["k"]  # the state layout without k, whose history may be any iterate's
        rec_path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="do not match"):
            picard.run_iteration(cfg)

    def test_source_is_the_difference_of_the_nonlinearities(self, monkeypatch):
        # G_k = F(u_(k-1)) - F(u_(k-2)), F the sources of the frames of an
        # iterate, up to rounding: within 1e-13 of max|F(u_(k-1))|.  The driver
        # adds delta_k into u_(k-1)'s arrays in place, so each solve is
        # recorded as a copy and u_2 = u_1 + delta_2 is summed here, dt W as
        # the sum of the two solves' (``add_into_ref``); the sources are taken
        # before the solve, which writes delta_k over delta_(k-1)
        calls = []
        solve = picard.solve_linear_forced

        def recording(data, fu, fv, **kw):
            G = fu.values, fv.values
            hist = solve(data, fu, fv, **kw)
            calls.append((*G, copy.deepcopy(hist)))
            return hist

        monkeypatch.setattr(picard, "solve_linear_forced", recording)
        picard.run_iteration(small_config())

        def sources(hist):
            frames = picard._derivative_frames(hist)
            return [rw.nonlinearity(*frames, which) for which in ("u-eq", "v-eq")]

        u1, d2 = calls[0][2], calls[1][2]
        u2 = copy.deepcopy(u1)
        add_into_ref(u2, d2)
        for (gu, gv, _), new, old in ((calls[1], sources(u1), [0, 0]),
                                      (calls[2], sources(u2), sources(u1))):
            for g, f_new, f_old in zip((gu, gv), new, old):
                err = np.max(np.abs(g - (f_new - f_old)))
                assert err <= 1e-13 * np.max(np.abs(f_new))

    def test_in_place_sum_equals_the_sum_of_the_solves(self, tmp_path, monkeypatch):
        # u_2 as saved: its W and the first and last rows of its dt W (the
        # edges file) are u_1 + delta_2 of the two solves in bytes, and its
        # other dt W rows, as loaded, are (W[n+1] - W[n-1]) / 2h of the
        # summed W, in bytes
        solves, solve = [], picard.solve_linear_forced

        def recording(*args, **kw):  # a copy, as the driver sums into u_1's arrays
            hist = solve(*args, **kw)
            solves.append(copy.deepcopy(hist))
            return hist

        monkeypatch.setattr(picard, "solve_linear_forced", recording)
        cfg = small_config(kmax=2, outdir=str(tmp_path))
        picard.run_iteration(cfg)
        u1, d2 = solves
        saved = Path(picard._state_paths(cfg, rw.config_hash(cfg.descriptor()))[1] + "2")
        back = rw.SolutionHistory.load(saved)
        for i, f in enumerate(("u", "v")):
            W = getattr(u1, f"W_{f}").values + getattr(d2, f"W_{f}").values
            edges = sum(getattr(h, f"dtW_{f}").values[[0, -1]] for h in (u1, d2))
            dt = getattr(back, f"dtW_{f}").values
            assert rw.SpaceTimeField.from_binary(saved / f"W_{f}.bin").values.tobytes() \
                == W.tobytes(), f
            assert np.load(saved / "dtW_edges.npy")[i].tobytes() == edges.tobytes(), f
            assert dt[1:-1].tobytes() == ((W[2:] - W[:-2]) / (2 * cfg.grid.dt)).tobytes(), f

    def test_records_equal_the_summed_dt_w_oracle(self, monkeypatch):
        # u_k's dt W as the difference of its summed W, against the running
        # sum of the solves' dt W (``add_into_ref``): the two round otherwise
        # from k = 3 on, so every M and M slot is equal in float.hex and every
        # A within 1e-12 relative
        cfg = small_config(kmax=4)
        records = picard.run_iteration(cfg)
        monkeypatch.setattr(picard, "_add_into", add_into_ref)
        ref = picard.run_iteration(cfg)
        assert [r.k for r in records] == [r.k for r in ref] == [1, 2, 3, 4]
        for a, b in zip(records, ref):
            assert a.m_total.hex() == b.m_total.hex(), a.k
            assert {k: x.hex() for k, x in a.m_slots.items()} \
                == {k: x.hex() for k, x in b.m_slots.items()}, a.k
            assert abs(a.a_total - b.a_total) <= 1e-12 * b.a_total, a.k
        assert [a.a_total for a in records[:2]] == [b.a_total for b in ref[:2]]

    def test_state_with_dt_w_summed_whole_is_refused(self, tmp_path, monkeypatch, capsys):
        # a state saved by the earlier rule (``add_into_ref``, and no form in
        # its records file) holds a u_3 that rounds otherwise: resuming it
        # would give records equal to neither run, so it is refused, by the
        # library with ValueError and by the CLI with exit 1
        out = str(tmp_path)
        with monkeypatch.context() as m:
            m.setattr(picard, "_add_into", add_into_ref)
            picard.run_iteration(small_config(outdir=out))
        cfg = small_config(kmax=4, outdir=out)
        rec_path = Path(picard._state_paths(cfg, rw.config_hash(cfg.descriptor()))[0])
        blob = json.loads(rec_path.read_text())
        assert blob.pop("form") == picard._FORM and blob["k"] == 3
        rec_path.write_text(json.dumps(blob))
        with pytest.raises(ValueError, match="start afresh"):
            picard.run_iteration(cfg)
        # the CLI's spelling of small_config names the same state
        assert cli.main(["--out", out, "picard", "--dr", "0.0625", "--t-max", "16",
                         "--r-max", "20", "--eps", "0.02", "--kmax", "4"]) == 1
        err = capsys.readouterr().err
        assert str(rec_path) in err and "start afresh" in err
        rec_path.unlink()  # as the message says: the next run starts afresh
        assert [r.k for r in picard.run_iteration(cfg)] == [1, 2, 3, 4]
        assert sorted(os.listdir(out)) == [rec_path.name.replace("records.json", "k4"),
                                           rec_path.name]

    def test_state_of_the_whole_dt_w_files_is_refused(self, tmp_path, monkeypatch, capsys):
        # the earlier form saved every row of the four dt W files, under
        # another form name: its records are refused, and so are its
        # histories under this form's name, which hold no edges file; the
        # library raises ValueError and the CLI exits 1
        out = str(tmp_path)
        cfg = small_config(kmax=2, outdir=out)
        picard.run_iteration(cfg)
        rec_path, prefix = picard._state_paths(cfg, rw.config_hash(cfg.descriptor()))
        for path in (Path(prefix + "2"), Path(prefix + "2") / "delta"):
            hist = rw.SolutionHistory.load(path)
            for f in ("u", "v"):
                grid_module._write_field(path / f"dtW_{f}.bin", getattr(hist, f"dtW_{f}"))
            (path / "dtW_edges.npy").unlink()
        blob = json.loads(Path(rec_path).read_text())
        for form, message in (("W and dt W edge rows", "not of the form"),
                              (picard._FORM, "cannot be loaded")):
            blob["form"] = form
            Path(rec_path).write_text(json.dumps(blob))
            with pytest.raises(ValueError, match=f"{message}.*start afresh"):
                picard.run_iteration(small_config(outdir=out))
        assert cli.main(["--out", out, "picard", "--dr", "0.0625", "--t-max", "16",
                         "--r-max", "20", "--eps", "0.02", "--kmax", "3"]) == 1
        assert "start afresh" in capsys.readouterr().err

    def test_kmax_is_not_part_of_the_resume_key(self, tmp_path, monkeypatch):
        # kmax 2, then kmax 3 and kmax 2 again in one directory: the second run
        # solves only iterate 3, the third none, and both match a fresh run
        fresh = [_values(r) for r in picard.run_iteration(small_config())]
        out = str(tmp_path)
        picard.run_iteration(small_config(kmax=2, outdir=out))
        solves = []
        for name in ("solve", "solve_linear_forced"):
            fn = getattr(picard, name)
            monkeypatch.setattr(picard, name,
                                lambda *a, fn=fn, name=name, **k: solves.append(name) or fn(*a, **k))
        resumed = picard.run_iteration(small_config(kmax=3, outdir=out))
        assert solves == ["solve_linear_forced"]
        assert [_values(r) for r in resumed] == fresh
        shorter = picard.run_iteration(small_config(kmax=2, outdir=out))
        assert solves == ["solve_linear_forced"]
        assert [_values(r) for r in shorter] == fresh[:2]

    @pytest.mark.parametrize("bad", [dict(p=1.5), dict(p=0.0), dict(delta=0.3),
                                     dict(delta=0.0), dict(N=4), dict(N=-1), dict(kmax=0),
                                     # t_max is 65 steps of cfl 0.5, but 32.5 of dt = dr
                                     dict(grid=rw.GridSpec(dr=0.25, cfl=0.5, r_max=12.25,
                                                           t_max=8.125))])
    def test_bad_parameters_rejected_when_built(self, bad):
        with pytest.raises(ValueError):
            small_config(**bad)

    def test_resume_tag_ignores_int_versus_float_extents(self):
        # the grid stores floats, so both spellings name one state on disk
        tags = {rw.config_hash(PicardConfig(rw.GridSpec(*g), eps=0.01).descriptor())
                for g in ((0.125, 1, 12, 8), (0.125, 1.0, 12.0, 8.0))}
        assert len(tags) == 1

    def test_grid_is_dt_equal_to_dr_whatever_the_cfl(self):
        # the iterates run on the dt = dr grid: the cfl of the given grid picks
        # no number, so it is neither in the records nor in the resume key
        runs = [small_config(grid=rw.GridSpec(dr=1 / 8, cfl=cfl, r_max=12, t_max=8), kmax=2)
                for cfl in (0.25, 0.5, 1.0)]
        assert {cfg.grid for cfg in runs} == {rw.GridSpec(dr=1 / 8, cfl=1.0, r_max=12, t_max=8)}
        assert all(cfg.descriptor() == runs[-1].descriptor() for cfg in runs)
        records = [[_values(r) for r in picard.run_iteration(cfg)] for cfg in runs]
        assert records[0] == records[1] == records[2]

    def test_resume_on_an_inexact_grid(self, tmp_path, monkeypatch):
        # at dr = 1/49 a field header's extents do not round back to r_max 8 and
        # t_max 4; the resumed iterates still live on the run's grid
        cfg = dict(grid=rw.GridSpec(1 / 49, 0.5, 8, 4), eps=0.01)
        fresh = [_values(r) for r in picard.run_iteration(PicardConfig(**cfg, kmax=2))]
        out = str(tmp_path)
        picard.run_iteration(PicardConfig(**cfg, kmax=1, outdir=out))
        grids = []
        source = picard._sources
        monkeypatch.setattr(picard, "_sources",
                            lambda h, d: grids.append((h.grid, d.grid)) or source(h, d))
        resumed = picard.run_iteration(PicardConfig(**cfg, kmax=2, outdir=out))
        assert [_values(r) for r in resumed] == fresh
        assert grids == [(PicardConfig(**cfg).grid,) * 2]

    def test_resume_key_covers_the_initial_data(self, tmp_path):
        out = str(tmp_path)
        g = rw.GridSpec(dr=1 / 8, cfl=0.5, r_max=12, t_max=8)
        poly = rw.InitialData(rw.poly_bump, rw.zero_profile, rw.poly_bump, rw.zero_profile)
        first = picard.run_iteration(small_config(grid=g, kmax=2, outdir=out))
        second = picard.run_iteration(small_config(grid=g, kmax=2, data=poly, outdir=out))
        fresh = picard.run_iteration(small_config(grid=g, kmax=2, data=poly))
        # the bump run's records must not be handed back for the poly_bump data
        assert [r.m_total for r in second] == [r.m_total for r in fresh]
        assert second[0].m_total != first[0].m_total
        narrow = rw.InitialData(rw.poly_bump, rw.zero_profile, rw.poly_bump,
                                rw.zero_profile, support_radius=1.5)
        assert (small_config(grid=g, data=narrow).descriptor()
                != small_config(grid=g, data=poly).descriptor())

    def test_light_cone_walk_keeps_every_record(self, monkeypatch):
        # the benchmark's grid: the word sums cut at the field's light cone
        # against the same pass forced to the full width, in float.hex
        def hexed(records):
            return [(r.k, *(x if x is None else x.hex()
                            for x in (r.m_total, r.a_total, r.contraction_ratio)),
                     {k: x.hex() for k, x in r.m_slots.items()},
                     {k: x.hex() for k, x in r.a_slots.items()}) for r in records]

        g = rw.GridSpec(dr=1 / 8, cfl=0.5, r_max=68.0, t_max=64.0)
        config = dict(grid=g, eps=0.0075, kmax=3)
        cut = hexed(picard.run_iteration(PicardConfig(**config)))
        monkeypatch.setattr(grid_module, "_cut", lambda f, keys, spans: spans[1][1])
        assert cut == hexed(picard.run_iteration(PicardConfig(**config)))
        assert len(cut) == 3

    def test_functional_windows_keep_every_record(self, monkeypatch):
        # M of u_3 and A of delta_3 on the benchmark grid, walked in windows
        # of 32 rows (the functionals'), of 64 rows and in one window of the
        # whole grid: every total, slot and region value equal in float.hex
        config = PicardConfig(grid=rw.GridSpec(dr=1 / 8, cfl=0.5, r_max=68.0, t_max=64.0),
                              eps=0.0075, kmax=3)
        pair, add_into = [], picard._add_into

        def keep(hist, diff):
            add_into(hist, diff)
            pair[:] = hist, diff

        monkeypatch.setattr(picard, "_add_into", keep)
        records = picard.run_iteration(config)
        (u, d), nt = pair, config.grid.nt

        def hexed(rows):
            with monkeypatch.context() as m:
                m.setattr(norms, "_FUNCTIONAL_ROWS", rows)
                out = [norms.m_functional(u.W_u, u.W_v, 0.75, 0.2, 2, over_r=True),
                       rw.a_functional(d.W_u, d.W_v, 0.75, 0.2, 2, over_r=True)]
            return [(b.total.hex(), *({k: x.hex() for k, x in getattr(b, name).items()}
                                      for name in ("slots", "per_region"))) for b in out]

        assert [len(norms._blocks(nt, rows)) for rows in (32, 64, nt)] == [16, 8, 1]
        windows = hexed(32)
        assert windows == hexed(64) == hexed(nt)
        assert [x[0] for x in windows] == [records[-1].m_total.hex(), records[-1].a_total.hex()]

    def test_sources_equal_one_whole_grid_block(self, monkeypatch):
        # each source row is computed from its own row alone, so the blocks of
        # 16 rows or more (16 of 16 and 17 rows here) in which the solve reads
        # the sources, each built once for both equations, give the sources
        # of a single whole-grid block bit for bit
        g = rw.GridSpec(dr=1 / 8, cfl=1.0, r_max=36.0, t_max=32.0)
        zero = solver._LightCone(g)
        data = rw.calibrate(PicardConfig(grid=g, eps=0.02).data, g, 2, 0.02)
        hist = rw.solve_linear_forced(data, zero, zero)
        diff = rw.solve_linear_forced(rw.InitialData(amplitude=0.0), *picard._sources(hist, hist))
        built, source_rows = [], picard._source_rows
        monkeypatch.setattr(picard, "_source_rows",
                            lambda h, d, rows: built.append((rows, source_rows(h, d, rows)))
                            or built[-1][1])
        rw.solve_linear_forced(rw.InitialData(amplitude=0.0), *picard._sources(hist, diff))
        assert [(rows.start, rows.stop) for rows, _ in built] == grid_module._blocks(g.nt, 16)
        assert len(built) == 16 and built[-1][0] == slice(240, 257)
        for blocked, whole in zip(zip(*(G for _, G in built)), source_rows(hist, diff, slice(None))):
            assert np.concatenate(blocked).tobytes() == whole.tobytes() and whole.any()

    def test_picard_limit_is_the_semilinear_solution(self, tmp_path):
        # the Picard driver's nonlinear response u_6 - u_1 (characteristic
        # solves, sources from ``_derivative_frames``) against RK4's semilinear
        # minus homogeneous ``solve`` (its own inlined null form), on the
        # points of the dr 1/8 lattice: the gap, max |difference| over max
        # |RK4 response|, read 0.205 and 0.0868 at dr 1/16, 0.0512 and
        # 0.0222 at dr 1/32 (second order); a dr u taken as (dr W) / r reads
        # 1.68 and 1.86 in u
        poly = rw.InitialData(rw.poly_bump, rw.zero_profile, rw.poly_bump, rw.zero_profile)
        gaps = []
        for dr in (1 / 16, 1 / 32):
            g = rw.GridSpec(dr=dr, cfl=1.0, r_max=20.0, t_max=16.0)
            cfg = PicardConfig(grid=g, eps=0.5, kmax=6, data=poly, outdir=str(tmp_path / str(dr)))
            assert len(picard.run_iteration(cfg)) == 6
            last = rw.SolutionHistory.load(
                picard._state_paths(cfg, rw.config_hash(cfg.descriptor()))[1] + "6")
            data = rw.calibrate(poly, g, cfg.N, cfg.eps)
            zero = rw.SpaceTimeField.zeros(g)
            first = rw.solve_linear_forced(data, zero, zero)
            semi, free = (rw.solve(data, rw.SolveConfig(grid=g, mode=mode))
                          for mode in ("semilinear", "homogeneous"))
            s = round(0.125 / dr)
            gap = []
            for f in ("W_u", "W_v"):
                driver = (getattr(last, f).values - getattr(first, f).values)[::s, ::s]
                rk4 = (getattr(semi, f).values - getattr(free, f).values)[::s, ::s]
                gap.append(np.max(np.abs(driver - rk4)) / np.max(np.abs(rk4)))
            gaps.append(gap)
        (u16, v16), (u32, v32) = gaps
        assert u32 <= 0.1 and v32 <= 0.1, gaps
        assert u16 >= 3 * u32 and v16 >= 3 * v32, gaps

    def test_driver_peak_allocation(self):
        # one iterate pair is resident: u_(k-1), summed in place, and
        # delta_(k-1), each as its W (two arrays) and dt W's edge rows; the
        # solve of delta_k builds G_k per block of 16 rows or more as it reads
        # them and writes delta_k over delta_(k-1) from k = 3 on; no zero
        # source is kept past k = 1.  The functionals divide W by r per
        # window of 32 rows, 16 windows here.  Every W is held in its light
        # cone, about half of the grid here.  The traced peak is 3.5 grid
        # arrays here, in M and A (3.5 each), ahead of the solves (2.7); a
        # solve holding delta_k beside delta_(k-1) would peak at 3.7
        g = rw.GridSpec(dr=1 / 4, cfl=1.0, r_max=132.0, t_max=128.0)
        assert len(norms._blocks(g.nt, norms._FUNCTIONAL_ROWS)) == 16
        tracemalloc.start()
        try:
            assert len(picard.run_iteration(PicardConfig(grid=g, eps=0.0075, kmax=3))) == 3
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3.6 * g.nt * g.nr * 8

    def test_solves_from_k3_write_over_the_last_difference(self, monkeypatch):
        # from k = 3 on the solve of delta_k takes delta_(k-1)'s cones, so its
        # traced peak holds u_(k-1), one difference and a block's
        # temporaries: 2.7 grid arrays here, 3.7 with delta_k beside
        # delta_(k-1).  At k = 2, delta_1 is u_1, which the sources read
        g = rw.GridSpec(dr=1 / 8, cfl=1.0, r_max=68.0, t_max=64.0)
        peaks, solve = [], picard.solve_linear_forced

        def traced(data, fu, fv, into=None):
            assert (into is not None) == (len(peaks) >= 2)
            tracemalloc.reset_peak()
            hist = solve(data, fu, fv, into=into)
            peaks.append(tracemalloc.get_traced_memory()[1] / (g.nt * g.nr * 8))
            assert into is None or (hist.W_u is into[0] and hist.W_v is into[1])
            return hist

        monkeypatch.setattr(picard, "solve_linear_forced", traced)
        tracemalloc.start()
        try:
            assert len(picard.run_iteration(PicardConfig(grid=g, eps=0.01, kmax=4))) == 4
        finally:
            tracemalloc.stop()
        assert len(peaks) == 4 and max(peaks[2:]) < 3.0, peaks

    def test_differences_written_over_their_predecessors_equal_the_oracle(self, monkeypatch):
        # delta_2..delta_4's W and dt W edge rows equal the four-array solve
        # (``linear_forced_ref``) of G_k built whole (``source_difference_ref``)
        # before each solve, in bytes, whether or not delta_k's rows take
        # delta_(k-1)'s cones
        solve, seen = picard.solve_linear_forced, []

        def checked(data, fu, fv, **kw):
            if not isinstance(fu, picard._Source):
                return solve(data, fu, fv, **kw)
            ref = linear_forced_ref(data, *source_difference_ref(fu.hist, fu.diff))
            hist = solve(data, fu, fv, **kw)
            for i, f in enumerate(("u", "v")):
                assert getattr(hist, f"W_{f}").values.tobytes() == ref[2 * i].tobytes()
                edges = ref[2 * i + 1][[0, -1]]
                assert getattr(hist, f"dtW_{f}").edges.tobytes() == edges.tobytes()
            seen.append(kw.get("into") is not None)
            return hist

        monkeypatch.setattr(picard, "solve_linear_forced", checked)
        assert len(picard.run_iteration(small_config(kmax=4))) == 4
        assert seen == [False, True, True]

    def test_loading_delta_reads_w_and_two_dt_rows(self, tmp_path, monkeypatch):
        # delta_k's directory and u_k's each load as two W arrays plus the
        # first and last rows of each dt W (the edges file); the loaded W
        # equal the saved files in bytes, dt W's edge rows the edges file's,
        # and its other rows the centred difference of the saved W
        g = rw.GridSpec(dr=1 / 4, cfl=1.0, r_max=68.0, t_max=64.0)
        cfg = PicardConfig(grid=g, eps=0.0075, kmax=2, outdir=str(tmp_path))
        picard.run_iteration(cfg)
        tag = rw.config_hash(cfg.descriptor())
        peaks, load = {}, rw.SolutionHistory.load

        def traced(path):
            tracemalloc.start()
            try:
                hist = load(path)
                peaks[os.path.basename(path)] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return hist

        monkeypatch.setattr(rw.SolutionHistory, "load", staticmethod(traced))
        records, hist, diff = picard._load_state(cfg, tag)
        size = g.nt * g.nr * 8
        assert peaks["delta"] <= 2.2 * size
        assert peaks[f"picard_{tag}_k2"] <= 2.2 * size
        assert [r.k for r in records] == [1, 2]
        saved = Path(picard._state_paths(cfg, tag)[1] + "2")
        for h, path in ((hist, saved), (diff, saved / "delta")):
            edges = np.load(path / "dtW_edges.npy")
            for i, f in enumerate(("u", "v")):
                W = rw.SpaceTimeField.from_binary(path / f"W_{f}.bin").values
                dt = getattr(h, f"dtW_{f}").values
                assert getattr(h, f"W_{f}").values.tobytes() == W.tobytes(), (path, f)
                assert dt[[0, -1]].tobytes() == edges[i].tobytes(), (path, f)
                assert dt[1:-1].tobytes() == ((W[2:] - W[:-2]) / (2 * g.dt)).tobytes(), (path, f)

    def test_resumed_run_equals_a_fresh_one_saved_state_included(self, tmp_path):
        # resumed from delta_2 loaded at its dt W edge rows, iterate 3's
        # records and every saved file equal a fresh run's, byte for byte
        fresh, resumed = str(tmp_path / "fresh"), str(tmp_path / "resumed")
        records = picard.run_iteration(small_config(outdir=fresh))
        picard.run_iteration(small_config(kmax=2, outdir=resumed))
        again = picard.run_iteration(small_config(outdir=resumed))
        assert [_values(r) for r in again] == [_values(r) for r in records]
        tag = rw.config_hash(small_config().descriptor())
        for sub in ("", "delta"):
            a, b = (Path(out) / f"picard_{tag}_k3" / sub for out in (fresh, resumed))
            names = sorted(p.name for p in a.iterdir() if p.is_file())
            assert names == sorted(p.name for p in b.iterdir() if p.is_file())
            assert len(names) == 4  # W_u, W_v, the dt W edges and the manifest
            for name in names:
                assert (a / name).read_bytes() == (b / name).read_bytes(), (sub, name)

    @pytest.mark.parametrize("case", ["bump", "nonzero at r = R"])
    def test_light_cone_holds_every_array_exactly(self, case, monkeypatch):
        # every W of delta_k and every W of u_k, as held in the light cone
        # (row n to column n + S), and every source G_k, k <= 4, as the solve
        # reads its blocks of rows, equals the full-width array (every cone
        # widened to nr) in bytes; the rows read equal those of G_k built
        # whole before the solve (``source_difference_ref``) in bytes.  Data
        # nonzero at r = R = 2 reach column S - 1, so a source reaches column
        # n + S: one column less would drop it
        if case == "bump":
            g, data = rw.GridSpec(dr=1 / 8, cfl=1.0, r_max=36.0, t_max=16.0), None
        else:
            g = rw.GridSpec(dr=1 / 16, cfl=1.0, r_max=14.0, t_max=8.0)
            edge = lambda r: np.where(r <= 2, 1 - r * r / 8, 0.0)  # 0.5 at r = 2
            data = rw.InitialData(edge, rw.zero_profile, edge, edge)
        config = PicardConfig(grid=g, eps=0.0075, kmax=4,
                              **({} if data is None else {"data": data}))
        S = solver._cone_reach(g)

        class Reading:
            """A source of the solve, recording the rows the solve reads."""

            def __init__(self, f):
                self.f, self.grid, self.reach, self.read = f, f.grid, f.reach, []

            def rect(self, rows):
                self.read.append(self.f.rect(rows))
                return self.read[-1]

        def held(cone_reach):
            arrays, solve, add_into = [], picard.solve_linear_forced, picard._add_into

            def recording(data, fu, fv, **kw):
                whole = (source_difference_ref(fu.hist, fu.diff)
                         if isinstance(fu, picard._Source) else (fu, fv))
                read = [Reading(fu), Reading(fv)]
                hist = solve(data, *read, **kw)
                G = [np.concatenate(f.read) for f in read]
                assert [x.tobytes() for x in G] == [x.values.tobytes() for x in whole]
                arrays.append([*G, hist.W_u.values, hist.W_v.values])
                return hist

            def summing(hist, diff):
                add_into(hist, diff)
                arrays.append([hist.W_u.values, hist.W_v.values])
                assert all(isinstance(f, solver._LightCone) and f.reach == cone_reach
                           for f in (hist.W_u, hist.W_v, diff.W_u, diff.W_v))

            with monkeypatch.context() as m:
                m.setattr(picard, "solve_linear_forced", recording)
                m.setattr(picard, "_add_into", summing)
                if cone_reach != S:
                    m.setattr(solver, "_cone_reach", lambda grid: cone_reach)
                assert len(picard.run_iteration(config)) == 4
            return arrays

        cone, whole = held(S), held(g.nr)
        assert len(cone) == 7  # four solves and three sums
        assert [[a.tobytes() for a in x] for x in cone] == [[a.tobytes() for a in x] for x in whole]
        cols = np.arange(g.nr)
        G4 = cone[-2][:2]
        for n, row in enumerate(G4[1]):
            assert not row[cols > n + S].any()
        reached = [row[n + S] != 0 for n, row in enumerate(G4[1]) if n + S < g.nr]
        assert any(reached) == (case == "nonzero at r = R")
        u = solver._LightCone(g)
        assert sum(block.size for *_, block in u.blocks) < 0.7 * g.nt * g.nr

    def test_data_past_their_support_radius_are_refused(self, tmp_path, monkeypatch, capsys):
        # W would leave its light cone: the library raises, the CLI exits 1
        wide = lambda r: np.exp(-np.asarray(r, dtype=float))
        g = rw.GridSpec(dr=1 / 8, cfl=1.0, r_max=12.0, t_max=8.0)
        zero = solver._LightCone(g)
        with pytest.raises(ValueError, match="nonzero past their support radius 2"):
            rw.solve_linear_forced(rw.InitialData(rw.bump, rw.zero_profile, wide), zero, zero)
        narrow = rw.InitialData(rw.bump, rw.zero_profile, rw.bump, rw.zero_profile,
                                support_radius=1.5)
        with pytest.raises(ValueError, match="support radius 1.5"):
            picard.run_iteration(small_config(grid=g, data=narrow))
        monkeypatch.setattr(picard, "bump", wide)
        assert cli.main(["--out", str(tmp_path), "picard", "--dr", "0.125", "--t-max", "8",
                         "--kmax", "1"]) == 1
        assert "nonzero past their support radius" in capsys.readouterr().err

    def test_saved_w_past_the_light_cone_is_refused(self, tmp_path):
        # a saved W nonzero past column n + S of a row n loads at every
        # column, and a resumed run refuses it as a state to start afresh
        cfg = small_config(kmax=2, outdir=str(tmp_path))
        picard.run_iteration(cfg)
        saved = Path(picard._state_paths(cfg, rw.config_hash(cfg.descriptor()))[1] + "2")
        path = saved / "delta" / "W_v.bin"
        field = rw.SpaceTimeField.from_binary(path)
        S = solver._cone_reach(cfg.grid)
        field.values[10, 10 + S + 1] = 1e-30
        field.to_binary(path)
        back = rw.SolutionHistory.load(saved / "delta")
        assert back.W_v.reach == cfg.grid.nr and back.W_u.reach == S
        assert back.W_v.values.tobytes() == field.values.tobytes()
        with pytest.raises(ValueError, match="past the light cone.*start afresh"):
            picard.run_iteration(small_config(kmax=3, outdir=str(tmp_path)))

    def test_record_json_roundtrip(self):
        rec = IterationRecord(2, 1.5, 0.25, 0.1, {"a": 1.0}, {"b": 2.0}, 0.5)
        back = IterationRecord.from_json(rec.to_json())
        assert back == rec


class TestBoundedness:
    def test_verdict_structure(self):
        records = picard.run_iteration(small_config())
        verdict = picard.check_boundedness(records, 0.02)
        assert verdict["bounded"]
        np.testing.assert_allclose(verdict["threshold"],
                                   2 * verdict["fitted_C0"] * 0.02)
        assert verdict["max_m"] >= records[0].m_total

    def test_unbounded_flagged(self):
        records = [IterationRecord(1, 1.0, 1.0, None),
                   IterationRecord(2, 5.0, 0.1, 0.1)]
        verdict = picard.check_boundedness(records, 0.01)
        assert not verdict["bounded"]

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            picard.check_boundedness([], 0.01)


def _fake_a(monkeypatch, fake):
    """Replace every A breakdown of ``run_iteration`` by ``fake()``: at k = 1
    A comes from the pass shared with M, from k = 2 on from ``a_functional``."""
    shared = picard.m_and_a_functionals
    monkeypatch.setattr(picard, "m_and_a_functionals",
                        lambda *a, **k: (shared(*a, **k)[0], fake()))
    monkeypatch.setattr(picard, "a_functional", lambda *a, **k: fake())


class TestNonContraction:
    def test_raised_after_three_rises(self, monkeypatch):
        cfg = small_config(kmax=6)
        # force the difference functional to grow every step
        seq = iter([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

        class FakeBreakdown:
            def __init__(self, total):
                self.total = total
                self.slots = {}

        _fake_a(monkeypatch, lambda: FakeBreakdown(next(seq)))
        with pytest.raises(picard.NonContraction) as exc:
            picard.run_iteration(cfg)
        assert len(exc.value.records) == 4  # k = 1 plus three rising ratios

    def test_resumed_run_stops_where_a_fresh_run_stops(self, tmp_path, monkeypatch):
        # the difference functional grows every step; a run interrupted after
        # saving k = 3 and rerun must raise after k = 4, as a fresh run does
        totals = itertools.count(1.0)

        class FakeBreakdown:
            def __init__(self, total):
                self.total = total
                self.slots = {}

        _fake_a(monkeypatch, lambda: FakeBreakdown(next(totals)))
        with pytest.raises(picard.NonContraction) as exc:
            picard.run_iteration(small_config(kmax=6))
        fresh = [_values(r) for r in exc.value.records]
        assert len(fresh) == 4

        totals = itertools.count(1.0)
        save_state = picard._save_state

        def interrupt_after_k3(config, tag, records, *hists):
            save_state(config, tag, records, *hists)
            if records[-1].k == 3:
                raise _Interrupt

        out = str(tmp_path)
        with monkeypatch.context() as m:
            m.setattr(picard, "_save_state", interrupt_after_k3)
            with pytest.raises(_Interrupt):
                picard.run_iteration(small_config(kmax=6, outdir=out))
        with pytest.raises(picard.NonContraction) as exc:
            picard.run_iteration(small_config(kmax=6, outdir=out))
        assert [_values(r) for r in exc.value.records] == fresh

        # the saved records end in three rises: a rerun raises with no solve
        def no_solve(*args, **kwargs):
            raise AssertionError("a stopped run was solved again")

        monkeypatch.setattr(picard, "solve", no_solve)
        monkeypatch.setattr(picard, "solve_linear_forced", no_solve)
        with pytest.raises(picard.NonContraction) as exc:
            picard.run_iteration(small_config(kmax=6, outdir=out))
        assert [_values(r) for r in exc.value.records] == fresh


class TestDecayFit:
    def test_recovers_synthetic_exponent(self):
        t = np.linspace(0, 128, 4097)
        diags = {"t": t,
                 "sup_u": 0.5 * (1 + t) ** -1.0,
                 "sup_v": 0.25 * (1 + t) ** -1.1}
        fit = picard.fit_decay(diags)
        assert abs(fit["exponent_u"] + 1.0) < 0.02
        assert abs(fit["exponent_v"] + 1.1) < 0.02
        assert fit["t_sup_u_factor"] < 1.1

    def test_window_too_small(self):
        diags = {"t": np.array([0.0, 1.0, 2.0]),
                 "sup_u": np.ones(3), "sup_v": np.ones(3)}
        with pytest.raises(ValueError):
            picard.fit_decay(diags)

    def test_decay_run_diagnostics_only(self):
        g = rw.GridSpec(dr=1 / 8, cfl=0.5, r_max=36, t_max=32)
        diags = picard.decay_run(g, 0.02)
        assert set(diags) >= {"t", "sup_u", "sup_v", "support_radius"}
        fit = picard.fit_decay(diags)
        assert fit["exponent_u"] < -0.5

    def test_decay_run_energy_drift_at_the_benchmark_size(self):
        # the `decay` command's grid at dr 1/16, T 256: RK4 at dt = dr damps
        # grid-scale modes, and E_u and E_v both lose 3.09e-2 of their
        # initial value (3.0948e-2 and 3.0954e-2); at dt = dr/2 the sum
        # E_u + E_v gained 1.4e-4, so the bound says when a step change
        # makes the drift worse
        g = rw.GridSpec(dr=1 / 16, cfl=0.5, r_max=260.0, t_max=256.0)
        diags = picard.decay_run(g, 0.01)
        for key in ("energy_u", "energy_v"):
            energy = diags[key]
            assert abs(energy[-1] / energy[0] - 1) <= 4e-2, key
