import json
import os
import shutil

import numpy as np
import pytest

from radialwave import cli, picard, registry


def run(args):
    return cli.main(args)


class TestSolve:
    def test_writes_history_and_report(self, tmp_path):
        rc = run(["--out", str(tmp_path), "solve", "--dr", "0.125",
                  "--t-max", "4", "--eps", "0.02"])
        assert rc == 0
        runs = [d for d in os.listdir(tmp_path) if d.startswith("solve_")]
        assert len(runs) == 1
        run_dir = tmp_path / runs[0]
        assert (run_dir / "diagnostics.csv").exists()
        report = json.loads((run_dir / "report.json").read_text())
        assert report["config_hash"] in runs[0]
        assert np.isfinite(report["final_sup_u"])

    def test_history_holds_the_files_of_a_picard_iterate(self, tmp_path):
        # one history form: the RK4 solve's directory and a Picard iterate's
        # hold W's two files, dt W's edges file and the manifest
        run(["--out", str(tmp_path / "solve"), "solve", "--dr", "0.125", "--t-max", "4"])
        run(["--out", str(tmp_path / "picard"), "picard", "--dr", "0.125", "--t-max", "4",
             "--kmax", "1"])
        solve_dir = next((tmp_path / "solve").glob("solve_*"))
        picard_dir = next((tmp_path / "picard").glob("picard_*_k1"))
        history = {"W_u.bin", "W_v.bin", "dtW_edges.npy", "manifest.json"}
        assert set(os.listdir(solve_dir)) == history | {"diagnostics.csv", "report.json"}
        assert set(os.listdir(picard_dir)) == history | {"delta"}
        assert set(os.listdir(picard_dir / "delta")) == history

    def test_diagnostics_csv_full_precision(self, tmp_path):
        run(["--out", str(tmp_path), "solve", "--dr", "0.125", "--t-max", "4",
             "--eps", "0.02", "--no-history"])
        run_dir = tmp_path / [d for d in os.listdir(tmp_path)][0]
        lines = (run_dir / "diagnostics.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert "sup_u" in header
        # values roundtrip exactly through the 17-digit format
        val = float(lines[5].split(",")[header.index("sup_u")])
        assert val == float(f"{val:.17g}")


class TestIdentities:
    def test_passes_at_default_resolution(self, tmp_path):
        rc = run(["--out", str(tmp_path), "identities", "--cfl", "1.0"])
        assert rc == 0
        csvs = [f for f in os.listdir(tmp_path) if f.endswith(".csv")]
        body = (tmp_path / csvs[0]).read_text()
        assert "identity_plus" in body and "identity_minus" in body
        assert "FAIL" not in body

    def test_passes_at_its_own_defaults(self, tmp_path, capsys):
        # the README's `radialwave --out runs identities`, no grid flag: the
        # fields are sampled at cfl 1, where traveling_sym's identity_plus
        # row reads 8.9e-5 (1.23e-3 at cfl 0.5, over --tol 1e-3)
        assert run(["--out", str(tmp_path), "identities"]) == 0
        assert "FAIL" not in capsys.readouterr().out
        report, = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
        assert json.loads((tmp_path / report).read_text())["grid"]["cfl"] == 1.0

    def test_fails_with_tight_tolerance(self, tmp_path):
        rc = run(["--out", str(tmp_path), "identities", "--cfl", "1.0",
                  "--dr", "0.0625", "--tol", "1e-9"])
        assert rc == 2

    def test_ghost_U_names_its_outputs(self, tmp_path):
        # identity_plus reads U, so the runs at U = 1 and 4 print other rows
        # and each keeps its own files (exit 2: rows over --tol at dr 1/8)
        for ghost_U in ("1", "4"):
            assert run(["--out", str(tmp_path), "identities", "--dr", "0.125", "--t-max", "4",
                        "--ghost-U", ghost_U]) == 2
        reports = sorted(tmp_path.glob("identities_*.json"))
        assert len(list(tmp_path.glob("identities_*.csv"))) == len(reports) == 2
        payloads = [json.loads(path.read_text()) for path in reports]
        assert sorted(p["ghost_U"] for p in payloads) == [1.0, 4.0]
        assert payloads[0]["rows"] != payloads[1]["rows"]


class TestConfigFile:
    def test_config_file_overrides_defaults(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("dr = 0.125\nt-max = 4\neps = 0.02\n# comment\n")
        rc = run(["--config", str(cfgfile), "--out", str(tmp_path), "solve"])
        assert rc == 0
        report_dir = [d for d in os.listdir(tmp_path) if d.startswith("solve_")][0]
        report = json.loads((tmp_path / report_dir / "report.json").read_text())
        assert report["grid"]["dr"] == 0.125
        assert report["eps"] == 0.02

    def test_explicit_flag_beats_config_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("eps = 0.02\ndr = 0.125\nt-max = 4\n")
        run(["--config", str(cfgfile), "--out", str(tmp_path), "solve",
             "--eps", "0.01"])
        report_dir = [d for d in os.listdir(tmp_path) if d.startswith("solve_")][0]
        report = json.loads((tmp_path / report_dir / "report.json").read_text())
        assert report["eps"] == 0.01

    @staticmethod
    def _solve_dr(tmp_path, *flags):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("dr = 0.125\nt-max = 4\neps = 0.02\n")
        out = tmp_path / "out"
        rc = run(["--config", str(cfgfile), "--out", str(out), "solve",
                  "--no-history", *flags])
        assert rc == 0
        report_dir = [d for d in os.listdir(out) if d.startswith("solve_")][0]
        return json.loads((out / report_dir / "report.json").read_text())["grid"]["dr"]

    def test_equals_spelling_beats_config_file(self, tmp_path):
        assert self._solve_dr(tmp_path, "--dr=0.0625") == 0.0625

    def test_flag_at_its_default_beats_config_file(self, tmp_path):
        assert self._solve_dr(tmp_path, "--dr", "0.03125") == 0.03125  # the solve default

    def test_config_value_is_converted_by_the_flag_type(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("dr = 0.125\nt-max = 4\nr-max = 10\nno-history = false\n")
        rc = run(["--config", str(cfgfile), "--out", str(tmp_path), "solve"])
        assert rc == 0
        run_dir = tmp_path / [d for d in os.listdir(tmp_path) if d.startswith("solve_")][0]
        assert json.loads((run_dir / "report.json").read_text())["grid"]["r_max"] == 10.0
        assert (run_dir / "manifest.json").exists()  # history kept: "false" is False

    @pytest.mark.parametrize("value", ["maybe", "2", "", "on"])
    def test_bad_boolean_config_value_is_an_error(self, tmp_path, capsys, value):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"dr = 0.125\nt-max = 4\nno-history = {value}\n")
        rc = run(["--config", str(cfgfile), "--out", str(tmp_path), "solve"])
        assert rc == 1
        assert "no_history" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.cfg"]  # no run started

    @pytest.mark.parametrize("value, kept", [("YES", False), ("True", False), ("1", False),
                                             ("No", True), ("FALSE", True), ("0", True)])
    def test_boolean_config_values(self, tmp_path, value, kept):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"dr = 0.125\nt-max = 4\nno-history = {value}\n")
        assert run(["--config", str(cfgfile), "--out", str(tmp_path), "solve"]) == 0
        run_dir = tmp_path / [d for d in os.listdir(tmp_path) if d.startswith("solve_")][0]
        assert (run_dir / "manifest.json").exists() == kept

    def test_bad_config_value_is_an_error(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("dr = fast\n")
        rc = run(["--config", str(cfgfile), "--out", str(tmp_path), "solve"])
        assert rc == 1

    def test_unknown_key_is_an_error(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("frobnicate = 1\n")
        rc = run(["--config", str(cfgfile), "--out", str(tmp_path), "solve"])
        assert rc == 1

    def test_key_of_another_subcommand_is_an_error(self, tmp_path, capsys):
        # a shared file would hide typos, so kmax (picard's) is unknown to solve
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("dr = 0.125\nkmax = 2\n")
        rc = run(["--config", str(cfgfile), "--out", str(tmp_path), "solve"])
        assert rc == 1
        assert "unknown config key 'kmax'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.cfg"]  # no run started

    @pytest.mark.parametrize("command", ["picard", "sweep", "solve", "decay"])
    def test_cfl_is_unknown_to_the_picard_grid(self, tmp_path, capsys, command):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("dr = 0.125\nt-max = 8\ncfl = 0.5\n")
        rc = run(["--config", str(cfgfile), "--out", str(tmp_path), command])
        assert rc == 1
        assert "unknown config key 'cfl'" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.cfg"]  # no run started

    def test_outdir_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUTDIR, str(tmp_path))
        rc = run(["solve", "--dr", "0.125", "--t-max", "4", "--eps", "0.02",
                  "--no-history"])
        assert rc == 0
        assert any(d.startswith("solve_") for d in os.listdir(tmp_path))


class TestPicardCommand:
    def test_small_run(self, tmp_path):
        rc = run(["--out", str(tmp_path), "picard", "--dr", "0.0625",
                  "--t-max", "16", "--eps", "0.02", "--kmax", "2"])
        assert rc == 0
        reports = [f for f in os.listdir(tmp_path) if f.endswith("_report.json")]
        payload = json.loads((tmp_path / reports[0]).read_text())
        assert payload["verdict"]["bounded"]
        assert len(payload["records"]) == 2

    def test_state_without_delta_is_refused(self, tmp_path, capsys):
        # a state of separately solved iterates has no delta_k to resume from
        args = ["--out", str(tmp_path), "picard", "--dr", "0.125", "--t-max", "8", "--kmax"]
        assert run(args + ["1"]) == 0
        shutil.rmtree(next(tmp_path.glob("picard_*_k1")) / "delta")
        assert run(args + ["2"]) == 1
        assert "no difference" in capsys.readouterr().err

    def test_unloadable_state_names_what_to_remove(self, tmp_path, capsys):
        # removing the refused field file alone leaves a state that cannot load
        # either, so the refusal names the records file and the history directory
        args = ["--out", str(tmp_path), "picard", "--dr", "0.125", "--t-max", "8",
                "--kmax", "2"]
        assert run(args) == 0
        records = next(tmp_path.glob("picard_*_records.json"))
        hist_dir = next(tmp_path.glob("picard_*_k2"))
        field = hist_dir / "W_u.bin"
        field.write_bytes(b"RWFLD001" + field.read_bytes()[8:])
        remove = f"remove {records} and {hist_dir} to start afresh"
        assert run(args) == 1
        err = capsys.readouterr().err
        assert remove in err and "RWFLD001" in err
        field.unlink()
        assert run(args) == 1
        assert remove in capsys.readouterr().err
        records.unlink()
        shutil.rmtree(hist_dir)
        assert run(args) == 0
        assert (hist_dir / "W_u.bin").exists()


    @pytest.mark.parametrize("damage", ["no records", "record without a_total",
                                        "manifest without a key"])
    def test_malformed_state_is_refused(self, tmp_path, capsys, damage):
        # a state that cannot be read is refused with exit 1 and the records
        # file to remove, not a traceback
        args = ["--out", str(tmp_path), "picard", "--dr", "0.125", "--t-max", "8", "--kmax"]
        assert run(args + ["1"]) == 0
        records = next(tmp_path.glob("picard_*_records.json"))
        blob = json.loads(records.read_text())
        if damage == "no records":
            blob["records"] = []
        elif damage == "record without a_total":
            del blob["records"][-1]["a_total"]
        else:
            manifest = next(tmp_path.glob("picard_*_k1")) / "manifest.json"
            meta = json.loads(manifest.read_text())
            del meta["mode"]
            manifest.write_text(json.dumps(meta))
        records.write_text(json.dumps(blob))
        assert run(args + ["2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(records) in err
        assert "to start afresh" in err and "Traceback" not in err

class TestEstimatesCommand:
    def test_klainerman_sobolev_rows(self, tmp_path):
        rc = run(["--out", str(tmp_path), "estimates", "--dr", "0.0625", "--t-max", "8"])
        assert rc == 0
        js = [f for f in os.listdir(tmp_path)
              if f.startswith("estimates") and f.endswith(".json")][0]
        payload = json.loads((tmp_path / js).read_text())
        rows = {(fam, name): (ratio, status) for fam, name, _, _, ratio, status in payload["rows"]}
        for fam, kind, s in registry.KS_COMBOS:
            for name in (f"ks_{kind}{s}", f"d2ks_{kind}{s}"):
                ratio, status = rows[fam, name]
                assert status == "pass" and 0.0 < ratio < float("inf")
        assert payload["all_passed"]

    def test_slab_off_the_grid_reads_ratio_zero(self, tmp_path):
        # the enlarged slab of tau = 8 starts at t = 7
        rc = run(["--out", str(tmp_path), "estimates", "--dr", "0.125", "--t-max", "6"])
        assert rc == 0
        csv = [f for f in os.listdir(tmp_path) if f.endswith(".csv")][0]
        ks = [line.split(",") for line in (tmp_path / csv).read_text().splitlines()
              if ",ks_" in line or ",d2ks_" in line]
        assert len(ks) == 2 * len(registry.KS_COMBOS)
        assert all(ratio == "0" and status == "pass" for *_, ratio, status in ks)


class TestDecayCommand:
    def test_fit_reported(self, tmp_path):
        rc = run(["--out", str(tmp_path), "decay", "--dr", "0.125",
                  "--t-max", "64", "--eps", "0.02"])
        assert rc == 0
        js = [f for f in os.listdir(tmp_path)
              if f.startswith("decay") and f.endswith(".json")][0]
        fit = json.loads((tmp_path / js).read_text())["fit"]
        assert fit["exponent_u"] < -0.5


class TestSweepCommand:
    def test_scaling_verdicts(self, tmp_path):
        rc = run(["--out", str(tmp_path), "sweep", "--dr", "0.0625",
                  "--t-max", "16", "--eps-list", "0.02,0.01"])
        assert rc == 0
        js = [f for f in os.listdir(tmp_path)
              if f.startswith("sweep") and f.endswith(".json")][0]
        payload = json.loads((tmp_path / js).read_text())
        assert payload["m1_linear"] and payload["correction_quadratic"]

    def test_p_delta_and_N_name_its_outputs(self, tmp_path):
        # M reads p, delta and N, so each run prints other rows and keeps its
        # own files
        base = ["--out", str(tmp_path), "sweep", "--dr", "0.25", "--t-max", "8"]
        for extra in ([], ["--p", "0.6", "--delta", "0.1"], ["--N", "1"]):
            assert run(base + extra) == 0
        rows = {path.read_text() for path in tmp_path.glob("sweep_*.csv")}
        assert len(rows) == len(list(tmp_path.glob("sweep_*.json"))) == 3


class TestBadInput:
    """Bad input exits 1 with a message before any work is done."""

    # one distinct value leaves the linearity checks nothing to compare
    @pytest.mark.parametrize("eps_list", [",", "", " , ", "0.01", "0.01,0.01,0.010"])
    def test_empty_eps_list(self, tmp_path, capsys, eps_list):
        rc = run(["--out", str(tmp_path), "sweep", "--dr", "0.125", "--t-max", "8",
                  "--eps-list", eps_list])
        assert rc == 1
        assert "--eps-list" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "decay", "picard"])
    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps(self, tmp_path, capsys, command, eps):
        rc = run(["--out", str(tmp_path), command, "--dr", "0.125", "--t-max", "8",
                  "--eps", eps])
        assert rc == 1
        assert "eps must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flags", [
        (command, flags) for command in ("picard", "sweep")
        for flags in (["--N", "4"], ["--N", "-1"], ["--p", "1.5"], ["--delta", "0.5"],
                      ["--delta", "-0.1"], ["--kmax", "0"])
        if command == "picard" or flags[0] != "--kmax"]  # sweep runs kmax 2
        # the iterates run on the dt = dr grid, so --cfl is an unknown flag
        + [(command, ["--cfl", "0.4"]) for command in ("picard", "sweep")]
        # eps = 0 leaves the boundedness and linearity checks nothing to divide by
        + [("picard", ["--eps", "0"]), ("sweep", ["--eps-list", "0,0.01"]),
           ("sweep", ["--eps-list", "0.01,0"])]
        # one distinct value leaves the linearity checks nothing to compare
        + [("sweep", ["--eps-list", "0.01"]), ("sweep", ["--eps-list", "0.01,0.01"])])
    def test_picard_parameters_fail_before_the_first_solve(self, tmp_path, monkeypatch,
                                                           command, flags):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started with invalid parameters")

        monkeypatch.setattr(picard, "solve", no_solve)
        monkeypatch.setattr(picard, "solve_linear_forced", no_solve)
        rc = run(["--out", str(tmp_path), command, "--dr", "0.125", "--t-max", "8", *flags])
        assert rc == 1

    @pytest.mark.parametrize("command, flag, value", [
        ("estimates", "--delta", "nan"), ("identities", "--delta", "nan"),
        ("identities", "--ghost-U", "nan"), ("identities", "--tol", "nan"),
        ("estimates", "--delta", "inf"), ("estimates", "--delta", "0"),
        ("estimates", "--p", "nan"), ("identities", "--p", "nan"),
        ("identities", "--ghost-U", "inf"), ("identities", "--ghost-U", "0.5"),
        ("identities", "--tol", "inf"), ("identities", "--tol", "0")])
    def test_ratio_parameters_fail_before_the_first_field(self, tmp_path, capsys, monkeypatch,
                                                          command, flag, value):
        # a NaN delta, ghost-U or tol used to run every check and exit 2
        def no_field(*args, **kwargs):
            raise AssertionError("a field was built with invalid parameters")

        monkeypatch.setattr(registry, "ANALYTIC_FAMILIES", {"no_field": no_field})
        rc = run(["--out", str(tmp_path), command, "--dr", "0.125", "--t-max", "8", flag, value])
        assert rc == 1
        assert f"{flag} must" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "decay"])
    def test_zero_data_at_positive_eps(self, tmp_path, capsys, monkeypatch, command):
        # data whose data-size sum is 0 cannot be calibrated to eps > 0; this
        # raised ZeroDivisionError through main
        monkeypatch.setattr(cli, "bump", cli.zero_profile)
        monkeypatch.setattr(picard, "bump", picard.zero_profile)
        rc = run(["--out", str(tmp_path), command, "--dr", "0.125", "--t-max", "8"])
        assert rc == 1
        assert "data-size sum is 0.0" in capsys.readouterr().err

    @pytest.mark.parametrize("message, shown", [
        ("Unable to allocate 37.3 GiB", "Unable to allocate 37.3 GiB"), ("", "out of memory")])
    def test_memory_error(self, tmp_path, capsys, monkeypatch, message, shown):
        # picard --dr 1e-9 raised numpy's _ArrayMemoryError through main; the
        # command is replaced, so no large grid is ever asked for
        def out_of_memory(args):
            raise MemoryError(message)

        monkeypatch.setitem(cli._COMMANDS, "picard", out_of_memory)
        rc = run(["--out", str(tmp_path), "picard", "--dr", "1e-9", "--t-max", "1"])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {shown}\n"

    @pytest.mark.parametrize("flag", ["--dr", "--cfl", "--t-max", "--r-max"])
    def test_non_finite_grid_value(self, tmp_path, capsys, flag):
        command = "identities" if flag == "--cfl" else "solve"  # solve takes no --cfl
        rc = run(["--out", str(tmp_path), command, "--dr", "0.125", "--t-max", "4",
                  flag, "nan"])
        assert rc == 1
        assert "must be finite" in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    # exit 2 would read as a failed check
    for argv in (["not-a-command"], [], ["picard", "--bogus", "1"], ["picard", "--dr", "abc"],
                 ["picard", "--kmax", "1.5"], ["picard", "--cfl", "0.5"],
                 ["sweep", "--cfl", "0.5"], ["solve", "--cfl", "0.5"],
                 ["decay", "--cfl", "0.5"]):
        assert cli.main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage: radialwave") and "error: " in err, argv


@pytest.mark.parametrize("command", ["picard", "sweep", "solve", "decay"])
def test_help_lists_no_cfl_for_the_picard_grid(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "--dr" in out and "--cfl" not in out


@pytest.mark.parametrize("command", ["identities", "estimates"])
def test_help_lists_cfl_for_the_sampled_fields(capsys, command):
    # the dt/dr ratio at which the analytic fields are sampled
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--help"])
    assert exc.value.code == 0
    assert "--cfl" in capsys.readouterr().out
