"""Command-line front end.

Subcommands: solve, identities, estimates, picard, decay, sweep.  Options can
be preloaded from a key=value config file and overridden by flags; all reports
embed the configuration hash and print floats at full precision.  A config key
of another subcommand (``kmax`` for ``solve``) is an unknown key, like a typo.
Exit codes: 0 = all checks passed, 2 = a check failed, 1 = usage or runtime
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from . import estimates, picard, registry
from .grid import GridSpec
from .solver import (
    BlowUpSuspected, InitialData, SolveConfig, bump, calibrate, config_hash,
    solve, zero_profile,
)

ENV_OUTDIR = "RADIALWAVE_OUTDIR"


def _fmt(x) -> str:
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key.replace("-", "_")] = val
    return out


def _build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser and its subcommand parsers by name."""
    ap = argparse.ArgumentParser(prog="radialwave")
    ap.add_argument("--config", help="key=value file providing option defaults")
    ap.add_argument("--out", help=f"output directory (default ${ENV_OUTDIR} or '.')")
    # subcommand errors surface as ArgumentError, which the top-level parser
    # reports as a usage error and _parse as a config-file error
    sub = ap.add_subparsers(dest="command", required=True, parser_class=functools.partial(
        argparse.ArgumentParser, exit_on_error=False))

    def add_grid(p, t_max=16.0, dr=1 / 32, cfl=0.5):  # cfl None: no --cfl
        p.add_argument("--dr", type=float, default=dr)
        if cfl is not None:
            p.add_argument("--cfl", type=float, default=cfl)
        p.add_argument("--t-max", type=float, default=t_max)
        p.add_argument("--r-max", type=float, default=None,
                       help="default: t_max + 4")

    p = sub.add_parser("solve", help="evolve the coupled system and store the history")
    add_grid(p, cfl=None)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--mode", default="semilinear",
                   choices=["semilinear", "homogeneous"])
    p.add_argument("--no-history", action="store_true",
                   help="record diagnostics only")

    p = sub.add_parser("identities", help="multiplier identity residuals")
    add_grid(p, t_max=8.0, dr=1 / 64, cfl=1.0)  # traveling_sym's identity_plus: 1.23e-3 at 0.5
    p.add_argument("--p", type=float, default=0.75)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--ghost-U", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-3)

    p = sub.add_parser("estimates", help="estimate ratio checks over the test families")
    add_grid(p, t_max=16.0)
    p.add_argument("--p", type=float, default=0.75)
    p.add_argument("--delta", type=float, default=0.2)

    p = sub.add_parser("picard", help="fixed-point iteration with functional bookkeeping")
    add_grid(p, t_max=64.0, cfl=None)
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--p", type=float, default=0.75)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--kmax", type=int, default=6)

    p = sub.add_parser("decay", help="long evolution and pointwise decay fit")
    add_grid(p, t_max=256.0, cfl=None)
    p.add_argument("--eps", type=float, default=0.01)

    p = sub.add_parser("sweep", help="amplitude sweep of the first two functionals")
    add_grid(p, t_max=32.0, cfl=None)
    p.add_argument("--eps-list", default="0.02,0.01,0.005,0.0025")
    p.add_argument("--p", type=float, default=0.75)
    p.add_argument("--delta", type=float, default=0.2)
    p.add_argument("--N", type=int, default=2)
    return ap, sub.choices


def _config_bool(key: str, value: str) -> bool:
    if value.lower() not in ("1", "true", "yes", "0", "false", "no"):
        raise ValueError(f"config file: {key} = {value!r} is not 1/0, true/false or yes/no")
    return value.lower() in ("1", "true", "yes")


def _parse(argv):
    ap, commands = _build_parser()
    # the first pass finds --config and the subcommand; the file's values then
    # become argparse defaults, so any explicit flag wins and each flag's type
    # converts the file's strings
    pre, _ = ap.parse_known_args(argv)
    if pre.config:
        config = _read_config_file(pre.config)
        unknown = sorted(set(config) - set(vars(pre)))
        if unknown:
            raise ValueError(f"unknown config key {unknown[0]!r}")
        sub = commands[pre.command]
        own = vars(sub.parse_args([]))
        ap.set_defaults(**{k: v for k, v in config.items() if k not in own})
        sub.set_defaults(**{k: _config_bool(k, v) if isinstance(own[k], bool) else v
                            for k, v in config.items() if k in own})
        try:
            sub.parse_args([])
        except argparse.ArgumentError as exc:
            raise ValueError(f"config file: {exc}") from None
    return ap.parse_args(argv)


def _grid(args) -> GridSpec:
    r_max = args.r_max if args.r_max is not None else args.t_max + 4
    return GridSpec(dr=args.dr, cfl=getattr(args, "cfl", 1.0), r_max=r_max, t_max=args.t_max)


def _outdir(args) -> str:
    out = args.out or os.environ.get(ENV_OUTDIR) or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write_report(outdir: str, name: str, payload: dict) -> str:
    path = os.path.join(outdir, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1, default=lambda x: x.item())
        fh.write("\n")
    return path


def _write_csv(path: str, header: list[str], rows) -> None:  # rows: any iterable of rows
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _cmd_solve(args) -> int:
    grid = _grid(args)
    outdir = _outdir(args)
    data = calibrate(InitialData(bump, zero_profile, bump, zero_profile),
                     grid, 2, args.eps)
    cfg = SolveConfig(grid=grid, mode=args.mode, store_history=not args.no_history)
    hist = solve(data, cfg)
    tag = config_hash({"cmd": "solve", "eps": args.eps, "mode": args.mode,
                       **asdict(grid)})
    run_dir = os.path.join(outdir, f"solve_{tag}")
    if not args.no_history:
        hist.save(run_dir)
    else:
        os.makedirs(run_dir, exist_ok=True)
    d = hist.diagnostics
    _write_csv(os.path.join(run_dir, "diagnostics.csv"), list(d), zip(*d.values()))
    _write_report(run_dir, "report", {
        "config_hash": tag, "grid": asdict(grid), "eps": args.eps,
        "mode": args.mode, "final_sup_u": float(d["sup_u"][-1]),
        "final_sup_v": float(d["sup_v"][-1]),
    })
    print(f"solve: history written to {run_dir}")
    return 0


def _require(flag: str, value: float, ok: bool, what: str) -> None:
    """Refuse a parameter before the first field is built; a NaN fails every
    comparison, so it is refused too."""
    if not ok:
        raise ValueError(f"{flag} must {what}, got {value}")


def _check_p_delta(args) -> None:
    _require("--p", args.p, 0 < args.p < 2, "lie in (0, 2)")
    _require("--delta", args.delta, 0 < args.delta < math.inf, "be finite and positive")


def _cmd_identities(args) -> int:
    _check_p_delta(args)
    _require("--ghost-U", args.ghost_U, 1 <= args.ghost_U < math.inf, "be finite and at least 1")
    _require("--tol", args.tol, 0 < args.tol < math.inf, "be finite and positive")
    grid = _grid(args)
    outdir = _outdir(args)
    rows, ok = [], True
    for fam, maker in registry.ANALYTIC_FAMILIES.items():
        w = maker(grid)
        for rep in (estimates.check_identity_plus(w, args.p, args.ghost_U),
                    estimates.check_identity_minus(w, args.delta)):
            passed = rep.relative_residual <= args.tol
            ok = ok and passed
            rows.append([fam, rep.name, rep.lhs, rep.rhs,
                         rep.relative_residual, "pass" if passed else "FAIL"])
    tag = config_hash({"cmd": "identities", "p": args.p, "delta": args.delta,
                       "tol": args.tol, **asdict(grid)})
    _write_csv(os.path.join(outdir, f"identities_{tag}.csv"),
               ["family", "identity", "lhs", "rhs", "relative_residual", "status"], rows)
    _write_report(outdir, f"identities_{tag}", {
        "config_hash": tag, "grid": asdict(grid), "tol": args.tol,
        "rows": rows, "all_passed": ok,
    })
    for row in rows:
        print(" ".join(_fmt(x) for x in row))
    return 0 if ok else 2


def _cmd_estimates(args) -> int:
    _check_p_delta(args)
    grid = _grid(args)
    outdir = _outdir(args)

    def entry(fam, name, rep):
        return [fam, name, rep.lhs, rep.rhs, rep.ratio,
                "pass" if np.isfinite(rep.ratio) else "FAIL"]

    fields = {fam: maker(grid) for fam, maker in registry.ANALYTIC_FAMILIES.items()}
    rows = [entry(fam, rep.name, rep) for fam, u in fields.items()
            for rep in (estimates.check_hardy(u, args.p, fam),
                        estimates.check_le(u, fam),
                        estimates.check_mr(u, args.p, fam),
                        estimates.check_newle(u, args.p, args.delta, fam))]
    # the Klainerman-Sobolev checks on the slab tau = 8; one that misses the
    # grid reads 0 over 0, ratio 0.0
    for fam, kind, s in registry.KS_COMBOS:
        u = fields[fam]
        rows += [entry(fam, f"ks_{kind}{s}", estimates.check_spacetime_ks(u, 8, kind, s, fam)),
                 entry(fam, f"d2ks_{kind}{s}",
                       estimates.check_second_derivative_ks(u, 8, kind, s, fam))]
    ok = all(status == "pass" for *_, status in rows)
    tag = config_hash({"cmd": "estimates", "p": args.p, "delta": args.delta,
                       **asdict(grid)})
    _write_csv(os.path.join(outdir, f"estimates_{tag}.csv"),
               ["family", "estimate", "lhs", "rhs", "ratio", "status"], rows)
    _write_report(outdir, f"estimates_{tag}", {
        "config_hash": tag, "grid": asdict(grid), "rows": rows,
        "all_passed": ok,
    })
    for row in rows:
        print(" ".join(_fmt(x) for x in row))
    return 0 if ok else 2


def _cmd_picard(args) -> int:
    grid = _grid(args)
    outdir = _outdir(args)
    cfg = picard.PicardConfig(grid=grid, eps=args.eps, p=args.p,
                              delta=args.delta, N=args.N, kmax=args.kmax,
                              outdir=outdir)
    try:
        records = picard.run_iteration(cfg)
    except picard.NonContraction as exc:
        records = exc.records
        verdict = {"bounded": False, "reason": str(exc)}
    else:
        verdict = picard.check_boundedness(records, args.eps)
    tag = config_hash(cfg.descriptor())
    rows = [[r.k, r.m_total, r.a_total,
             r.contraction_ratio if r.contraction_ratio is not None else "",
             r.wall_time] for r in records]
    _write_csv(os.path.join(outdir, f"picard_{tag}.csv"),
               ["k", "m_total", "a_total", "contraction_ratio", "wall_time"], rows)
    _write_report(outdir, f"picard_{tag}_report", {
        "config_hash": tag, "config": {**cfg.descriptor(), "kmax": cfg.kmax},
        "records": [r.to_json() for r in records], "verdict": verdict,
    })
    for r in records:
        print(f"k={r.k} M={_fmt(r.m_total)} A={_fmt(r.a_total)} "
              f"ratio={_fmt(r.contraction_ratio) if r.contraction_ratio is not None else '-'}")
    return 0 if verdict.get("bounded") else 2


def _cmd_decay(args) -> int:
    grid = _grid(args)
    outdir = _outdir(args)
    diags = picard.decay_run(grid, args.eps)
    fit = picard.fit_decay(diags)
    tag = config_hash({"cmd": "decay", "eps": args.eps, **asdict(grid)})
    _write_csv(os.path.join(outdir, f"decay_{tag}.csv"), list(diags), zip(*diags.values()))
    _write_report(outdir, f"decay_{tag}", {
        "config_hash": tag, "grid": asdict(grid), "eps": args.eps, "fit": fit,
    })
    print(f"decay: exponent_u={_fmt(fit['exponent_u'])} "
          f"exponent_v={_fmt(fit['exponent_v'])}")
    return 0


def _cmd_sweep(args) -> int:
    grid = _grid(args)
    outdir = _outdir(args)
    eps_list = [float(s) for s in args.eps_list.split(",") if s.strip()]
    if len(set(eps_list)) < 2:  # the linearity checks compare each value with the first
        raise ValueError(f"--eps-list needs at least two distinct values: {args.eps_list!r}")
    configs = [picard.PicardConfig(grid=grid, eps=eps, p=args.p, delta=args.delta,
                                   N=args.N, kmax=2) for eps in eps_list]
    rows = []
    for eps, cfg in zip(eps_list, configs):
        records = picard.run_iteration(cfg)
        m1 = records[0].m_total
        m2 = records[1].m_total if len(records) > 1 else float("nan")
        rows.append([eps, m1, m2, m2 - m1])
    tag = config_hash({"cmd": "sweep", "eps_list": eps_list, **asdict(grid)})
    _write_csv(os.path.join(outdir, f"sweep_{tag}.csv"),
               ["eps", "m1", "m2", "m2_minus_m1"], rows)
    # linearity of M1 and quadratic behavior of the first correction
    base_eps, base_m1, _, base_d = rows[0]
    lin_ok = all(abs((m1 / base_m1) / (eps / base_eps) - 1) <= 0.05
                 for eps, m1, _, _ in rows[1:])
    quad_ok = all(
        abs((d / base_d) / (eps / base_eps) ** 2 - 1) <= 0.20
        for eps, _, _, d in rows[1:]) if base_d != 0 else False
    _write_report(outdir, f"sweep_{tag}", {
        "config_hash": tag, "grid": asdict(grid), "rows": rows,
        "m1_linear": lin_ok, "correction_quadratic": quad_ok,
    })
    for row in rows:
        print(" ".join(_fmt(x) for x in row))
    return 0 if (lin_ok and quad_ok) else 2


_COMMANDS = {
    "solve": _cmd_solve,
    "identities": _cmd_identities,
    "estimates": _cmd_estimates,
    "picard": _cmd_picard,
    "decay": _cmd_decay,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as exc:  # from argparse, which printed the usage and the error
        if exc.code:  # its 2 would read as a failed check
            return 1
        raise  # --help
    except BlowUpSuspected as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
