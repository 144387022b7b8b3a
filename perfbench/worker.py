"""One repetition of one benchmark workload, in a process of its own.

    python3 perfbench/worker.py --workload picard --seed 1 [--trace 1] [--setup-only]

Prints one JSON object as its last line of output: set-up time, wall time,
peak RSS of this process, work done, the output checks made (each is one
attempted operation) and a digest of the outputs with timing fields removed.
``run.py`` starts it once per repetition, so every repetition pays the import
a user pays and reports its own peak RSS.
"""

import time

T0 = time.perf_counter()  # set-up starts before radialwave (and numpy) load

import argparse
import csv
import hashlib
import json
import math
import os
import random
import resource
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

# The seed draws only an amplitude, so it changes inputs, not work.
EPS_BAND = (0.005, 0.01)         # picard, decay: data size eps
SCALE_BAND = (0.1, 10.0)         # estimates: log-uniform factor on every field

# Sizes.  picard keeps criterion 5's horizon (4 dyadic slabs, 31 masks per
# functional call, 6 iterates) at a quarter of its dr; decay keeps criterion
# 7's horizon at half its dr; estimates is criterion 4's sweep one refinement
# coarser.  Each repetition then takes about 8 s on 2 cores, so a 40 s run
# holds four, and 70 runs fit the time one benchmark check may take.
PICARD = {"dr": 0.125, "t_max": 64.0, "kmax": 6}
DECAY = {"dr": 0.0625, "t_max": 256.0}
ESTIMATE_DRS = (1 / 16, 1 / 32)
ESTIMATE_GRID = {"cfl": 1.0, "r_max": 22.0, "t_max": 18.0}
P, DELTA = 0.75, 0.2

TIMING_FIELDS = {"wall_time"}
RESOLVED_A = 1e-12  # picard: smallest A_(k-1) / A_1 whose contraction ratio is judged


class Checks:
    """Checked operations of one repetition."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def __call__(self, ok, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(label)


def make_inputs(workload: str, seed: int, out: str) -> dict:
    from radialwave.grid import GridSpec

    rng = random.Random(seed)
    if workload == "estimates":
        scale = 10 ** rng.uniform(*(math.log10(b) for b in SCALE_BAND))
        grids = [GridSpec(dr=dr, **ESTIMATE_GRID) for dr in ESTIMATE_DRS]
        return {"scale": scale, "grids": grids}
    eps = rng.uniform(*EPS_BAND)
    size = PICARD if workload == "picard" else DECAY
    argv = ["--out", out, workload, "--dr", repr(size["dr"]),
            "--t-max", repr(size["t_max"]), "--eps", repr(eps)]
    if workload == "picard":
        argv += ["--kmax", str(size["kmax"])]
    # the CLI defaults: cfl 0.5, r_max = t_max + 4
    grid = GridSpec(dr=size["dr"], cfl=0.5, r_max=size["t_max"] + 4, t_max=size["t_max"])
    return {"eps": eps, "argv": argv, "grid": grid, "out": out}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _drop_timing(obj):
    if isinstance(obj, dict):
        return {k: _drop_timing(v) for k, v in obj.items() if k not in TIMING_FIELDS}
    if isinstance(obj, list):
        return [_drop_timing(v) for v in obj]
    return obj


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def digest_dir(path: str) -> str:
    """sha256 over every file under ``path``, with timing fields removed from
    JSON files and timing columns from CSV files."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            if name.endswith(".json"):
                with open(full) as fh:
                    blob = _drop_timing(json.load(fh))
                h.update(json.dumps(blob, sort_keys=True).encode())
            elif name.endswith(".csv"):
                rows = _drop_timing(_read_csv(full))
                h.update(json.dumps(rows).encode())
            else:
                with open(full, "rb") as fh:
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        h.update(chunk)
    return h.hexdigest()


def _only(out: str, prefix: str, suffix: str) -> str:
    names = [n for n in os.listdir(out) if n.startswith(prefix) and n.endswith(suffix)]
    if len(names) != 1:
        raise FileNotFoundError(f"expected one {prefix}*{suffix} in {out}, found {names}")
    return os.path.join(out, names[0])


def _run_cli(inp: dict):
    """Run the CLI into a fresh, empty --out; return (exit code, wall s, RSS MB)."""
    from radialwave import cli

    os.makedirs(inp["out"])  # raises if it exists: a leftover state file would be resumed
    t0 = time.perf_counter()
    rc = cli.main(inp["argv"])
    wall = time.perf_counter() - t0
    return rc, wall, peak_rss_mb()


def run_picard(inp: dict, check: Checks) -> dict:
    out = inp["out"]
    rc, wall, rss = _run_cli(inp)
    check(rc == 0, f"picard exit code {rc}")
    with open(_only(out, "picard_", "_report.json")) as fh:
        report = json.load(fh)
    records = report["records"]
    kmax = PICARD["kmax"]
    # resume guard: every iterate present and computed inside this call
    check([r["k"] for r in records] == list(range(1, kmax + 1)),
          f"records k = 1..{kmax}")
    check(sum(r["wall_time"] for r in records) <= wall,
          "iterates computed in this process")
    for r in records:
        check(math.isfinite(r["m_total"]) and math.isfinite(r["a_total"]),
              f"finite M, A at k={r['k']}")
    # Judge a ratio A_k / A_(k-1) only while A_(k-1) is resolved.  By k = 4
    # the iterates agree to within a few times the rounding floor of the
    # difference functional (about 5e-14 A_1 on this grid), so A_5 / A_4
    # is a quotient of rounding errors that lands anywhere in 0.1..0.55 as
    # eps varies, while A_4 / A_3 still follows the contraction smoothly.
    floor = RESOLVED_A * records[0]["a_total"]
    ratios = [r["contraction_ratio"] for prev, r in zip(records, records[1:])
              if r["k"] >= 3 and prev["a_total"] > floor]
    check(bool(ratios) and max(ratios) <= 0.5,
          f"contraction ratios {ratios} <= 0.5 (of those with A_(k-1) > {floor:.3g})")
    check(report["verdict"].get("bounded") is True, "bounded")
    g = inp["grid"]
    return {"wall_s": wall, "peak_rss_mb": rss,
            "points": kmax * g.nr * (g.nt - 1), "digest": digest_dir(out),
            "array_shape": [(g.nt - 1) // 2 + 1, g.nr]}  # stored history grid


def run_decay(inp: dict, check: Checks) -> dict:
    out = inp["out"]
    rc, wall, rss = _run_cli(inp)
    check(rc == 0, f"decay exit code {rc}")
    with open(_only(out, "decay_", ".json")) as fh:
        fit = json.load(fh)["fit"]
    rows = _read_csv(_only(out, "decay_", ".csv"))
    t_max = DECAY["t_max"]
    tu = [float(r["t"]) * float(r["sup_u"]) for r in rows
          if t_max / 8 <= float(r["t"]) <= t_max]
    factor = max(tu) / min(tu)
    eu, ev = fit["exponent_u"], fit["exponent_v"]
    check(abs(eu + 1.0) <= 0.15, f"|exponent_u + 1| = {abs(eu + 1.0):.3g} <= 0.15")
    check(factor <= 2.0, f"t sup|u| factor {factor:.3g} <= 2")
    check(ev <= eu + 0.05, f"exponent_v {ev:.4g} <= exponent_u + 0.05")
    g = inp["grid"]
    return {"wall_s": wall, "peak_rss_mb": rss, "points": g.nr * (g.nt - 1),
            "digest": digest_dir(out),
            "array_shape": [(g.nt - 1) // 2 + 1, g.nr]}  # placeholder history


def run_estimates(inp: dict, check: Checks) -> dict:
    from radialwave import estimates, registry
    from radialwave.grid import SpaceTimeField

    scale = inp["scale"]
    sweeps = []
    t0 = time.perf_counter()
    for grid in inp["grids"]:
        fields = {f: SpaceTimeField(grid, scale * registry.build(f, grid).values, "even")
                  for f in registry.ANALYTIC_FAMILIES}
        out = {}
        for fam, u in fields.items():
            out[f"{fam}/hardy"] = estimates.check_hardy(u, P, fam).ratio
            out[f"{fam}/le"] = estimates.check_le(u, fam).ratio
            out[f"{fam}/mr"] = estimates.check_mr(u, P, fam).ratio
            out[f"{fam}/newle"] = estimates.check_newle(u, P, DELTA, fam).ratio
        for fam, kind, s in registry.KS_COMBOS:
            u = fields[fam]
            out[f"{fam}/ks_{kind}{s}"] = estimates.check_spacetime_ks(u, 8, kind, s).ratio
            out[f"{fam}/d2ks_{kind}{s}"] = \
                estimates.check_second_derivative_ks(u, 8, kind, s).ratio
        sweeps.append(out)
    coarse = inp["grids"][0]
    plain = registry.build("standing_bump", coarse)
    gap = abs(sweeps[0]["standing_bump/mr"] - estimates.check_mr(plain, P).ratio)
    wall = time.perf_counter() - t0
    rss = peak_rss_mb()

    for sweep in sweeps:
        for key, ratio in sweep.items():
            check(math.isfinite(ratio), f"{key} finite")
    for key, c in sweeps[0].items():
        drift = abs(sweeps[1][key] - c) / c
        check(drift <= 0.05, f"{key} drift {drift:.4f} <= 0.05")
    check(gap <= 1e-10, f"rescale gap {gap:.3g} <= 1e-10")
    blob = json.dumps({"ratios": sweeps, "gap": gap}, sort_keys=True)
    fine = inp["grids"][-1]
    return {"wall_s": wall, "peak_rss_mb": rss,
            "points": sum(g.nt * g.nr for g in inp["grids"]) * len(registry.ANALYTIC_FAMILIES),
            "digest": hashlib.sha256(blob.encode()).hexdigest(),
            "array_shape": [fine.nt, fine.nr]}


RUNNERS = {"picard": run_picard, "decay": run_decay, "estimates": run_estimates}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and build the inputs, then stop")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "radialwave", "__init__.py")):
        print(f"worker: no radialwave sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import radialwave

    if not os.path.abspath(radialwave.__file__).startswith(SRC + os.sep):
        print(f"worker: radialwave loaded from {radialwave.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    out = os.path.join(OUT, tag)
    inputs = make_inputs(args.workload, args.seed, out)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=tag)
        tracer.install()
    check = Checks()
    try:
        result = RUNNERS[args.workload](inputs, check)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    result.update(setup_s=setup_s, attempted=check.attempted,
                  failed=len(check.failures), failures=check.failures,
                  inputs={k: v for k, v in inputs.items() if k in ("eps", "scale")})
    if tracer is not None:
        result["layers"] = tracer.metrics(result["wall_s"])
        result["calls"] = {name: c for name, (c, _, _) in tracer.self_times().items()}
        tracer.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
