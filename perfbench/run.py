"""radialwave benchmark.

    python3 perfbench/run.py --workload {picard,decay,estimates} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/`` there.
Every repetition runs in a fresh process (``worker.py``), one at a time.
``--trace 0`` repeats the workload untraced until ``--seconds`` is used up and
reports the end-to-end metrics of BENCHMARK.json as medians over
repetitions.  ``--trace 1`` makes one traced repetition, whose spans give the
per-layer metrics, then untraced ones for the tracing overhead.  Every
repetition checks its outputs; the last line of output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUP_PROBES = 9      # extra set-up-only processes per untraced run
MIN_REPS = 2          # untraced repetitions, so the digests can be compared
CHILD_LIMIT_S = 170   # a run must end within 180 s

sys.path.insert(0, HERE)
from tracer import ROUTES  # noqa: E402
from worker import EPS_BAND, SCALE_BAND  # noqa: E402


def spawn(argv, deadline):
    """Run one worker process; return (its JSON result or None, seconds taken)."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, WORKER, *argv], cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        error = "timed out"
    else:
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1]), time.perf_counter() - t0
        error = f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    print(f"worker {' '.join(argv)} failed: {error}", file=sys.stderr)
    return None, time.perf_counter() - t0


def _cache_sizes() -> dict:
    """Cache sizes of cpu0 in KiB by level, read from sysfs."""
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return out
    for entry in entries:
        try:
            with open(os.path.join(base, entry, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(base, entry, "type")) as fh:
                kind = fh.read().strip()
            with open(os.path.join(base, entry, "size")) as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            out[f"L{level}"] = int(size[:-1])
    return out


def _openblas_threads():
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ln.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _git_sha():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def provenance(bench: dict, workload: str, first: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    caches = _cache_sizes()
    shape = first.get("array_shape")
    array_mb = shape[0] * shape[1] * 8 / 2**20 if shape else None
    l3_mb = caches["L3"] / 1024 if "L3" in caches else None
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
        "git_sha": _git_sha(),
        "cache_kib": caches,
        "workload": workload,
        "why": why[workload],
        "seed_band": {"eps": EPS_BAND, "estimates_scale": SCALE_BAND},
        "inputs": first.get("inputs"),
        "array_shape": shape,
        "array_mb": array_mb,
        "array_over_l3": array_mb / l3_mb if array_mb and l3_mb else None,
        "routes": {layer: {"moves": m, "on": w} for layer, (m, w) in ROUTES.items()},
    }


def _summary(name, values, unit):
    line = f"{name} = {statistics.median(values):.6g} {unit} (median of {len(values)}"
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        line += f"; quartiles {q1:.6g} .. {q3:.6g}"
    return line + ")"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(ROOT, "src", "radialwave", "__init__.py")):
        print(f"perfbench: no radialwave sources under {ROOT}/src", file=sys.stderr)
        return 2

    start = time.perf_counter()
    deadline = start + CHILD_LIMIT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    results = []  # every worker's result, None for one that failed
    setups = []
    traced = None
    if args.trace:
        traced, _ = spawn(base + ["--trace", "1"], deadline)
        results.append(traced)
    else:
        for _ in range(SETUP_PROBES):
            probe, _ = spawn(base + ["--setup-only"], deadline)
            if probe is None:
                results.append(probe)
            else:
                setups.append(probe["setup_s"])
    reps, elapsed = [], []
    while True:
        rep, seconds = spawn(base, deadline)
        results.append(rep)
        elapsed.append(seconds)
        if rep is not None:
            reps.append(rep)
        budget_left = args.seconds - (time.perf_counter() - start)
        if len(reps) >= (1 if args.trace else MIN_REPS) and \
                statistics.median(elapsed) > budget_left:
            break
        if time.perf_counter() + seconds > deadline:
            break

    attempted = failed = 0
    for r in results:
        if r is None:
            attempted, failed = attempted + 1, failed + 1
        else:
            attempted += r["attempted"]
            failed += r["failed"]
            for label in r["failures"]:
                print(f"check failed: {label}", file=sys.stderr)
    if not reps:
        print("perfbench: no repetition completed", file=sys.stderr)
        return 1
    # same code, same seed: every repetition must write the same outputs
    reference = reps[0]["digest"]
    for r in reps[1:] + ([traced] if traced else []):
        attempted += 1
        if r["digest"] != reference:
            failed += 1
            print("check failed: output digest differs between repetitions",
                  file=sys.stderr)

    walls = [r["wall_s"] for r in reps]
    values = {
        "wall_s": walls,
        "setup_s": setups + [r["setup_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "points_per_s": [r["points"] / r["wall_s"] for r in reps],
        "pass_ratio": [1.0 - failed / attempted],
    }
    if traced:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
        values.update({k: [v] for k, v in layers.items()})
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 1

    print("provenance " + json.dumps(provenance(bench, args.workload, reps[0])))
    print(f"digest {reference}")
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for name, vals in values.items():
        # values BENCHMARK.json does not list are the per-layer seconds
        unit = units.get(name) or ("ns" if name.endswith("ns_per_point_step") else "s")
        print(_summary(name, vals, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": statistics.median(values[m["name"]]),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
