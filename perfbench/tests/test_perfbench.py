"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench/tests -q

They start the benchmark's worker processes, so they take about a minute.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

from tracer import ROUTES  # noqa: E402

WORKLOADS = ("picard", "decay", "estimates")
SEED = 7

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)
LAYERS = [m["name"] for m in SPEC["per_layer"]]


def _worker(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--seed", str(SEED), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: _worker(w, 1) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_outputs_pass_their_checks(traced, workload):
    r = traced[workload]
    assert r["attempted"] > 0
    assert r["failures"] == []


@pytest.mark.parametrize("layer", sorted(ROUTES))
def test_each_layer_is_intercepted_where_it_should_move(traced, layer):
    _, workloads = ROUTES[layer]
    for w in workloads:
        assert traced[w]["calls"].get(layer, 0) >= 1, (layer, w)


def test_every_per_layer_metric_is_reported(traced):
    for w in WORKLOADS:
        # trace.overhead_s needs the untraced runs and is added by run.py
        assert set(LAYERS) - {"trace.overhead_s"} <= set(traced[w]["layers"])


def test_functional_layers_do_no_work_on_decay(traced):
    calls = traced["decay"]["calls"]
    for layer in ("regions.realize_mask", "norms.region_supsup", "grid.derivative",
                  "norms.m_functional", "norms.a_functional"):
        assert layer not in calls


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_digest_equals_untraced(traced, workload):
    assert _worker(workload, 0)["digest"] == traced[workload]["digest"]


def test_picard_counts_are_exact(traced):
    layers = traced["picard"]["layers"]
    assert layers["grid.derivative.calls"] == 922
    assert layers["regions.realize_mask.calls"] == 372
    assert round(layers["regions.realize_mask.distinct_ratio"] * 372) == 31
    assert layers["norms.region_supsup.calls"] == 672


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "picard", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
