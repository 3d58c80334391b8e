"""Self-tests of the benchmark harness.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostspeed  # noqa: E402
import workloads  # noqa: E402
from ginfield.bessel import build_root_table  # noqa: E402
from ginfield.ginibre import draw_seed, sample_matrix  # noqa: E402
from ginfield.linstats import limit_covariance  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def table():
    return build_root_table(64, 8)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    wl = workloads.WORKLOADS[name]
    assert wl.inputs(5, 10) == wl.inputs(5, 10)
    assert wl.inputs(5, 10) != wl.inputs(6, 10)
    assert all(wl.items(c) >= 1 for c in wl.inputs(5, 10))


def test_generated_matrices_follow_the_seed():
    wl = workloads.WORKLOADS["mc_n256"]

    def first_matrix(seed):
        return sample_matrix(16, draw_seed(wl.inputs(seed, 1)[0]["master_seed"], 0))

    assert np.array_equal(first_matrix(5), first_matrix(5))
    assert not np.array_equal(first_matrix(5), first_matrix(6))


def test_metric_names_and_units():
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in metrics)
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


def test_self_time_subtracts_children():
    tr = Tracer("t")
    # parent [0, 10] with children [1, 3] and [4, 8]; grandchild [5, 6]
    tr.names = ["a", "b", "b", "c"]
    tr.starts = [0.0, 1.0, 4.0, 5.0]
    tr.ends = [10.0, 3.0, 8.0, 6.0]
    tr.parents = [-1, 0, 0, 2]
    assert tr.self_times() == {"a": 4.0, "b": 5.0, "c": 1.0}
    assert tr.durations("b") == [2.0, 4.0]


def test_scaling_cancels_host_speed():
    ref = hostspeed.REF_SECONDS
    # a host twice as slow doubles both the chunk and the reference times
    assert hostspeed.scaled([3.0, 1.0], [ref] * 3) == pytest.approx(4.0)
    assert hostspeed.scaled([6.0, 2.0], [2 * ref] * 3) == pytest.approx(4.0)
    # each chunk is scaled by the mean of the probes around it
    assert hostspeed.scaled([3.0, 1.0], [ref, 3 * ref, ref]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        hostspeed.scaled([1.0, 1.0], [ref, ref])


def limit_law_gamma(table, draws, rng):
    """gamma draws over the grid from the limit law, as a correct output."""
    G = np.empty((draws, len(workloads.GRID)), dtype=complex)
    for j, (n, k) in enumerate(workloads.GRID):
        var = limit_covariance((n, k), (n, k), table)[0].real
        if n == 0:
            G[:, j] = math.sqrt(var) * rng.standard_normal(draws)
        else:
            G[:, j] = math.sqrt(var / 2) * (
                rng.standard_normal(draws) + 1j * rng.standard_normal(draws)
            )
    return G


def test_wrong_gamma_raises_failures(table):
    wl = workloads.WORKLOADS["mc_n256"]
    G = limit_law_gamma(table, 400, np.random.default_rng(0))

    def failed(G):
        return wl.check(None, [{"gamma": {256: G[:200]}}, {"gamma": {256: G[200:]}}],
                        table).failed(400)

    assert failed(G) == 0
    bad = G.copy()
    bad[7, 3] = np.nan
    assert failed(bad) == 1
    assert failed(3.0 * G) == 400


def test_wrong_tightness_raises_failures(table):
    wl = workloads.WORKLOADS["mc_small_n"]

    def output(G):
        return {N: {"gamma": {N: G}, "tightness": {N: wl._statistic(G, N, 0, table)}}
                for N in wl.sizes}

    def failed(outputs):
        merged = [{key: {N: outputs[N][key][N] for N in wl.sizes}
                   for key in ("gamma", "tightness")}]
        return wl.check(None, merged, table).failed(800)

    G = limit_law_gamma(table, 400, np.random.default_rng(1))
    assert failed(output(G)) == 0
    assert failed(output(2.0 * G)) == 800
    wrong = output(G)
    wrong[16]["tightness"][16] *= 0.5
    assert failed(wrong) == 800


def test_wrong_variance_raises_failures(table):
    wl = workloads.WORKLOADS["exact_variance"]
    good = {("bound", 8, 1, 1): 0.01, ("bound", 8, 2, 1): 0.02, ("decay", 16, 32, 1): 1e-4}
    assert wl.check(None, [good], table).failed(3) == 0
    assert wl.check(None, [{**good, ("bound", 8, 1, 1): -1e-3}], table).failed(3) == 1
    assert wl.check(None, [{**good, ("bound", 8, 1, 1): 100.0}], table).failed(3) == 3
    assert wl.check(None, [{**good, ("decay", 16, 32, 1): 1.0}], table).failed(3) == 3


def test_wrong_field_raises_failures():
    wl = workloads.WORKLOADS["limit_field"]
    table = build_root_table(32, 32)
    rng = np.random.default_rng(2)
    from ginfield.field import expected_norm_sq

    expected = expected_norm_sq(1.0, wl.cutoff, table)
    target = -0.5 * math.log(0.7)
    good = {
        "norms": expected * (1.0 + 0.1 * rng.standard_normal(100)),
        "covs": target + 0.01 * rng.standard_normal(8),
    }

    def failed(**change):
        return wl.check(None, [{**good, **change}], table).failed(108)

    assert failed() == 0
    assert failed(norms=1.5 * good["norms"]) == 108
    assert failed(covs=good["covs"] + 0.2) == 108
    assert failed(norms=np.where(np.arange(100) == 3, np.nan, good["norms"])) == 108


def test_traced_route_matches_untraced(table):
    wl = workloads.WORKLOADS["mc_small_n"]
    chunk = {"master_seed": 3, "draws": {16: 3, 64: 2}}
    tr = Tracer("t")
    assert wl.diff(wl.run(chunk, table), wl.traced(chunk, table, tr)) <= workloads.ROUTE_TOL
    assert len(tr.durations("ginibre.eigenvalues")) == 5
    assert len(tr.durations("logkernel.alpha_radial")) == 5 * len(workloads.GRID)


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_prints_every_metric_with_unit(trace):
    p = run_bench(ROOT, "--workload", "mc_small_n", "--seed", "3", "--seconds", "0.1",
                  "--trace", trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
        for m in listed
    }


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = run_bench(tmp_path, "--workload", "mc_n256", "--seed", "1", "--seconds", "1")
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
