"""Measure the baseline of the benchmark and write it to perfbench/baseline.json.

From the root of a source checkout:

    python3 perfbench/baseline.py --seeds 101-110

runs every workload of BENCHMARK.json untraced once per seed (seeds outer,
workloads inner, so that slow drifts of a shared machine spread over all
workloads) and traced once with the first seed.  It records per workload the
median and quartiles of each end-to-end metric, the spread (quartile distance
over median) against the metric's bound, and the share of the traced time that
each span's self time takes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def bench(workload, seed, seconds, trace):
    """The result line and the environment line of one benchmark run."""
    p = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = p.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[0].removeprefix("env "))


def summary(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound,
            "runs": len(values)}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=seed_range, default=seed_range("101-110"))
    p.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    runs = {w: [] for w in names}
    env = None
    for seed in args.seeds:
        for w in names:
            result, env = bench(w, seed, spec["run_seconds"], 0)
            runs[w].append(result)
            print(w, seed, result["correct"], flush=True)

    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        traced, _ = bench(name, args.seeds[0], spec["run_seconds"], 1)
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        traced_s = layers["trace.traced_s"]
        workloads[name] = {
            "why": w["why"],
            "failed": sum(r["failed"] for r in runs[name]),
            "attempted": sum(r["attempted"] for r in runs[name]),
            "end_to_end": {
                m["name"]: summary([r["metrics"][m["name"]]["value"] for r in runs[name]],
                                   m["bound"])
                for m in spec["end_to_end"]
            },
            "self_time_share": {
                k.removesuffix(".self_s"): v / traced_s
                for k, v in sorted(layers.items(), key=lambda kv: -kv[1])
                if k.endswith(".self_s") and v > 0 and k != "bessel.build_root_table.self_s"
            },
            "per_layer": layers,
            "traced_correct": traced["correct"],
        }
    record = {"seeds": args.seeds, "run_seconds": spec["run_seconds"], "env": env,
              "workloads": workloads}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
