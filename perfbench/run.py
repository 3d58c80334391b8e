"""ginfield benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload mc_n256 --seed 1 --seconds 10 --trace 0

It measures one workload (see perfbench/README.md and BENCHMARK.json),
checks the outputs, and prints as its last line one JSON object with the
keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, measured untraced; with
--trace 1 they are its per-layer metrics, taken from spans around each call
into a layer.  The end-to-end times are scaled to a reference host speed
measured around every chunk of work (see hostspeed.py).  The lines before
the result hold the environment, the values the checks looked at and the raw
times.  The full record, with the per-chunk times and, after a traced run,
the spans, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up is timed this many times in fresh interpreters; the median counts.
SETUP_PROBES = 3
SETUP_REFS = 3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread unless the caller chose otherwise: with a thread per core,
# any other load on a shared host slows the LAPACK calls tenfold or more.
# Set before numpy loads; set-up probes and pool workers inherit it.
BLAS_PINNED = [var for var in BLAS_ENV if var not in os.environ]
for _var in BLAS_PINNED:
    os.environ[_var] = "1"

import hostspeed  # noqa: E402  (loads numpy, so after the BLAS setting)


def parse_args(argv):
    p = argparse.ArgumentParser(description="ginfield benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: do the set-up of --workload and exit (timed by the parent)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_workloads():
    """The workloads module, importing ginfield from this checkout's src/."""
    if not (SRC / "ginfield" / "__init__.py").is_file():
        raise SystemExit(f"error: no ginfield sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import ginfield
    import workloads

    if Path(ginfield.__file__).resolve().parent != SRC / "ginfield":
        raise SystemExit(f"error: imported ginfield from {ginfield.__file__}, not {SRC}")
    return workloads


def setup_seconds(workload):
    """Median reference-host wall time of SETUP_PROBES fresh interpreters
    that import the benchmark and ginfield and build the workload's root
    table, and the raw times.  Each interpreter then runs SETUP_REFS
    reference probes on the core it ran on; their time is taken off its wall
    time, and their median sets its scale."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", "0", "--seconds", "1", "--setup-probe"]
    samples, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        wall = time.perf_counter() - t0
        refs = json.loads(out.stdout.splitlines()[-1])
        samples.append(wall - sum(refs))
        scaled.append(samples[-1] * hostspeed.REF_SECONDS / statistics.median(refs))
    return statistics.median(scaled), samples


def cpu_seconds():
    """User plus system CPU time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def environment(workers):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        **{var: os.environ.get(var) for var in BLAS_ENV},
        "blas_threads_set_by_benchmark": BLAS_PINNED,
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers,
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def timed_chunks(fn, chunks, *args):
    """Outputs, wall seconds and CPU seconds of fn(chunk, *args) per chunk,
    and the (wall, CPU) reference probes before each chunk and after the
    last."""
    outputs, walls, cpus = [], [], []
    refs = [hostspeed.probe()]
    for chunk in chunks:
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        outputs.append(fn(chunk, *args))
        walls.append(time.perf_counter() - t0)
        cpus.append(cpu_seconds() - c0)
        refs.append(hostspeed.probe())
    return outputs, walls, cpus, refs


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        wl_mod = import_workloads()
        from ginfield.bessel import build_root_table

        build_root_table(*wl_mod.WORKLOADS[args.workload].table_size)
        print(json.dumps([hostspeed.probe()[0] for _ in range(SETUP_REFS)]))
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl_mod = import_workloads()
    from ginfield.bessel import build_root_table
    from spans import Tracer

    if args.workload not in wl_mod.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    wl = wl_mod.WORKLOADS[args.workload]
    hostspeed.probe()  # the first LAPACK call can stall; keep it out of the timed probes
    setup_s, setup_samples = setup_seconds(args.workload)
    tracer = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}") if args.trace else None
    t0 = time.perf_counter()
    if tracer:
        table = tracer.call("bessel.build_root_table", build_root_table, *wl.table_size)
    else:
        table = build_root_table(*wl.table_size)
    table_s = time.perf_counter() - t0
    table_ok, residual, deviation = wl_mod.check_root_table(table)

    chunks = wl.inputs(args.seed, args.seconds)
    attempted = sum(wl.items(c) for c in chunks)
    wl.run(wl.warmup(), table)
    outputs, walls, cpus, refs = timed_chunks(wl.run, chunks, table)
    untraced_s = sum(walls)
    timed_s = hostspeed.scaled(walls, [wall for wall, _ in refs])
    raw = {"setup_s": statistics.median(setup_samples), "timed_s": untraced_s,
           "cpu_s": sum(cpus)}
    verdict = wl.check(chunks, outputs, table)
    verdict.ok &= table_ok
    verdict.detail.update(root_residual=residual, root_deviation=deviation)
    workers = 1

    if tracer:
        traced_outputs, traced_walls, _, _ = timed_chunks(wl.traced, chunks, table, tracer)
        traced_s = sum(traced_walls)
        route_diff = max(wl.diff(a, b) for a, b in zip(outputs, traced_outputs))
        verdict.ok &= route_diff <= wl_mod.ROUTE_TOL
        verdict.detail["route_diff"] = route_diff
        extra, extra_ok = wl.extra(chunks, table, outputs, walls)
        verdict.ok &= extra_ok
        if extra:
            workers = wl_mod.nproc()
        selfs = tracer.self_times()
        measured = {
            "bessel.build_root_table_s": table_s,
            "bessel.roots": table.roots.size,
            "bessel.max_residual": residual,
            "ginibre.eigensolve_share": selfs.get("ginibre.eigenvalues", 0.0) / traced_s,
            "ginibre.pair_variance_share": sum(tracer.durations("ginibre.pair_variance"))
            / traced_s,
            "trace.untraced_s": untraced_s,
            "trace.traced_s": traced_s,
            "trace.overhead_s": traced_s - untraced_s,
            "trace.spans": len(tracer.names),
            **wl.layer_metrics(chunks, traced_outputs, tracer),
            **extra,
            **{f"{name}.self_s": v for name, v in selfs.items()},
        }
        listed = spec["per_layer"]
    else:
        measured = {
            "setup_s": setup_s,
            "total_s": setup_s + timed_s,
            "items_per_s": attempted / timed_s,
            "cpu_s": hostspeed.scaled(cpus, [cpu for _, cpu in refs]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": 1.0 - verdict.failed(attempted) / attempted,
        }
        listed = spec["end_to_end"]

    unknown = set(measured) - {m["name"] for m in listed}
    if unknown:
        raise SystemExit(f"error: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # a per-layer metric of a layer this workload does not call reads 0
    metrics = {
        m["name"]: {"value": float(measured.get(m["name"], 0.0)), "unit": m["unit"]}
        for m in listed
    }
    failed = verdict.failed(attempted)
    env = environment(workers)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "setup_samples_s": setup_samples,
        "chunk_s": walls,
        "chunk_cpu_s": cpus,
        "reference_s": refs,
        "raw": raw,
        "checks": verdict.detail,
        "metrics": metrics,
    }
    if tracer:
        record["spans"] = tracer.to_records()
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, default=float))

    print("env " + json.dumps(env))
    print("checks " + json.dumps(verdict.detail, default=float))
    print("raw " + json.dumps(raw))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
