"""Benchmark for evorate: runs one workload and prints its metrics as JSON.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 26 --trace 0

Workloads: ladder, sweep, ensemble, sample (see README.md).  The run
imports evorate from src/ next to this directory, makes the workload's
inputs, repeats passes of the workload until the next one would end
after --seconds, then checks every answer against an independent
reference.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json under --trace 0, and its
per-layer metrics under --trace 1.  A traced run alternates an untraced
and a traced pass over the same inputs; the gap between them is
`trace.overhead_s`.  The line before it records the environment.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("ladder", "sweep", "ensemble", "sample")
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=20240817)
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small inputs, for the smoke check")
    parser.add_argument(
        "--stream-seed",
        type=int,
        help="draw the ensemble from this seed instead of acceptance criterion 5's",
    )
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or (args.stream_seed or 0) < 0:
        parser.error("seeds must be nonnegative")
    if args.stream_seed is not None and args.workload != "ensemble":
        parser.error("--stream-seed applies to the ensemble workload only")
    return args


def set_up(args, workdir):
    """Import evorate and make the workload's inputs; returns (workload, seconds)."""
    start = time.perf_counter()
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    extra = {} if args.stream_seed is None else {"stream_seed": args.stream_seed}
    workload = cls(args.seed, workdir, args.tiny, **extra)
    return workload, time.perf_counter() - start


def setup_in_child(args) -> float:
    """Set-up seconds measured in a fresh interpreter, as a CLI user pays them."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed)]
    if args.tiny:
        argv.append("--tiny")
    if args.stream_seed is not None:
        argv += ["--stream-seed", str(args.stream_seed)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(workload, seconds, tracer=None):
    """Repeat passes (untraced, or untraced/traced pairs) within the budget."""
    import spans

    plain, traced, outcomes, latencies, layers, captured = [], [], [], [], [], []
    main_thread = threading.get_ident()
    started = time.perf_counter()
    index = 0
    while True:
        unit_start = time.perf_counter()
        lat, outs = workload.run_pass(index)
        index += 1
        plain.append(sum(lat))
        latencies += lat
        outcomes += outs
        if tracer is not None:
            tracer.install()
            try:
                lat, outs = workload.run_pass(index)
            finally:
                tracer.uninstall()
            index += 1
            wall = sum(lat)
            traced.append(wall)
            outcomes += outs
            recorded = tracer.take()
            layers.append(spans.layer_metrics(recorded, wall, main_thread))
            captured += [
                s.meta for s in recorded if s.label == "sweep.evaluate" and s.meta
            ]
        unit = time.perf_counter() - unit_start
        if time.perf_counter() - started + unit > seconds:
            break
    return plain, traced, outcomes, latencies, layers, captured


def latency_ms(latencies, q):
    """The q-th percentile in ms, taken as the sample at or below its rank.

    Workloads with a few calls per run would otherwise let one slow pass
    set p95 by interpolating towards the maximum.
    """
    import numpy as np

    return float(np.percentile(latencies, q, method="lower")) * 1e3


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "evorate", "__init__.py")):
        print(f"run.py: no evorate sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("EVORATE_THREADS", None)
    sys.path.insert(0, SRC)
    workdir = os.path.join(HERE, ".work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(workdir))


def run(args, workdir) -> int:
    workload, setup_s = set_up(args, workdir)
    import evorate

    if not os.path.abspath(evorate.__file__).startswith(SRC + os.sep):
        print(f"run.py: imported evorate from {evorate.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    plain, traced, outcomes, latencies, layers, captured = run_passes(
        workload, args.seconds, tracer
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import reference

    refs = reference.ReferenceCache()
    failed, wrong, rate_errors = 0, [], []
    for outcome in outcomes:
        reason, err = reference.check(outcome, refs)
        if err is not None:
            rate_errors.append(err)
        if reason is not None:
            wrong.append(reason)
        if reason is not None or (outcome.error is not None and outcome.expect != "reducible"):
            failed += 1
    errors = sorted({o.error for o in outcomes if o.error and o.expect != "reducible"})

    import numpy as np
    import scipy

    from evorate.sweep import worker_count

    print(json.dumps({
        "env": {
            "nproc": os.cpu_count(),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "worker_count": worker_count(),
        },
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "passes": len(plain) + len(traced),
        "latency_samples": len(latencies),
        "errors": errors[:5],
        "wrong": wrong[:5],
    }))

    if args.trace:
        metrics = {
            name: {"value": statistics.median(layer[name] for layer in layers), "unit": unit}
            for name, unit in spans.UNITS.items()
        }
        metrics["trace.overhead_s"] = {
            "value": statistics.median(t - p for t, p in zip(traced, plain)), "unit": "s"
        }
        l1_errors = [
            reference.l1_error(refs.get(meta["config"]), meta["result"].stationary.probabilities)
            for meta in captured
        ]
        metrics["stationary.l1_err_max"] = {"value": max(l1_errors, default=0.0), "unit": "prob"}
        metrics["rate_err_max"] = {"value": max(rate_errors, default=0.0), "unit": "nats"}
        metrics["failed_frac"] = {"value": failed / len(outcomes), "unit": "ratio"}
    else:
        setups = [setup_s] + [setup_in_child(args) for _ in range(SETUP_REPEATS - 1)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "process_p50_ms": {"value": latency_ms(latencies, 50), "unit": "ms"},
            "process_p95_ms": {"value": latency_ms(latencies, 95), "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
