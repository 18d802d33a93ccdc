"""Repeat benchmark runs over seeds and summarize every metric.

    python3 perfbench/validate.py --workloads ladder,sweep --seeds 1-10 --out FILE

For each workload and metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), the spread (q3 - q1) / median and the
metric's bound from BENCHMARK.json, and writes all of it, with every
run's raw result line, to --out as JSON.  Runs are sequential.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}

    report = {"trace": args.trace, "seeds": args.seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                    "--trace", str(args.trace)]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                raise SystemExit(f"{workload} seed {seed} exited {done.returncode}: {done.stderr[-800:]}")
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "detail": json.loads(lines[-2]), "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}", flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else None
            summary[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds.get(name), "values": values}
            flag = ""
            if bounds.get(name) and spread is not None and name != "setup_s":
                flag = "  OVER BOUND" if spread > bounds[name] else (
                    "  over a third of bound" if spread > bounds[name] / 3 else "")
            print(f"  {name:36s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread if spread is None else round(spread, 4)}{flag}", flush=True)
        report["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)


if __name__ == "__main__":
    main()
