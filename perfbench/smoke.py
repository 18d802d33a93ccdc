"""Fast self-check of the benchmark itself.

    python3 perfbench/smoke.py

1. Runs every workload at tiny size, untraced and traced, and requires
   that the last line carries exactly the metrics BENCHMARK.json names,
   each with its unit, and that the correctness gate passed.
2. Requires the gate to accept the program's stationary vector and to
   reject the same vector with 1e-3 of its mass moved.
3. Requires the traced run to refuse to start when a wrapped name is gone.
4. Requires run.py to exit non-zero, without a result, in a directory
   that holds only BENCHMARK.json and this directory.
"""

import contextlib
import importlib
import json
import os
import shutil
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")


def require(condition, message):
    if not condition:
        raise SystemExit(f"smoke: FAILED: {message}")


def run_tiny(workload, trace):
    argv = [sys.executable, RUN, "--workload", workload, "--seed", "1",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)


def check_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in bench[group]}
        for workload in (w["name"] for w in bench["workloads"]):
            done = run_tiny(workload, trace)
            require(done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}: {done.stderr[-500:]}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            require(got == expected, f"{workload} trace={trace}: metrics differ from {group}: "
                    f"missing {sorted(set(expected) - set(got))}, extra {sorted(set(got) - set(expected))}, "
                    f"units {[n for n in got if n in expected and got[n] != expected[n]]}")
            require(result["correct"] and result["failed"] == 0, f"{workload} trace={trace}: {done.stdout[-800:]}")
            print(f"smoke: {workload} trace={trace} ok ({result['attempted']} answers checked)")


def check_gate_rejects_perturbation():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import numpy as np

    from evorate import GameMatrix, Incentive, Landscape, MutationModel, ProcessConfig, evaluate_process

    import reference
    from workloads import Outcome

    config = ProcessConfig(
        3, 12, Incentive.fermi(beta=1.5), MutationModel.uniform(0.05),
        Landscape.custom(GameMatrix([[0.0, 1.0, -0.5], [0.3, 0.0, 1.2], [1.0, -1.0, 0.0]])),
    )
    result = evaluate_process(config)
    refs = reference.ReferenceCache()
    s = np.array(result.stationary.probabilities)
    reason, _ = reference.check(Outcome(config, rate=result.report.entropy_rate, probabilities=s), refs)
    require(reason is None, f"gate rejected the program's own answer: {reason}")

    moved = s.copy()
    moved[np.argmax(s)] -= 1e-3
    moved[np.argmin(s)] += 1e-3
    for rate in (result.report.entropy_rate, float(moved @ result.report.per_state_entropy)):
        reason, _ = reference.check(Outcome(config, rate=rate, probabilities=moved), refs)
        require(reason is not None, f"gate accepted a perturbed vector with rate {rate!r}")
    reason, _ = reference.check(Outcome(config, expect="reducible", rate=result.report.entropy_rate), refs)
    require(reason is not None, "gate accepted a rate where the recurrent-class error belongs")
    print("smoke: gate rejects a perturbed stationary vector ok")


def check_trace_refuses_missing_name():
    import spans

    modules = {name: importlib.import_module(name) for name, _, _, _ in spans.WRAPPED}
    modules["evorate.kernel"] = types.ModuleType("evorate.kernel")
    tracer = spans.Tracer()
    try:
        tracer.install(modules)
    except LookupError as exc:
        require("evorate.kernel.build_kernel" in str(exc), f"unexpected message: {exc}")
    else:
        tracer.uninstall()
        require(False, "tracer installed although wrapped names are missing")
    print("smoke: traced run refuses a missing name ok")


def check_bare_directory_fails():
    bare = os.path.join(HERE, ".work", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        argv = [sys.executable, "perfbench/run.py", "--workload", "ladder",
                "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(argv, cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(os.path.dirname(bare))
    require(done.returncode != 0, "run.py succeeded without the evorate sources")
    require('"correct"' not in done.stdout, "run.py printed a result without the evorate sources")
    print("smoke: bare directory exits non-zero ok")


if __name__ == "__main__":
    check_metric_names()
    check_gate_rejects_perturbation()
    check_trace_refuses_missing_name()
    check_bare_directory_fails()
    print("smoke: all checks passed")
