"""The four workloads: inputs made at set-up, one pass of timed work, checks.

Every workload is a fixed amount of work per pass, so passes within a
run and runs with different seeds measure the same thing; the seed
changes only what does not change the cost (the order of items and the
sampler's random stream).  Why each workload exists is in README.md.

A pass returns one latency per item the user would wait for, and one
outcome per answer the program gave, which `check` compares with the
independent reference.  Exceptions from the program are caught per item
and become failed outcomes; they never abort the run.
"""

import csv
import json
import os
import time
from dataclasses import dataclass

import numpy as np

import evorate.cli
import evorate.entropy
import evorate.kernel
import evorate.sampler
import evorate.sweep
from evorate import (
    GameMatrix,
    Incentive,
    Landscape,
    MutationModel,
    ProcessConfig,
    TrajectoryConfig,
)


# Acceptance criterion 5 draws its random processes from this seed; the
# ensemble replays that stream and the ladder draws its games from it.
CRITERION5_SEED = 20240817
ENSEMBLE_SIZE = 200


@dataclass
class Outcome:
    """One answer of the program, and what it should be.

    expect is "rate" (an exact entropy rate), "estimate" (a plug-in
    estimate, checked within `tolerance`) or "reducible" (an error row
    naming the recurrent classes).
    """

    config: ProcessConfig
    expect: str = "rate"
    rate: float | None = None
    probabilities: np.ndarray | None = None
    error: str | None = None
    tolerance: float | None = None


def _fermi_config(n, N, mu, landscape, beta=1.0):
    return ProcessConfig(n, N, Incentive.fermi(beta=beta), MutationModel.uniform(mu), landscape)


def _timed(call):
    """(seconds, result, error text) of one call into the program."""
    start = time.perf_counter()
    try:
        result = call()
    except Exception as exc:  # a per-item failure, counted by the caller
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, result, None


class Ladder:
    """Single processes of growing size through `evorate entropy-rate`."""

    name = "ladder"

    def __init__(self, seed, workdir, tiny):
        games = np.random.default_rng(CRITERION5_SEED)
        game4 = GameMatrix(games.uniform(-1.0, 2.0, size=(4, 4)))
        game5 = GameMatrix(games.uniform(-1.0, 2.0, size=(5, 5)))
        rsp = Landscape.rsp(a=1.0, b=1.0)
        sizes = (8, 10, 6, 6, 20) if tiny else (100, 200, 30, 20, 2000)
        rungs = [
            ("criterion1", _fermi_config(3, 30, 1 / 30, Landscape.neutral()), []),
            ("criterion2", _fermi_config(3, 30, 1 / 30, rsp), ["--landscape", "rsp", "--a", "1", "--b", "1"]),
            ("rsp", _fermi_config(3, sizes[0], 1 / sizes[0], rsp), ["--landscape", "rsp", "--a", "1", "--b", "1"]),
            ("rsp", _fermi_config(3, sizes[1], 1 / sizes[1], rsp), ["--landscape", "rsp", "--a", "1", "--b", "1"]),
            ("game4", _fermi_config(4, sizes[2], 0.02, Landscape.custom(game4)), ["--landscape", "custom"]),
            ("game5", _fermi_config(5, sizes[3], 0.01, Landscape.custom(game5)), ["--landscape", "custom"]),
            ("moran", _fermi_config(2, sizes[4], 1 / sizes[4], Landscape.moran(r=2.0)), ["--landscape", "moran", "--r", "2"]),
        ]
        self.rungs = []
        for i in np.random.default_rng(seed).permutation(len(rungs)):
            label, config, landscape_args = rungs[i]
            stem = os.path.join(workdir, f"rung{i}-{label}")
            if landscape_args == ["--landscape", "custom"]:
                with open(stem + "-matrix.json", "w") as fh:
                    json.dump({"matrix": config.landscape.matrix.entries.tolist()}, fh)
                landscape_args = landscape_args + ["--matrix-file", stem + "-matrix.json"]
            argv = [
                "entropy-rate",
                "--n", str(config.n),
                "--N", str(config.N),
                "--mu", repr(config.mutation.mu),
                "--incentive", "fermi",
                "--beta", "1.0",
                *landscape_args,
                "--out", stem + ".json",
            ]
            self.rungs.append((config, argv, stem + ".json"))

    def run_pass(self, index):
        latencies, outcomes = [], []
        for config, argv, out in self.rungs:
            seconds, code, error = _timed(lambda: evorate.cli.main(argv))
            latencies.append(seconds)
            if error is None and code != 0:
                error = f"entropy-rate exited with code {code}"
            if error is not None:
                outcomes.append(Outcome(config, error=error))
                continue
            with open(out) as fh:
                outcomes.append(Outcome(config, rate=json.load(fh)["entropy_rate"]))
        return latencies, outcomes


class Sweep:
    """A beta x mu grid on rock-scissors-paper through `evorate sweep`."""

    name = "sweep"
    BETAS = (0.0, 0.5, 1.0, 2.0, 4.0)
    MUS = (0.0, 0.01, 0.02, 0.05, 0.1, 0.3)

    def __init__(self, seed, workdir, tiny):
        self.N = 12 if tiny else 100
        self.config_path = os.path.join(workdir, "sweep.json")
        self.out_path = os.path.join(workdir, "sweep.csv")
        doc = {
            "n": 3,
            "N": self.N,
            "incentive": {"kind": "fermi", "beta": 1.0},
            "landscape": {"name": "rsp", "a": 1.0, "b": 1.0},
            "axes": [
                {"name": "beta", "values": list(self.BETAS)},
                {"name": "mu", "values": list(self.MUS)},
            ],
        }
        with open(self.config_path, "w") as fh:
            json.dump(doc, fh)

    def run_pass(self, index):
        argv = ["sweep", "--config", self.config_path, "--out", self.out_path]
        seconds, code, error = _timed(lambda: evorate.cli.main(argv))
        if error is None and code != 0:
            error = f"sweep exited with code {code}"
        rows = {}
        if error is None:
            with open(self.out_path, newline="") as fh:
                for row in csv.DictReader(fh):
                    rows[(float(row["beta"]), float(row["mu"]))] = row
            if len(rows) != len(self.BETAS) * len(self.MUS):
                error = f"sweep wrote {len(rows)} distinct rows"
        outcomes = []
        for beta in self.BETAS:
            for mu in self.MUS:
                config = _fermi_config(3, self.N, mu, Landscape.rsp(a=1.0, b=1.0), beta=beta)
                outcome = Outcome(config, expect="reducible" if mu == 0.0 else "rate")
                row = rows.get((beta, mu))
                if error is not None or row is None:
                    outcome.error = error or "row missing"
                elif row["error"]:
                    outcome.error = row["error"]
                elif row["entropy_rate"]:
                    outcome.rate = float(row["entropy_rate"])
                else:
                    outcome.error = "row has neither a rate nor an error"
                outcomes.append(outcome)
        return [seconds], outcomes


class Ensemble:
    """Random small processes drawn exactly as acceptance criterion 5 draws them."""

    name = "ensemble"

    def __init__(self, seed, workdir, tiny, stream_seed=CRITERION5_SEED):
        rng = np.random.default_rng(stream_seed)
        configs = []
        for _ in range(20 if tiny else ENSEMBLE_SIZE):
            n = int(rng.integers(2, 5))
            N = int(rng.integers(n + 1, 17))
            mu = float(rng.uniform(0.01, 0.99))
            if rng.random() < 0.5:
                incentive = Incentive.neutral()
            else:
                incentive = Incentive.fermi(
                    beta=float(rng.uniform(0.0, 3.0)),
                    q=float(rng.choice([0.5, 1.0, 2.0])),
                )
            landscape = Landscape.custom(GameMatrix(rng.uniform(-1.0, 2.0, size=(n, n))))
            configs.append(ProcessConfig(n, N, incentive, MutationModel.uniform(mu), landscape))
        order = np.random.default_rng(seed).permutation(len(configs))
        self.configs = [configs[i] for i in order]

    def run_pass(self, index):
        latencies, outcomes = [], []
        for config in self.configs:
            seconds, result, error = _timed(lambda: evorate.sweep.evaluate_process(config))
            latencies.append(seconds)
            if error is not None:
                outcomes.append(Outcome(config, error=error))
            else:
                outcomes.append(
                    Outcome(
                        config,
                        rate=result.report.entropy_rate,
                        probabilities=result.stationary.probabilities,
                    )
                )
        return latencies, outcomes


class Sample:
    """Kernel, a long sampled trajectory, and its plug-in entropy rate."""

    name = "sample"

    def __init__(self, seed, workdir, tiny):
        self.seed = seed
        self.config = _fermi_config(3, 30, 1 / 30, Landscape.rsp(a=1.0, b=1.0))
        self.length = 20_000 if tiny else 1_000_000

    def run_pass(self, index):
        config = self.config
        game = config.landscape.build(config.n)
        trajectory_seed = int(np.random.default_rng([self.seed, index]).integers(2**62))

        def pipeline():
            kern = evorate.kernel.build_kernel(
                config.n, config.N, config.incentive, game, config.mutation
            )
            trajectory = evorate.sampler.sample_trajectory(
                kern, TrajectoryConfig(length=self.length, seed=trajectory_seed)
            )
            return kern, trajectory, evorate.entropy.plug_in_entropy_rate(trajectory)

        seconds, result, error = _timed(pipeline)
        outcome = Outcome(config, expect="estimate", error=error)
        if error is None:
            kern, trajectory, outcome.rate = result
            outcome.tolerance = plug_in_tolerance(kern.matrix, trajectory)
        return [seconds], [outcome]


def plug_in_tolerance(T, trajectory, batches=50) -> float:
    """How far a correct plug-in estimate may sit from the exact rate.

    Five standard errors of the mean per-step log-loss -log T(x_t, x_t+1),
    estimated by batch means (each batch is far longer than the chain's
    relaxation time), plus the first-order (Miller-Madow) bias of the
    plug-in estimate, (distinct pairs - distinct sources) / 2(L - 1).
    """
    src, dst = trajectory[:-1], trajectory[1:]
    loss = -np.log(T.toarray()[src, dst])
    per_batch = loss[: loss.size - loss.size % batches].reshape(batches, -1).mean(axis=1)
    stderr = per_batch.std(ddof=1) / np.sqrt(batches)
    pairs = np.unique(src * T.shape[0] + dst).size
    bias = (pairs - np.unique(src).size) / (2 * src.size)
    return float(5 * stderr + bias)


WORKLOADS = {cls.name: cls for cls in (Ladder, Sweep, Ensemble, Sample)}
