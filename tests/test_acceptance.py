"""Acceptance suite: one test per shipping criterion.

Each test carries its tolerance inline; the conftest prints one
pass/fail line per criterion at the end of the run.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from evorate import (
    DerivedMu,
    GameMatrix,
    Incentive,
    Landscape,
    MutationModel,
    ProcessConfig,
    SweepAxis,
    SweepSpec,
    TrajectoryConfig,
    build_kernel,
    central_states,
    entropy_rate_bound,
    evaluate_process,
    neutral_stationary,
    plug_in_entropy_rate,
    rank_states,
    run_sweep,
    sample_trajectory,
    solve_stationary,
)
from evorate.cli import main
from evorate.entropy import (
    bound_fraction,
    max_transition_entropy_states,
    shannon_entropy,
    transition_entropy,
)
from evorate.kernel import raw_kernel
from evorate.stationary import check_detailed_balance

REFERENCE_GAMES_VAR = "EVORATE_REFERENCE_GAMES"


def _rate(n, N, mu, incentive=None, landscape=None, **kwargs):
    config = ProcessConfig(
        n=n,
        N=N,
        incentive=incentive or Incentive.neutral(),
        mutation=MutationModel.uniform(mu),
        landscape=landscape or Landscape.neutral(),
    )
    return evaluate_process(config, **kwargs).report.entropy_rate


def test_criterion_01_three_type_neutral_benchmark(capsys):
    """three-type neutral benchmark: CLI reports 1.155 +- 0.005 in < 5 s"""
    started = time.perf_counter()
    code = main(
        [
            "entropy-rate",
            "--n", "3", "--N", "30", "--mu", str(1 / 30),
            "--incentive", "fermi", "--beta", "1.0",
        ]
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entropy_rate"] == pytest.approx(1.155, abs=0.005)
    assert elapsed < 5.0


def test_criterion_02_rock_paper_scissors_benchmark():
    """cyclic three-type benchmark: 1.152 +- 0.005 in < 10 s"""
    started = time.perf_counter()
    rate = _rate(
        3, 30, 1 / 30,
        incentive=Incentive.fermi(beta=1.0),
        landscape=Landscape.rsp(a=1.0, b=1.0),
    )
    elapsed = time.perf_counter() - started
    assert rate == pytest.approx(1.152, abs=0.005)
    assert elapsed < 10.0


def test_criterion_03_entropy_rate_ceiling_constants():
    """two-type ceiling equals (3/2) log 2 and about 94% of the flat-chain rate"""
    assert entropy_rate_bound(2) == pytest.approx(1.5 * math.log(2), rel=1e-15)
    # the exact ratio is 1.5 log 2 / log 3 = 0.9464; the stated window
    # of 0.94 +- 0.005 excludes it, so this assertion records that gap
    assert bound_fraction(2) == pytest.approx(0.94, abs=0.005)


def test_criterion_04_iterative_solver_matches_closed_form():
    """iterative stationary solver matches the closed form and detailed balance"""
    for n in (2, 3):
        for N in (6, 12, 30):
            for mu in (0.05, 0.2, (n - 1) / n):
                kern = build_kernel(
                    n, N, Incentive.neutral(), None, MutationModel.uniform(mu)
                )
                iterative = solve_stationary(kern)
                closed = neutral_stationary(n, N, mu)
                gap = np.max(np.abs(iterative.probabilities - closed.probabilities))
                assert gap <= 1e-8, f"n={n} N={N} mu={mu}: sup-norm gap {gap}"
                balanced, violation = check_detailed_balance(
                    kern, closed.probabilities, tol=1e-10
                )
                assert balanced, f"n={n} N={N} mu={mu}: balance violation {violation}"


def test_criterion_05_entropy_rate_never_exceeds_its_ceiling():
    """100 random processes all stay below the (2n-1)/n log n ceiling"""
    rng = np.random.default_rng(20240817)
    for trial in range(100):
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
        rate = _rate(n, N, mu, incentive=incentive, landscape=landscape)
        bound = entropy_rate_bound(n)
        assert 0.0 <= rate <= bound + 1e-9, (
            f"trial {trial}: n={n} N={N} mu={mu} rate={rate} bound={bound}"
        )


def test_criterion_06_neutral_rate_increases_with_mutation():
    """neutral entropy rate strictly increases over the mutation grid"""
    grid = [round(0.05 * i, 2) for i in range(1, 13)]
    for n, N in [(2, 20), (3, 15)]:
        rates = [_rate(n, N, mu) for mu in grid]
        diffs = np.diff(rates)
        assert (diffs > 0).all(), f"(n={n}, N={N}): not strictly increasing: {rates}"


def test_criterion_07_rate_vanishes_as_mutation_vanishes():
    """selection rate decays to zero with mutation; corner rows reduce to it"""
    mus = [1e-1, 1e-2, 1e-3, 1e-4]
    rates = []
    for mu in mus:
        config = ProcessConfig(
            n=2, N=10,
            incentive=Incentive.replicator(),
            mutation=MutationModel.uniform(mu),
            landscape=Landscape.moran(r=2.0),
        )
        result = evaluate_process(config)
        rates.append(result.report.entropy_rate)
        kern = result.kernel
        # a one-type population only moves through mutation, so the corner
        # transition distribution is exactly (1 - mu, mu)
        assert transition_entropy(kern, 0) == shannon_entropy([1 - mu, mu])
        assert transition_entropy(kern, kern.num_states - 1) == shannon_entropy([1 - mu, mu])
    assert (np.diff(rates) < 0).all(), f"not strictly decreasing: {rates}"
    assert rates[-1] < 0.05


def test_criterion_08_rate_approaches_ceiling_with_population_size():
    """neutral rate rises toward its ceiling as the population grows"""
    Ns = [10, 20, 40, 80, 160]
    rates = [_rate(2, N, 0.1) for N in Ns]
    assert (np.diff(rates) > 0).all(), f"not increasing: {rates}"
    gaps = [1.5 * math.log(2) - rate for rate in rates]
    assert all(gap > 0 for gap in gaps)
    assert (np.diff(gaps) < 0).all(), f"gap not shrinking: {gaps}"


def test_criterion_09_central_states_maximize_transition_entropy():
    """the most even compositions maximize transition entropy when neutral"""
    for n, N in [(2, 10), (2, 11), (3, 9)]:
        kern = build_kernel(n, N, Incentive.neutral(), None, MutationModel.uniform(0.1))
        argmax = max_transition_entropy_states(kern)
        want = sorted(rank_states(central_states(n, N), n, N).tolist())
        assert sorted(argmax.tolist()) == want, f"(n={n}, N={N})"


def test_criterion_10_selection_strength_and_fitness_sweeps():
    """rate falls with selection strength and peaks where selection is absent"""
    beta_spec = SweepSpec(
        n=2, N=30,
        incentive=Incentive.fermi(beta=1.0),
        landscape=Landscape.moran(r=2.0),
        mutation=MutationModel.uniform(1 / 30),
        axes=(SweepAxis("beta", (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)),),
    )
    beta_rows = run_sweep(beta_spec)
    assert all(row.error is None for row in beta_rows)
    beta_rates = [row.entropy_rate for row in beta_rows]
    assert (np.diff(beta_rates) < 0).all(), f"not decreasing in beta: {beta_rates}"

    r_values = (0.25, 0.5, 1.0, 2.0, 4.0)
    r_spec = SweepSpec(
        n=2, N=30,
        incentive=Incentive.fermi(beta=1.0),
        landscape=Landscape.moran(r=1.0),
        mutation=MutationModel.uniform(1 / 30),
        axes=(SweepAxis("r", r_values),),
    )
    r_rows = run_sweep(r_spec)
    assert all(row.error is None for row in r_rows)
    r_rates = [row.entropy_rate for row in r_rows]
    peak = r_values.index(1.0)
    for i, rate in enumerate(r_rates):
        if i != peak:
            assert r_rates[peak] > rate, f"r=1 not maximal: {dict(zip(r_values, r_rates))}"


def test_criterion_11_mutation_scaling_family():
    """rates fall with the mutation-scaling exponent and rise with type count"""
    started = time.perf_counter()
    ks = (0.0, 0.5, 1.0, 1.5, 2.0)
    rates = {}
    for n in (2, 3, 4, 5):
        spec = SweepSpec(
            n=n, N=50,
            incentive=Incentive.neutral(),
            landscape=Landscape.neutral(),
            derived_mu=DerivedMu("scaling_k"),
            axes=(SweepAxis("k", ks),),
        )
        rows = run_sweep(spec)
        assert all(row.error is None for row in rows)
        rates[n] = [row.entropy_rate for row in rows]
        assert (np.diff(rates[n]) < 0).all(), f"n={n}: not decreasing in k: {rates[n]}"
        assert all(rate < entropy_rate_bound(n) for rate in rates[n])
    for i, k in enumerate(ks):
        column = [rates[n][i] for n in (2, 3, 4, 5)]
        assert (np.diff(column) > 0).all(), f"k={k}: curves out of order: {column}"
    assert time.perf_counter() - started < 600.0


def test_criterion_12_plug_in_estimator_consistency():
    """plug-in estimate from a million-step walk matches the exact 0.3251"""
    chain = raw_kernel([[0.9, 0.1], [0.1, 0.9]])
    walk = sample_trajectory(chain, TrajectoryConfig(length=10**6, seed=2024))
    estimate = plug_in_entropy_rate(walk)
    # symmetric rows make the stationary distribution uniform, so the
    # exact rate is the shared row entropy
    exact = shannon_entropy([0.9, 0.1])
    assert exact == pytest.approx(0.3251, abs=5e-5)
    assert estimate == pytest.approx(exact, abs=0.01)


def test_criterion_13_mutation_free_best_reply_keeps_moving():
    """best-reply play without mutation still has a positive entropy rate"""
    # independent small-chain oracle for the large-population limit: the
    # three central states exchange as [[1/2,1/2,0],[1/4,1/2,1/4],[0,1/2,1/2]]
    # with stationary weights (1/4, 1/2, 1/4)
    limit = (
        0.25 * shannon_entropy([0.5, 0.5])
        + 0.5 * shannon_entropy([0.25, 0.5, 0.25])
        + 0.25 * shannon_entropy([0.5, 0.5])
    )
    assert limit == pytest.approx(1.25 * math.log(2), abs=1e-15)

    recorded = {10: 0.8730348145532536, 30: 0.8709478055853535, 100: 0.8680506700401953}
    gaps = []
    for N, expected in recorded.items():
        rate = _rate(
            2, N, 0.0,
            incentive=Incentive.best_reply(),
            landscape=Landscape.hawk_dove(),
        )
        assert rate > 0.0
        assert rate == pytest.approx(expected, abs=1e-12)
        gaps.append(rate - limit)
    assert all(gap > 0 for gap in gaps)
    assert (np.diff(gaps) < 0).all(), f"gaps to the limit not shrinking: {gaps}"


def test_criterion_14_reference_games_from_environment():
    """user-supplied payoff matrices reproduce their published rates"""
    path = os.environ.get(REFERENCE_GAMES_VAR)
    if not path:
        pytest.skip(
            f"set {REFERENCE_GAMES_VAR} to a JSON file of "
            '[{"matrix": ..., "expected_rate": ...}] entries to enable'
        )
    with open(path) as fh:
        entries = json.load(fh)
    assert entries, "reference-game file is empty"
    for i, entry in enumerate(entries):
        matrix = GameMatrix(entry["matrix"])
        incentive = Incentive.fermi(beta=entry.get("beta", 1.0), q=entry.get("q", 1.0))
        rate = _rate(
            entry.get("n", matrix.n),
            entry.get("N", 30),
            entry.get("mu", 1 / 30),
            incentive=incentive,
            landscape=Landscape.custom(matrix),
        )
        expected = entry["expected_rate"]
        tolerance = entry.get("tolerance", 0.005)
        assert rate == pytest.approx(expected, abs=tolerance), f"entry {i}"
