import math

import numpy as np
import pytest
from scipy import sparse
from scipy.special import roots_jacobi

from evorate import (
    Incentive,
    Landscape,
    MutationModel,
    NumericalConsistencyError,
    TransitionKernel,
    ValidationError,
    build_kernel,
    central_states,
    entropy_rate,
    entropy_rate_bound,
    enumerate_states,
    neutral_stationary,
    plug_in_entropy_rate,
    rank_states,
    solve_stationary,
    transition_entropies,
)
from evorate.entropy import (
    bound_fraction,
    max_transition_entropy_states,
    shannon_entropy,
    transition_entropy,
)


def test_shannon_entropy_basics():
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-15)
    assert shannon_entropy(np.ones(7) / 7) == pytest.approx(math.log(7), abs=1e-12)
    mu = 0.3
    assert shannon_entropy([1 - mu, mu]) == pytest.approx(
        -(1 - mu) * math.log(1 - mu) - mu * math.log(mu), abs=1e-15
    )


def test_shannon_entropy_validation():
    with pytest.raises(ValidationError):
        shannon_entropy([0.2, 0.2])
    with pytest.raises(ValidationError):
        shannon_entropy([1.5, -0.5])


@pytest.mark.parametrize(
    "n,N,incentive,game,mu",
    [
        (2, 6, Incentive.neutral(), None, 0.1),
        (3, 6, Incentive.fermi(beta=0.8), Landscape.rsp(1, 1).build(3), 0.2),
    ],
)
def test_transition_entropies_match_scalar(n, N, incentive, game, mu):
    kern = build_kernel(n, N, incentive, game, MutationModel.uniform(mu))
    h = transition_entropies(kern)
    for i in range(kern.num_states):
        assert h[i] == pytest.approx(transition_entropy(kern, i), abs=1e-15)


def test_corner_entropy_equals_mutation_entropy_exactly():
    mu = 0.3
    kern = build_kernel(2, 10, Incentive.neutral(), None, MutationModel.uniform(mu))
    assert transition_entropy(kern, 0) == shannon_entropy([1 - mu, mu])


def test_central_states_maximize_neutral_transition_entropy():
    for n, N in [(2, 10), (2, 11), (3, 9)]:
        kern = build_kernel(n, N, Incentive.neutral(), None, MutationModel.uniform(0.1))
        argmax = max_transition_entropy_states(kern)
        want = sorted(rank_states(central_states(n, N), n, N).tolist())
        assert sorted(argmax.tolist()) == want


def test_entropy_rate_report():
    kern = build_kernel(2, 8, Incentive.neutral(), None, MutationModel.uniform(0.2))
    dist = solve_stationary(kern)
    report = entropy_rate(kern, dist)
    h = transition_entropies(kern)
    assert report.entropy_rate == pytest.approx(float(dist.probabilities @ h), abs=1e-15)
    assert report.bound == entropy_rate_bound(2)
    assert report.n == 2 and report.N == 8
    assert report.entropy_rate < report.bound
    doc = report.to_json()
    assert set(doc) == {"entropy_rate", "bound", "n", "N", "residual"}
    assert doc["residual"] == dist.residual


def test_entropy_rate_shape_mismatch():
    kern = build_kernel(2, 8, Incentive.neutral(), None, MutationModel.uniform(0.2))
    with pytest.raises(ValidationError):
        entropy_rate(kern, neutral_stationary(2, 9, 0.2))


def test_entropy_rate_bound_values():
    assert entropy_rate_bound(2) == pytest.approx(1.5 * math.log(2), abs=1e-15)
    assert entropy_rate_bound(3) == pytest.approx(5 / 3 * math.log(3), abs=1e-15)
    assert entropy_rate_bound(5) == pytest.approx(9 / 5 * math.log(5), abs=1e-15)
    with pytest.raises(ValidationError):
        entropy_rate_bound(1)


def test_bound_fraction_two_types():
    # (3/2) log 2 over log 3: just over 94 percent
    assert bound_fraction(2) == pytest.approx(1.5 * math.log(2) / math.log(3), abs=1e-15)
    assert abs(bound_fraction(2) - 0.94) < 0.01


def test_bound_violation_is_refused():
    # hand-built "kernel" with uniform rows over all 5 states: its row
    # entropy log 5 exceeds the two-type ceiling, which no real process can
    states = enumerate_states(2, 4)
    fake = TransitionKernel(
        matrix=sparse.csr_array(np.full((5, 5), 0.2)), n=2, N=4, states=states
    )
    dist = solve_stationary(fake)
    with pytest.raises(NumericalConsistencyError, match="bound"):
        entropy_rate(fake, dist)


def test_plug_in_entropy_rate_hand_computed():
    # pairs: (0,1) twice with c_0 = 2, (1,0) and (1,1) once each with c_1 = 2
    value = plug_in_entropy_rate([0, 1, 0, 1, 1])
    assert value == pytest.approx(0.5 * math.log(2), abs=1e-15)


def test_plug_in_entropy_rate_deterministic_chain():
    value = plug_in_entropy_rate([0, 1, 0, 1, 0, 1])
    assert value == 0.0 and math.copysign(1.0, value) == 1.0  # +0.0, not -0.0


def _pair_rows_estimate(trajectory):
    """Reference: pairs counted as rows of a (L-1, 2) array with np.unique(axis=0)."""
    t = np.asarray(trajectory)
    src, dst = t[:-1], t[1:]
    pairs, counts = np.unique(np.stack([src, dst], axis=1), axis=0, return_counts=True)
    srcs, src_counts = np.unique(src, return_counts=True)
    totals = src_counts[np.searchsorted(srcs, pairs[:, 0])]
    return float(-(counts / (t.size - 1) * np.log(counts / totals)).sum())


_WALK = np.random.default_rng(3).integers(0, 6, 2_000)


@pytest.mark.parametrize(
    "trajectory",
    [
        _WALK - 3,
        (_WALK * 40 - 128).astype(np.int8),
        (_WALK * 13_000).astype(np.uint16),
        np.uint64(2**64 - 1) - _WALK.astype(np.uint64) * np.uint64(2**61),
        _WALK * 2**33 - 2**40,
        np.array([-(2**63), 2**63 - 1, 0, -(2**63), 0, 2**63 - 1]),
    ],
    ids=["negative", "int8", "uint16", "uint64", "span_above_2_32", "int64_extremes"],
)
def test_plug_in_matches_pair_rows_reference(trajectory):
    assert plug_in_entropy_rate(trajectory) == _pair_rows_estimate(trajectory)


def test_plug_in_matches_pair_rows_reference_on_random_walks():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=50, derandomize=True, deadline=None, database=None)
    @hypothesis.given(st.lists(st.integers(-5, 5), min_size=2, max_size=60), st.integers(0, 60))
    def check(walk, shift):
        trajectory = np.array(walk, dtype=np.int64) * 2**shift
        assert plug_in_entropy_rate(trajectory) == _pair_rows_estimate(trajectory)

    check()


def test_plug_in_validation():
    with pytest.raises(ValidationError):
        plug_in_entropy_rate([3])
    with pytest.raises(ValidationError):
        plug_in_entropy_rate([0.5, 1.5])


def _beta_rule(nodes, a, b):
    """Gauss-Jacobi nodes and weights on [0, 1] for the Beta(a, b) density."""
    t, w = roots_jacobi(nodes, b - 1.0, a - 1.0)
    return (1.0 + t) / 2.0, w / w.sum()


def _neutral_three_type_limit(nodes):
    """E h(X) for X ~ Dirichlet(1/2, 1/2, 1/2), by quadrature.

    h(x) is the mu -> 0 transition entropy of a neutral three-type state
    at fractions x: a type-j birth with a type-k death has probability
    x_j x_k for j != k, and the self-loop has sum_j x_j^2.  X is built by
    stick-breaking, X_1 ~ Beta(1/2, 1) and X_2 / (1 - X_1) ~ Beta(1/2, 1/2),
    with one Gauss-Jacobi rule per factor.
    """
    u, wu = _beta_rule(nodes, 0.5, 1.0)
    v, wv = _beta_rule(nodes, 0.5, 0.5)
    u, v = u[:, None], v[None, :]
    x = [u, (1.0 - u) * v, (1.0 - u) * (1.0 - v)]
    stay = sum(xj * xj for xj in x)
    h = -stay * np.log(stay)
    for j in range(3):
        for k in range(3):
            if j != k:
                h = h - x[j] * x[k] * np.log(x[j] * x[k])
    return float(wu @ h @ wv)


def test_neutral_rate_approaches_its_large_population_limit_as_one_over_N():
    # With mu = 1/N the neutral stationary law tends to Dirichlet(1/2, 1/2, 1/2)
    # and H(N) to H_inf = E h(X), with a gap of order 1/N.  H_inf comes from
    # quadrature and shares no code with the lattice.
    limit = _neutral_three_type_limit(200)
    # The quadrature error falls about 8-fold per doubling of the nodes
    # (4.6e-6, 5.7e-7, 7.2e-8 from 50 to 400 nodes), so this difference
    # bounds the error of `limit` to within 15%.  At 1e-6 it moves no ratio
    # below by more than 1e-4.
    assert abs(limit - _neutral_three_type_limit(400)) < 1e-6
    # A Monte Carlo mean of h over 10^6 Dirichlet draws gave 1.13528 with a
    # standard error of 0.00043; 2e-3 is about five standard errors.
    assert limit == pytest.approx(1.13528, abs=2e-3)

    Ns = [25, 50, 100, 200]
    gaps = []
    for N in Ns:
        kern = build_kernel(3, N, Incentive.neutral(), None, MutationModel.uniform(1 / N))
        gaps.append(entropy_rate(kern, neutral_stationary(3, N, 1 / N)).entropy_rate - limit)
    # Each doubling of N about halves the gap.  The ratios fit 1/2 + c/sqrt(N)
    # with c = 0.092-0.095 over N = 25-200 (0.518, 0.513, 0.509), so the upper
    # bound allows c twice that.  Missing H_inf by 5e-4 either way breaks one
    # of the bounds at N = 100.
    for N, small, large in zip(Ns, gaps[1:], gaps):
        assert 0.5 < small / large < 0.5 + 0.2 / math.sqrt(N), (N, gaps)
