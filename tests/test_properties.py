"""Property-based checks of invariants that hold for every process.

Each property runs a fixed (derandomized) set of at most 30 examples.
"""

import math

import numpy as np
import pytest

from evorate import (
    DerivedMu,
    GameMatrix,
    Incentive,
    Landscape,
    MutationModel,
    ProcessConfig,
    build_kernel,
    entropy_rate_bound,
    evaluate_process,
    num_states,
    rank_states,
    SweepAxis,
    ValidationError,
)
from evorate.simplex import unrank_state

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

PROPERTY = settings(max_examples=30, derandomize=True, deadline=None, database=None)


@st.composite
def lattice_states(draw):
    """A type count n, a population N and one state of that lattice."""
    n = draw(st.integers(2, 5))
    N = draw(st.integers(1, 15))
    cuts = sorted(draw(st.lists(st.integers(0, N), min_size=n - 1, max_size=n - 1)))
    return n, N, np.diff([0, *cuts, N])


@st.composite
def processes(draw, max_n=4, max_N=10, min_mu=1e-3):
    """A fermi process on a random game: (n, N, game entries, beta, mu)."""
    n = draw(st.integers(2, max_n))
    N = draw(st.integers(n + 1, max_N))
    entries = draw(st.lists(st.floats(-2.0, 2.0), min_size=n * n, max_size=n * n))
    beta = draw(st.floats(0.0, 2.0))
    mu = draw(st.floats(min_mu, 1.0))
    return n, N, np.reshape(entries, (n, n)), beta, mu


def fermi_config(n, N, A, beta, mu):
    return ProcessConfig(
        n, N, Incentive.fermi(beta=beta), MutationModel.uniform(mu), Landscape.custom(A)
    )


@PROPERTY
@given(lattice_states(), st.data())
def test_rank_and_unrank_are_inverse_bijections(state, data):
    n, N, a = state
    M = num_states(n, N)
    rank = int(rank_states(a[None, :], n, N)[0])
    assert 0 <= rank < M
    assert unrank_state(rank, n, N).tolist() == a.tolist()
    other = data.draw(st.integers(0, M - 1))
    assert rank_states(unrank_state(other, n, N)[None, :], n, N)[0] == other


@PROPERTY
@given(processes())
def test_kernel_rows_are_stochastic_and_sparse(process):
    n, N, A, beta, mu = process
    kern = build_kernel(n, N, Incentive.fermi(beta=beta), GameMatrix(A), MutationModel.uniform(mu))
    T = kern.matrix
    assert (T.data >= 0).all()
    assert np.abs(T.sum(axis=1) - 1.0).max() <= 1e-12
    assert np.diff(T.indptr).max() <= n * (n - 1) + 1


@PROPERTY
@given(processes(max_n=3, max_N=8, min_mu=1e-2), st.randoms(use_true_random=False))
def test_relabelling_types_permutes_the_stationary_vector(process, rnd):
    n, N, A, beta, mu = process
    p = np.array(rnd.sample(range(n), n))
    base = evaluate_process(fermi_config(n, N, A, beta, mu))
    relabelled = evaluate_process(fermi_config(n, N, A[p][:, p], beta, mu))
    # Old state a is new state a[p].
    rows = rank_states(base.kernel.states[:, p], n, N)
    s_new = relabelled.stationary.probabilities
    assert np.abs(s_new[rows] - base.stationary.probabilities).max() <= 1e-9
    assert abs(relabelled.report.entropy_rate - base.report.entropy_rate) <= 1e-9


@PROPERTY
@given(processes(max_N=8, min_mu=1e-2))
def test_entropy_rate_stays_under_its_bound(process):
    n, N, A, beta, mu = process
    report = evaluate_process(fermi_config(n, N, A, beta, mu)).report
    assert 0.0 <= report.entropy_rate <= entropy_rate_bound(n) + 1e-12


# Each numeric field of the five types that hold numbers, set on an otherwise valid object.
NUMERIC_FIELDS = {
    "Incentive.q": lambda v: Incentive("fermi", q=v, beta=1.0).q,
    "Incentive.beta": lambda v: Incentive("fermi", beta=v).beta,
    "MutationModel.mu": lambda v: MutationModel(mu=v).mu,
    "Landscape.r": lambda v: Landscape("moran", r=v).r,
    "Landscape.a": lambda v: Landscape("rsp", a=v, b=1.0).a,
    "Landscape.b": lambda v: Landscape("rsp", a=1.0, b=v).b,
    "DerivedMu.k": lambda v: DerivedMu("scaling_k", k=v).k,
    "DerivedMu.c": lambda v: DerivedMu("c_over_N", c=v).c,
    "SweepAxis.values": lambda v: SweepAxis("beta", (v,)).values[0],
}

field_values = st.one_of(
    st.booleans(),
    st.text(max_size=3),
    st.none(),
    st.lists(st.floats(0.0, 1.0), max_size=2),
    st.just(math.nan),
    st.sampled_from([math.inf, -math.inf]),
    st.floats(max_value=-1e-300),
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(np.float64, st.floats(allow_nan=False)),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
)


@PROPERTY
@given(field_values)
def test_numeric_fields_store_a_float_or_raise_validation_error(value):
    # Any other exception (TypeError, a bare ValueError) fails the test.
    for field, construct in NUMERIC_FIELDS.items():
        try:
            stored = construct(value)
        except ValidationError:
            continue
        if value is None:  # an unset optional field: left unset, or its default filled in
            assert stored is None or type(stored) is float, field
        else:
            assert type(stored) is float and stored == float(value), field
