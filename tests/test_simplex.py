import itertools
import math
import re

import numpy as np
import pytest
from scipy.sparse.csgraph import breadth_first_order

from evorate import (
    Incentive,
    MutationModel,
    TrajectoryConfig,
    ValidationError,
    build_kernel,
    central_states,
    enumerate_states,
    neutral_stationary,
    num_states,
    rank_states,
    sample_trajectory,
)
from evorate.simplex import _states_cached, rank_state, unrank_state, validate_state


def test_num_states_matches_binomial():
    for n in range(2, 6):
        for N in range(1, 12):
            assert num_states(n, N) == math.comb(N + n - 1, n - 1)


def test_enumerate_two_types():
    S = enumerate_states(2, 3)
    assert S.tolist() == [[3, 0], [2, 1], [1, 2], [0, 3]]


def test_enumerate_three_types():
    S = enumerate_states(3, 2)
    assert S.tolist() == [[2, 0, 0], [1, 1, 0], [1, 0, 1], [0, 2, 0], [0, 1, 1], [0, 0, 2]]


@pytest.mark.parametrize("n,N", [(2, 7), (3, 5), (4, 4), (5, 3), (6, 4), (2, 1), (4, 1)])
def test_enumerate_order_is_descending_lex(n, N):
    S = enumerate_states(n, N)
    assert len(S) == num_states(n, N)
    assert len(np.unique(S, axis=0)) == len(S)
    assert (S.sum(axis=1) == N).all() and (S >= 0).all()
    for a, b in zip(S, S[1:]):
        assert tuple(a) > tuple(b)


def test_cached_lattice_is_a_read_only_int64_c_array():
    S = _states_cached(4, 6)
    assert S.dtype == np.int64 and S.flags.c_contiguous and not S.flags.writeable
    assert np.array_equal(S, enumerate_states(4, 6))


def test_enumerate_returns_a_fresh_copy():
    S = enumerate_states(3, 3)
    S[0, 0] = -99
    assert enumerate_states(3, 3)[0, 0] == 3


@pytest.mark.parametrize("n,N", [(2, 50), (3, 30), (4, 8), (5, 5)])
def test_rank_unrank_round_trip(n, N):
    S = enumerate_states(n, N)
    for rank, state in enumerate(S):
        assert rank_state(state) == rank
        assert unrank_state(rank, n, N).tolist() == state.tolist()


@pytest.mark.parametrize("n,N", [(2, 9), (3, 12), (4, 7), (6, 4)])
def test_rank_states_matches_scalar(n, N):
    S = enumerate_states(n, N)
    assert rank_states(S, n, N).tolist() == list(range(len(S)))
    # a shuffled subset too
    rng = np.random.default_rng(7)
    idx = rng.permutation(len(S))[: min(40, len(S))]
    expected = [rank_state(S[i]) for i in idx]
    assert rank_states(S[idx], n, N).tolist() == expected


def test_rank_extremes():
    assert rank_state([6, 0, 0]) == 0
    assert rank_state([0, 0, 6]) == num_states(3, 6) - 1
    assert unrank_state(0, 4, 5).tolist() == [5, 0, 0, 0]


def test_unrank_out_of_range():
    with pytest.raises(ValidationError):
        unrank_state(num_states(3, 4), 3, 4)
    with pytest.raises(ValidationError):
        unrank_state(-1, 3, 4)


def test_bad_dimensions_rejected():
    for call in (
        lambda: enumerate_states(1, 5),
        lambda: enumerate_states(2, 0),
        lambda: num_states(2, -1),
        lambda: unrank_state(0, 1, 3),
    ):
        with pytest.raises(ValidationError):
            call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: num_states(2, True),
        lambda: enumerate_states(2, True),
        lambda: neutral_stationary(2, True, 0.1),
        lambda: build_kernel(True, 5, Incentive.neutral(), None, MutationModel.uniform(0.1)),
        lambda: build_kernel(2, np.True_, Incentive.neutral(), None, MutationModel.uniform(0.1)),
    ],
    ids=["num_states", "enumerate_states", "neutral_stationary", "kernel_n", "kernel_N"],
)
def test_bool_dimensions_rejected(call):
    with pytest.raises(ValidationError, match="n and N must be integers"):
        call()


def test_validate_state():
    assert validate_state([1, 2, 0]).tolist() == [1, 2, 0]
    assert validate_state(np.array([2.0, 1.0])).tolist() == [2, 1]
    with pytest.raises(ValidationError):
        validate_state([1, -1, 3])
    with pytest.raises(ValidationError):
        validate_state([1.5, 0.5])
    with pytest.raises(ValidationError):
        validate_state([1, 2], n=3)
    with pytest.raises(ValidationError):
        validate_state([1, 2], N=5)
    with pytest.raises(ValidationError):
        validate_state([0, 0])


@pytest.fixture(scope="module")
def kern_3_30():
    return build_kernel(3, 30, Incentive.neutral(), None, MutationModel.uniform(0.1))


@pytest.mark.parametrize(
    "counts,message",
    [
        (("11", "10", "9"), "state counts must be numbers"),
        ((11 + 0j, 10, 9), "state counts must be numbers"),
        ((True, False, True), "state counts must be numbers"),
        ((11.5, 9.5, 9), "state must have integer counts"),
        ((np.inf, 10.0, 9.0), "finite and < 2**63, got [inf]"),
        ((np.nan, 10.0, 9.0), "finite and < 2**63, got [nan]"),
        ((1e30, 10.0, 9.0), "finite and < 2**63, got [1e+30]"),
        (np.array([2**63, 10, 9], dtype=np.uint64), "finite and < 2**63"),
    ],
    ids=["strings", "complex", "bools", "fractional", "inf", "nan", "1e30", "uint64"],
)
@pytest.mark.parametrize("entry", ["validate_state", "rank_state", "sample_start", "kernel_seed"])
def test_non_integer_counts_are_refused(kern_3_30, entry, counts, message):
    # Each entry point validates a state before anything casts it to int64.
    calls = {
        "validate_state": lambda: validate_state(counts),
        "rank_state": lambda: rank_state(counts),
        "sample_start": lambda: sample_trajectory(
            kern_3_30, TrajectoryConfig(length=2, seed=0, start=counts)
        ),
        "kernel_seed": lambda: build_kernel(
            3, 30, Incentive.neutral(), None, MutationModel.uniform(0.0), reachable_from=[counts]
        ),
    }
    with pytest.raises(ValidationError, match=re.escape(message)):
        calls[entry]()


def neighbours(n, N):
    """Off-diagonal support of the neutral kernel at mu > 0, where every
    replacement step has positive probability: the lattice's adjacency."""
    T = build_kernel(n, N, Incentive.neutral(), None, MutationModel.uniform(0.1)).matrix
    T.setdiag(0.0)
    T.eliminate_zeros()
    return T


def neighbour_states(state):
    state = np.asarray(state)
    n, N = state.size, int(state.sum())
    T = neighbours(n, N)
    i = rank_state(state)
    return [unrank_state(j, n, N) for j in T.indices[T.indptr[i] : T.indptr[i + 1]]]


def test_adjacent_states_interior():
    targets = neighbour_states([2, 2, 2])
    assert len(targets) == 6  # n(n-1) replacements available
    for target in targets:
        assert target.sum() == 6 and (target >= 0).all()
        assert np.abs(target - 2).sum() == 2  # one birth, one death


def test_adjacent_states_corner():
    assert [t.tolist() for t in neighbour_states([4, 0])] == [[3, 1]]


def test_adjacency_is_symmetric():
    T = neighbours(3, 4)
    assert T.nnz > 0
    assert ((T != 0) != (T.T != 0)).nnz == 0


@pytest.mark.parametrize("n,N", [(2, 6), (3, 5), (4, 5)])
def test_every_state_reachable_from_center(n, N):
    centre = rank_state(central_states(n, N)[0])
    order = breadth_first_order(neighbours(n, N), centre, return_predecessors=False)
    assert len(order) == num_states(n, N)


def test_central_states():
    assert central_states(2, 4).tolist() == [[2, 2]]
    assert central_states(2, 5).tolist() == [[3, 2], [2, 3]]
    assert central_states(3, 7).tolist() == [[3, 2, 2], [2, 3, 2], [2, 2, 3]]
    assert central_states(3, 9).tolist() == [[3, 3, 3]]
    # Every distinct permutation of the floor/ceil split, in canonical order.
    for n in range(2, 7):
        for N in range(n, 13):
            base, extra = divmod(N, n)
            split = (base + 1,) * extra + (base,) * (n - extra)
            expected = sorted(set(itertools.permutations(split)), reverse=True)
            assert central_states(n, N).tolist() == [list(a) for a in expected], (n, N)
    # Enumerating 12! permutations takes over a minute; 12 placements do not.
    assert central_states(12, 13).tolist() == (np.ones((12, 12)) + np.eye(12)).tolist()
