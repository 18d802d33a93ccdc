import io
import re

import numpy as np
import pytest

from evorate import (
    GameMatrix,
    IllDefinedIncentiveError,
    Incentive,
    Landscape,
    MutationModel,
    NumericalConsistencyError,
    ValidationError,
    build_kernel,
    central_states,
    enumerate_states,
)
from evorate.dynamics import incentive_values_batch
from evorate.kernel import (
    _assemble,
    dump_kernel,
    is_irreducible,
    raw_kernel,
    recurrent_classes,
    restrict_to_states,
)
from evorate.simplex import rank_state


def transition_row(counts, incentive, game, mutation):
    """Nonzero transitions out of one state as (target state, probability).

    Off-diagonal entries come first in (gain, lose) step order, then the
    self-loop if it carries mass.  Written one state at a time, apart
    from the batch kernel assembly, so that it can cross-check it.
    """
    a = np.asarray(counts, dtype=np.int64)
    n, N = a.size, int(a.sum())
    phi = incentive_values_batch(incentive, game, (a / N)[None, :])[0]
    P = (phi / phi.sum()) @ mutation.matrix(n)
    out = []
    for j in range(n):
        for k in range(n):
            prob = P[j] * (a[k] / N)
            if j != k and prob > 0.0:
                b = a.copy()
                b[j] += 1
                b[k] -= 1
                out.append((b, float(prob)))
    self_loop = 1.0 - sum(prob for _, prob in out)
    if self_loop > 0.0:
        out.append((a.copy(), self_loop))
    return out


def dense_oracle(n, N, incentive, game, mutation):
    """Straight-from-the-definition dense kernel, one state at a time."""
    S = enumerate_states(n, N)
    Q = mutation.matrix(n)
    M = len(S)
    T = np.zeros((M, M))
    index = {tuple(a): i for i, a in enumerate(S)}
    for i, a in enumerate(S):
        x = a / N
        if incentive.kind == "neutral":
            phi = x.copy()
        elif incentive.kind == "replicator":
            f = game.entries @ x
            w = np.array([xi**incentive.q if xi > 0 or incentive.q > 0 else 1.0 for xi in x])
            phi = w * f
        elif incentive.kind == "fermi":
            f = game.entries @ x
            w = np.array([xi**incentive.q if xi > 0 or incentive.q > 0 else 1.0 for xi in x])
            e = np.exp(incentive.beta * f - (incentive.beta * f).max())
            phi = w * e / (w * e).sum()
        else:
            f = game.entries @ x
            phi = np.zeros(n)
            if f[0] > f[1]:
                phi[0] = x[0]
            elif f[1] > f[0]:
                phi[1] = x[1]
            else:
                phi = x.copy()
        p = (phi / phi.sum()) @ Q
        for j in range(n):
            for k in range(n):
                if j != k and a[k] >= 1:
                    b = a.copy()
                    b[j] += 1
                    b[k] -= 1
                    T[i, index[tuple(b)]] += p[j] * a[k] / N
        T[i, i] += 1.0 - T[i].sum()
    return T


CONFIGS = [
    (2, 5, Incentive.neutral(), None, MutationModel.uniform(0.1)),
    (2, 6, Incentive.fermi(beta=1.0), Landscape.moran(2).build(2), MutationModel.uniform(0.2)),
    (2, 7, Incentive.replicator(q=2.0), Landscape.hawk_dove().build(2), MutationModel.uniform(0.5)),
    (3, 5, Incentive.replicator(q=1.0), Landscape.neutral().build(3), MutationModel.uniform(1 / 3)),
    (3, 6, Incentive.fermi(beta=0.7, q=2.0), Landscape.rsp(1, 2).build(3), MutationModel.uniform(0.05)),
    (4, 5, Incentive.neutral(), None, MutationModel.uniform(0.75)),
    (2, 6, Incentive.neutral(), None, MutationModel.from_matrix([[0.9, 0.1], [0.3, 0.7]])),
]


@pytest.mark.parametrize("n,N,incentive,game,mutation", CONFIGS)
def test_kernel_matches_dense_oracle(n, N, incentive, game, mutation):
    kern = build_kernel(n, N, incentive, game, mutation)
    expected = dense_oracle(n, N, incentive, game, mutation)
    assert np.allclose(kern.matrix.toarray(), expected, atol=1e-15)


@pytest.mark.parametrize("n,N,incentive,game,mutation", CONFIGS)
def test_kernel_rows_are_stochastic_and_local(n, N, incentive, game, mutation):
    kern = build_kernel(n, N, incentive, game, mutation)
    T = kern.matrix
    assert np.abs(np.asarray(T.sum(axis=1)) - 1.0).max() < 1e-12
    assert T.nnz <= (n * (n - 1) + 1) * kern.num_states
    S = kern.states
    for i in range(kern.num_states):
        cols, probs = kern.row(i)
        assert (probs > 0).all()
        for c in cols:
            if c != i:
                assert np.abs(S[c] - S[i]).sum() == 2  # one birth, one death


@pytest.mark.parametrize("n,N,incentive,game,mutation", CONFIGS)
def test_transition_row_agrees_with_kernel(n, N, incentive, game, mutation):
    kern = build_kernel(n, N, incentive, game, mutation)
    for i in [0, kern.num_states // 2, kern.num_states - 1]:
        entries = transition_row(kern.states[i], incentive, game, mutation)
        got = {rank_state(state): prob for state, prob in entries}
        cols, probs = kern.row(i)
        want = dict(zip(cols.tolist(), probs.tolist()))
        assert got.keys() == want.keys()
        for c in got:
            assert got[c] == pytest.approx(want[c], abs=1e-15)


def test_neutral_central_row_example():
    # (2,1), neutral, mu=0: p = (2/3, 1/3)
    entries = transition_row([2, 1], Incentive.neutral(), None, MutationModel.uniform(0.0))
    targets = [(state.tolist(), prob) for state, prob in entries]
    assert targets[0][0] == [3, 0] and abs(targets[0][1] - 2 / 9) < 1e-15
    assert targets[1][0] == [1, 2] and abs(targets[1][1] - 2 / 9) < 1e-15
    assert targets[2][0] == [2, 1] and abs(targets[2][1] - 5 / 9) < 1e-15


def test_even_split_row_is_quarter_quarter_half():
    entries = transition_row([3, 3], Incentive.neutral(), None, MutationModel.uniform(0.17))
    probs = {tuple(state): prob for state, prob in entries}
    assert probs[(4, 2)] == pytest.approx(0.25, abs=1e-15)
    assert probs[(2, 4)] == pytest.approx(0.25, abs=1e-15)
    assert probs[(3, 3)] == pytest.approx(0.5, abs=1e-15)


def test_corner_row_is_mutation_only():
    mu = 0.2
    kern = build_kernel(2, 8, Incentive.neutral(), None, MutationModel.uniform(mu))
    cols, probs = kern.row(0)  # state (8, 0)
    assert cols.tolist() == [0, 1]
    assert probs[0] == 1.0 - mu
    assert probs[1] == mu


def test_population_must_exceed_types():
    with pytest.raises(ValidationError):
        build_kernel(3, 3, Incentive.neutral(), None, MutationModel.uniform(0.1))


@pytest.mark.parametrize(
    "n,N,mutation",
    [
        (1, 5, MutationModel.uniform(0.1)),
        (1, 5, MutationModel.from_matrix([[1.0]])),
        (2, 6.0, MutationModel.uniform(0.1)),
    ],
    ids=["one-type-uniform", "one-type-custom-1x1", "float-N"],
)
def test_lattice_dimensions_are_checked_first(n, N, mutation):
    with pytest.raises(ValidationError, match="two types|integers"):
        build_kernel(n, N, Incentive.neutral(), None, mutation)


def test_game_shape_must_match():
    with pytest.raises(ValidationError):
        build_kernel(3, 6, Incentive.fermi(beta=1.0), Landscape.moran(2).build(2), MutationModel.uniform(0.1))


def test_best_reply_full_lattice_is_ill_defined_at_corners():
    with pytest.raises(IllDefinedIncentiveError, match="state"):
        build_kernel(2, 10, Incentive.best_reply(), Landscape.hawk_dove().build(2), MutationModel.uniform(0.1))


def test_reachable_build_best_reply_stays_central():
    kern = build_kernel(
        2, 10, Incentive.best_reply(), Landscape.hawk_dove().build(2), MutationModel.uniform(0.0),
        reachable_from=central_states(2, 10),
    )
    assert kern.states.tolist() == [[6, 4], [5, 5], [4, 6]]
    assert np.abs(np.asarray(kern.matrix.sum(axis=1)) - 1.0).max() < 1e-12
    assert is_irreducible(kern)


def test_reachable_build_from_absorbing_corner():
    kern = build_kernel(
        2, 6, Incentive.neutral(), None, MutationModel.uniform(0.0), reachable_from=[6, 0]
    )
    assert kern.states.tolist() == [[6, 0]]
    assert kern.matrix.toarray().tolist() == [[1.0]]


def test_reachable_build_takes_a_state_or_a_list_of_states():
    def build(seeds):
        return build_kernel(
            2, 6, Incentive.neutral(), None, MutationModel.uniform(0.0), reachable_from=seeds
        )

    assert build([[6, 0]]).states.tolist() == [[6, 0]]
    assert build(np.array([6, 0])).states.tolist() == [[6, 0]]
    assert build([[6, 0], (0, 6)]).states.tolist() == [[6, 0], [0, 6]]
    # Each seed is validated on its own, so a ragged list names its bad seed.
    with pytest.raises(ValidationError, match=re.escape("at least 2 counts, got shape (1,)")):
        build([[3, 3], [6]])
    with pytest.raises(ValidationError, match="sums to 5, expected N=6"):
        build([[3, 3], [4, 1]])


def test_reachable_build_with_positive_mutation_covers_the_lattice():
    full = build_kernel(2, 6, Incentive.neutral(), None, MutationModel.uniform(0.1))
    reach = build_kernel(
        2, 6, Incentive.neutral(), None, MutationModel.uniform(0.1),
        reachable_from=central_states(2, 6),
    )
    assert reach.states.tolist() == full.states.tolist()
    assert np.allclose(reach.matrix.toarray(), full.matrix.toarray(), atol=0)


def reachable_oracle(seeds, incentive, game, mutation):
    """Set-based closure of the seeds under transition_row, in canonical order."""
    seen = {tuple(int(x) for x in seed) for seed in seeds}
    stack = list(seen)
    while stack:
        state = stack.pop()
        for target, _ in transition_row(np.array(state), incentive, game, mutation):
            key = tuple(int(x) for x in target)
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return sorted(seen, key=rank_state)


# Type 0 mutates into type 1 and no other mutation happens, so the
# reachable sets are proper, nontrivial subsets of the lattice.
ONE_WAY = MutationModel.from_matrix(np.array([
    [0.9, 0.1, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 0.0, 1.0],
]))
GAME4 = np.array([
    [0.0, 2.0, -1.0, 1.0],
    [1.0, 0.0, 3.0, -2.0],
    [-1.0, 1.0, 0.0, 2.0],
    [2.0, -1.0, 1.0, 0.0],
])


@pytest.mark.parametrize(
    "n,N,incentive,game,mutation,seeds",
    [
        (3, 12, Incentive.fermi(beta=0.0), Landscape.rsp(1, 1).build(3), MutationModel.uniform(0.0),
         central_states(3, 12)),
        (3, 12, Incentive.fermi(beta=1.0), Landscape.rsp(1, 1).build(3), MutationModel.uniform(0.0),
         central_states(3, 12)),
        (4, 8, Incentive.fermi(beta=2.0), GameMatrix(GAME4), ONE_WAY, [[0, 3, 3, 2]]),
        (4, 8, Incentive.fermi(beta=2.0), GameMatrix(GAME4), ONE_WAY, [[0, 0, 1, 7]]),
        (4, 8, Incentive.neutral(), None, ONE_WAY, [[8, 0, 0, 0]]),
        (4, 8, Incentive.neutral(), None, ONE_WAY,
         [[0, 0, 3, 5], [0, 0, 3, 5], [0, 2, 0, 6]]),
        # best reply is defined for two types only
        (2, 12, Incentive.best_reply(), Landscape.hawk_dove().build(2), MutationModel.uniform(0.0),
         central_states(2, 12)),
    ],
    ids=["rsp-beta0", "rsp-beta1", "n4-game", "n4-game-corner", "n4-neutral-corner",
         "n4-duplicate-seeds", "best-reply"],
)
def test_reachable_build_matches_set_closure(n, N, incentive, game, mutation, seeds):
    kern = build_kernel(n, N, incentive, game, mutation, reachable_from=seeds)
    expected = reachable_oracle(np.atleast_2d(seeds), incentive, game, mutation)
    assert kern.states.tolist() == [list(state) for state in expected]
    for row, state in enumerate(kern.states):
        cols, probs = kern.row(row)
        got = {tuple(kern.states[c].tolist()): p for c, p in zip(cols, probs)}
        want = {tuple(b.tolist()): p for b, p in transition_row(state, incentive, game, mutation)}
        assert got.keys() == want.keys()
        assert max(abs(got[b] - want[b]) for b in want) <= 1e-15


def test_assemble_clamps_a_row_a_hair_over_unit_mass():
    # Row 0's steps sum to 1 + 5e-13, within the tolerance: no self-loop,
    # and the row is rescaled to unit mass.  Row 1 keeps a self-loop.
    T = _assemble(
        np.array([0, 0, 1]), np.array([1, 2, 0]), np.array([0.5, 0.5 + 5e-13, 0.25]), 3
    )
    assert T.toarray()[0, 0] == 0.0
    assert T.indices[T.indptr[0] : T.indptr[1]].tolist() == [1, 2]
    assert abs(T.data[T.indptr[0] : T.indptr[1]].sum() - 1.0) <= 1e-15
    assert T.toarray()[1].tolist() == [0.25, 0.75, 0.0]
    assert T.toarray()[2].tolist() == [0.0, 0.0, 1.0]


def test_assemble_refuses_a_row_over_unit_mass():
    with pytest.raises(NumericalConsistencyError, match="row 0 has off-diagonal mass"):
        _assemble(np.array([0, 0]), np.array([1, 2]), np.array([0.5, 0.5 + 1e-9]), 3)


def test_irreducibility_and_recurrent_classes():
    live = build_kernel(2, 6, Incentive.neutral(), None, MutationModel.uniform(0.1))
    assert is_irreducible(live)
    assert len(recurrent_classes(live)) == 1

    frozen = build_kernel(2, 6, Incentive.neutral(), None, MutationModel.uniform(0.0))
    assert not is_irreducible(frozen)
    classes = recurrent_classes(frozen)
    assert [c.tolist() for c in classes] == [[0], [6]]  # the two corners


def test_recurrent_classes_moran_selection_mu_zero():
    kern = build_kernel(
        2, 8, Incentive.replicator(q=1), Landscape.moran(2).build(2), MutationModel.uniform(0.0)
    )
    classes = recurrent_classes(kern)
    assert [c.tolist() for c in classes] == [[0], [8]]


def test_restrict_to_states():
    kern = build_kernel(2, 6, Incentive.neutral(), None, MutationModel.uniform(0.0))
    sub = restrict_to_states(kern, [0])
    assert sub.matrix.toarray().tolist() == [[1.0]]
    assert sub.states.tolist() == [[6, 0]]
    with pytest.raises(ValidationError, match="not closed"):
        restrict_to_states(kern, [2, 3, 4])


@pytest.mark.parametrize(
    "rows,message",
    [
        ([6.9], "row indices must be integers, got float64 values"),
        ([True], "row indices must be integers, got bool values"),
        ([], "cannot restrict to an empty state set"),
        (np.array([], dtype=np.int64), "cannot restrict to an empty state set"),
    ],
    ids=["fractional", "bool", "empty-list", "empty-array"],
)
def test_restrict_to_states_refuses_bad_rows(rows, message):
    kern = build_kernel(2, 6, Incentive.neutral(), None, MutationModel.uniform(0.0))
    with pytest.raises(ValidationError, match=message):
        restrict_to_states(kern, rows)


def test_raw_kernel_validation():
    kern = raw_kernel([[0.5, 0.5], [0.25, 0.75]])
    assert kern.states is None and kern.n is None
    assert is_irreducible(kern)
    with pytest.raises(ValidationError):
        raw_kernel([[0.5, 0.6], [0.5, 0.5]])
    with pytest.raises(ValidationError):
        raw_kernel([[1.5, -0.5], [0.5, 0.5]])
    with pytest.raises(ValidationError):
        raw_kernel([[1, 0, 0], [0, 1, 0]])


def test_raw_kernel_reducibility():
    assert not is_irreducible(raw_kernel(np.eye(3)))
    cycle = raw_kernel([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert is_irreducible(cycle)
    assert len(recurrent_classes(raw_kernel(np.eye(3)))) == 3


def test_rsp_symmetries_are_the_cyclic_group():
    kern = build_kernel(
        3, 10, Incentive.fermi(beta=1.0), Landscape.rsp(2, 1).build(3), MutationModel.uniform(0.1)
    )
    assert kern.symmetries.tolist() == [[0, 1, 2], [1, 2, 0], [2, 0, 1]]


def test_symmetries_need_both_the_game_and_the_mutation_matrix():
    # Any type permutation fixes the neutral game and uniform mutation.
    neutral = build_kernel(4, 6, Incentive.neutral(), None, MutationModel.uniform(0.1))
    assert len(neutral.symmetries) == 24
    Q = np.full((3, 3), 0.05) + 0.85 * np.eye(3)
    Q[0] = [0.8, 0.15, 0.05]
    skewed = build_kernel(
        3, 10, Incentive.fermi(beta=1.0), Landscape.rsp(1, 1).build(3), MutationModel.from_matrix(Q)
    )
    assert skewed.symmetries.tolist() == [[0, 1, 2]]


def test_near_symmetric_game_has_only_the_identity():
    A = Landscape.rsp(1, 1).build(3).entries.copy()
    A[0, 1] += 1e-12
    kern = build_kernel(
        3, 10, Incentive.fermi(beta=1.0), GameMatrix(A), MutationModel.uniform(0.1)
    )
    assert kern.symmetries.tolist() == [[0, 1, 2]]


def test_reachable_restricted_and_raw_kernels_carry_only_the_identity():
    incentive, game = Incentive.fermi(beta=1.0), Landscape.rsp(1, 1).build(3)
    mutation = MutationModel.uniform(0.1)
    assert len(build_kernel(3, 10, incentive, game, mutation).symmetries) == 3
    reachable = build_kernel(3, 10, incentive, game, mutation, reachable_from=central_states(3, 10))
    assert reachable.symmetries.tolist() == [[0, 1, 2]]
    frozen = build_kernel(3, 6, Incentive.neutral(), None, MutationModel.uniform(0.0))
    assert len(frozen.symmetries) == 6
    assert restrict_to_states(frozen, [0]).symmetries.tolist() == [[0, 1, 2]]
    assert raw_kernel(np.eye(2)).symmetries.shape == (1, 0)


def test_dump_kernel_round_trips():
    kern = build_kernel(2, 5, Incentive.neutral(), None, MutationModel.uniform(0.3))
    buf = io.StringIO()
    dump_kernel(kern, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "2 5 6"
    dense = kern.matrix.toarray()
    seen = np.zeros_like(dense)
    for line in lines[1:]:
        r, c, v = line.split()
        seen[int(r), int(c)] = float(v)
    assert (seen == dense).all()  # repr() round-trips floats exactly


def test_dump_requires_lattice():
    with pytest.raises(ValidationError):
        dump_kernel(raw_kernel(np.eye(2)), io.StringIO())
