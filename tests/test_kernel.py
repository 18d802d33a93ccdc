import io
import re
import sys
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import sparse

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
from evorate import kernel as kernel_module
from evorate.dynamics import incentive_values_batch
from evorate.kernel import (
    _build_pattern,
    _fill,
    _Pattern,
    _reproduction_batch,
    dump_kernel,
    is_irreducible,
    raw_kernel,
    recurrent_classes,
    restrict_to_states,
)
from evorate.simplex import num_states, rank_state, rank_states


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


# The n=2, N=2 lattice: states [2, 0], [1, 1], [0, 2].  Slot 0 adds a
# type 0 and removes a type 1, slot 1 the reverse, slot 2 is the
# self-loop; each row's targets in column order, -1 where it has none.
TWO_TYPES_OF_TWO = _Pattern(
    targets=np.array([[-1, 0, 1], [0, 1, 2], [1, 2, -1]], dtype=np.int32),
    slots=np.array([0, 2, 1]),
)


def test_assemble_clamps_a_row_a_hair_over_unit_mass():
    # Row 1's steps sum to 1 + 5e-13, within the tolerance: no self-loop,
    # and the row is rescaled to unit mass.  Row 0 keeps a self-loop.
    W = np.array([[0.0, 0.25, 0.0], [0.5, 0.5 + 5e-13, 0.0], [0.0, 0.0, 0.0]])
    T = _fill(W, TWO_TYPES_OF_TWO)
    assert T.toarray()[1, 1] == 0.0
    assert T.indices[T.indptr[1] : T.indptr[2]].tolist() == [0, 2]
    assert abs(T.data[T.indptr[1] : T.indptr[2]].sum() - 1.0) <= 1e-15
    assert T.toarray()[0].tolist() == [0.75, 0.25, 0.0]
    assert T.toarray()[2].tolist() == [0.0, 0.0, 1.0]


def test_assemble_refuses_a_row_over_unit_mass():
    W = np.array([[0.0, 0.0, 0.0], [0.5, 0.5 + 1e-9, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(NumericalConsistencyError, match="row 1 has off-diagonal mass"):
        _fill(W, TWO_TYPES_OF_TWO)


def test_the_toy_pattern_is_the_lattice_pattern():
    pattern = _build_pattern(2, 2)
    assert np.array_equal(pattern.targets, TWO_TYPES_OF_TWO.targets)
    assert np.array_equal(pattern.slots, TWO_TYPES_OF_TWO.slots)


def test_non_finite_reproduction_probabilities_are_refused(monkeypatch):
    # A NaN would otherwise reach a self-loop through the row sums.
    def nan_rows(incentive, game, fractions):
        phi = np.array(fractions, dtype=float)
        phi[1] = np.nan
        return phi

    monkeypatch.setattr(kernel_module, "incentive_values_batch", nan_rows)
    with pytest.raises(NumericalConsistencyError, match=re.escape("not finite at state [4, 1]")):
        build_kernel(2, 5, Incentive.neutral(), None, MutationModel.uniform(0.1))


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


# The builders as they were before the lattice pattern: every step listed
# and ranked per build, assembled from COO, and a search that ranks each
# layer's targets.  The cached-pattern builders must match them bit for bit.


def reference_moves(S, N, P):
    n = S.shape[1]
    for j in range(n):
        for k in range(n):
            if j == k:
                continue
            prob = P[:, j] * (S[:, k] / N)
            src = np.flatnonzero(prob > 0.0)
            if src.size:
                targets = S[src]
                targets[:, j] += 1
                targets[:, k] -= 1
                yield src, prob[src], targets


def reference_assemble(rows, cols, vals, M):
    offsum = np.bincount(rows, weights=vals, minlength=M)
    diag = 1.0 - offsum
    bad = np.flatnonzero(diag < -1e-12)
    if bad.size:
        raise NumericalConsistencyError(f"row {bad[0]} has off-diagonal mass {offsum[bad[0]]!r} > 1")
    clamped = np.flatnonzero(diag < 0.0)
    diag = np.maximum(diag, 0.0)
    keep = diag > 0.0
    drows = np.flatnonzero(keep)
    T = sparse.csr_array(
        (
            np.concatenate([vals, diag[keep]]),
            (np.concatenate([rows, drows]), np.concatenate([cols, drows])),
        ),
        shape=(M, M),
    )
    T.sum_duplicates()
    T.sort_indices()
    for r in clamped:
        sl = slice(T.indptr[r], T.indptr[r + 1])
        T.data[sl] /= T.data[sl].sum()
    return T


def reference_kernel(n, N, incentive, game, mutation, seeds=None):
    """(matrix, states) as the per-build assembly makes them."""
    Q = mutation.matrix(n)
    if seeds is None:
        S = enumerate_states(n, N)
        P = _reproduction_batch(S, N, incentive, game, Q)
        steps = [(src, rank_states(t, n, N), prob) for src, prob, t in reference_moves(S, N, P)]
        rows, cols, vals = map(np.concatenate, zip(*steps))
        return reference_assemble(rows, cols, vals, len(S)), S
    seeds = np.atleast_2d(np.asarray(seeds, dtype=np.int64))
    seen = np.zeros(num_states(n, N), dtype=bool)
    ranks, first = np.unique(rank_states(seeds, n, N), return_index=True)
    seen[ranks] = True
    frontier = seeds[first]
    found, found_ranks = [frontier], [ranks]
    rows, cols, vals = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    while len(frontier):
        P = _reproduction_batch(frontier, N, incentive, game, Q)
        steps = list(reference_moves(frontier, N, P))
        if not steps:
            break
        src, prob, targets = map(np.concatenate, zip(*steps))
        dst = rank_states(targets, n, N)
        rows.append(ranks[src])
        cols.append(dst)
        vals.append(prob)
        ranks, first = np.unique(dst, return_index=True)
        fresh = ~seen[ranks]
        seen[ranks[fresh]] = True
        frontier, ranks = targets[first[fresh]], ranks[fresh]
        found.append(frontier)
        found_ranks.append(ranks)
    ranks = np.concatenate(found_ranks)
    order = np.argsort(ranks)
    ranks = ranks[order]
    rows = np.searchsorted(ranks, np.concatenate(rows))
    cols = np.searchsorted(ranks, np.concatenate(cols))
    T = reference_assemble(rows, cols, np.concatenate(vals), len(ranks))
    return T, np.concatenate(found)[order]


def assert_same_kernel(kern, reference):
    T, states = reference
    for got, want in [
        (kern.matrix.data, T.data),
        (kern.matrix.indices, T.indices),
        (kern.matrix.indptr, T.indptr),
        (kern.states, states),
    ]:
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def build_both(n, N, incentive, game, mutation, seeds=None):
    """The kernel, or the error's text, from both builders."""
    out = []
    for build in (build_kernel, reference_kernel):
        try:
            out.append(build(n, N, incentive, game, mutation, seeds))
        except Exception as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


GRID_INCENTIVES = [
    Incentive.neutral(),
    Incentive.fermi(beta=1.0),
    Incentive.fermi(beta=5.0, q=2.0),
    Incentive.fermi(beta=300.0),
    Incentive.replicator(q=1.0),
]


@pytest.mark.parametrize("n,N", [(2, 4), (2, 200), (3, 10), (3, 60), (4, 9), (5, 7)])
def test_pattern_builders_match_the_reference_bit_for_bit(n, N):
    game = GameMatrix(np.random.default_rng(n * 1000 + N).uniform(0.0, 2.0, size=(n, n)))
    # Payoffs shifted partly below zero make the replicator incentive
    # negative on part of the lattice, most often layers away from the
    # centre; both builders must refuse the same state with one message.
    processes = [(incentive, game) for incentive in GRID_INCENTIVES]
    processes.append((Incentive.replicator(q=1.0), GameMatrix(game.entries - 0.5)))
    built = 0
    for mu in (0.0, 0.01, 0.3, (n - 1) / n, 1.0):
        for incentive, payoffs in processes:
            for seeds in (None, central_states(n, N)):
                new, old = build_both(n, N, incentive, payoffs, MutationModel.uniform(mu), seeds)
                if isinstance(old, str) or isinstance(new, str):
                    assert new == old
                    continue
                assert_same_kernel(new, old)
                built += 1
    assert built >= 50  # every process but the shifted replicator builds


@pytest.mark.parametrize("N", [6, 12])
@pytest.mark.parametrize("incentive", [Incentive.neutral(), Incentive.fermi(beta=2.0)])
def test_one_way_mutation_reachable_sets_match_the_reference(N, incentive):
    game = GameMatrix(GAME4 + 1.0)
    for seeds in (central_states(4, N), [[N, 0, 0, 0]], [[0, 0, 1, N - 1]]):
        new, old = build_both(4, N, incentive, game, ONE_WAY, seeds)
        assert_same_kernel(new, old)


def test_a_kernel_owns_its_arrays():
    # Edits to a returned kernel, as tests and callers make, stay out of
    # the cached pattern the next build reads.
    args = (3, 10, Incentive.fermi(beta=1.0), Landscape.rsp(1, 1).build(3), MutationModel.uniform(0.1))
    want = reference_kernel(*args)
    for seeds in (None, central_states(3, 10)):
        kern = build_kernel(*args, reachable_from=seeds)
        kern.matrix.data[:] = 0.5
        kern.matrix.indices[:] = 0
        kern.matrix.setdiag(0.0)
    assert_same_kernel(build_kernel(*args), want)
    assert_same_kernel(build_kernel(*args[:4], MutationModel.uniform(0.1), central_states(3, 10)), want)


def test_pooled_builds_of_interleaved_lattices_match_the_reference(monkeypatch):
    monkeypatch.setattr(kernel_module, "_patterns", OrderedDict())  # every lattice starts cold
    built = []
    build_pattern = kernel_module._build_pattern
    monkeypatch.setattr(
        kernel_module, "_build_pattern", lambda n, N: built.append((n, N)) or build_pattern(n, N)
    )
    game = Landscape.rsp(1, 1).build(3)
    jobs = [
        (3, N, Incentive.fermi(beta=beta), game, MutationModel.uniform(mu), seeds)
        for N in (20, 31, 45)
        for beta, mu, seeds in [(1.0, 0.1, None), (2.0, 0.0, central_states(3, N)), (0.5, 0.3, None)]
    ] * 2
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so the builds interleave
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(build_kernel, *job) for job in jobs]
            kernels = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert sorted(built) == [(3, 20), (3, 31), (3, 45)]  # each lattice built once
    for job, kern in zip(jobs, kernels):
        assert_same_kernel(kern, reference_kernel(*job))


def test_a_lattice_over_the_budget_is_kept_alone_and_then_dropped(monkeypatch):
    monkeypatch.setattr(kernel_module, "_patterns", OrderedDict())
    monkeypatch.setattr(kernel_module, "_PATTERN_BUDGET", 500)
    small = (3, 8, Incentive.fermi(beta=1.0), Landscape.rsp(1, 1).build(3), MutationModel.uniform(0.1))
    large = (3, 20, *small[2:])
    first = build_kernel(*small)
    assert list(kernel_module._patterns) == [(3, 8)]
    build_kernel(*large)  # 231 states x 7 cells, more than the budget
    assert list(kernel_module._patterns) == [(3, 20)]
    again = build_kernel(*small)
    assert list(kernel_module._patterns) == [(3, 8)]
    assert_same_kernel(again, (first.matrix, first.states))
    assert_same_kernel(again, reference_kernel(*small))


def test_the_cache_keeps_recent_lattices_within_its_budget(monkeypatch):
    monkeypatch.setattr(kernel_module, "_patterns", OrderedDict())
    monkeypatch.setattr(kernel_module, "_PATTERN_BUDGET", 4_000)
    mutation = MutationModel.uniform(0.1)
    # 153, 1,617, 2,145, then 2,457 cells: the fourth lattice pushes out
    # the two least recently used, but not (2, 50), used again just before.
    for n, N in [(2, 50), (3, 20), (4, 8), (2, 50), (3, 25)]:
        build_kernel(n, N, Incentive.neutral(), None, mutation)
        stored = [p.targets.size for p in kernel_module._patterns.values()]
        assert sum(stored) <= 4_000
    assert list(kernel_module._patterns) == [(2, 50), (3, 25)]
    for (n, N), pattern in kernel_module._patterns.items():
        # One 4-byte target per state and slot, and one slot per column.
        width = n * (n - 1) + 1
        assert pattern.targets.shape == (num_states(n, N), width)
        assert pattern.targets.nbytes == 4 * pattern.targets.size
        assert pattern.slots.shape == (width,)


def test_the_incentive_is_evaluated_once_per_state(monkeypatch):
    seen = []

    def counting(incentive, game, fractions):
        seen.append(len(fractions))
        return incentive_values_batch(incentive, game, fractions)

    monkeypatch.setattr(kernel_module, "incentive_values_batch", counting)
    incentive, game = Incentive.fermi(beta=1.0), Landscape.rsp(1, 1).build(3)
    full = build_kernel(3, 30, incentive, game, MutationModel.uniform(0.1))
    assert sum(seen) == full.num_states == 496
    seen.clear()
    reach = build_kernel(
        3, 30, incentive, game, MutationModel.uniform(0.0), reachable_from=central_states(3, 30)
    )
    assert sum(seen) == reach.num_states and len(seen) > 1  # one batch per layer
    seen.clear()
    band = build_kernel(
        2, 10, Incentive.best_reply(), Landscape.hawk_dove().build(2), MutationModel.uniform(0.0),
        reachable_from=central_states(2, 10),
    )
    assert sum(seen) == band.num_states == 3  # nothing outside the closure
