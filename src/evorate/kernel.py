"""Transition kernels of birth-death processes on the population lattice.

One step of the process at state a: a birth type j is drawn from the
reproduction probabilities p(a/N), a death type k is drawn uniformly
from the population, and the state moves to a + e_j - e_k.  Off-diagonal
transitions therefore have probability

    T[a, a + e_j - e_k] = p_j(a/N) * a_k / N     (j != k, a_k >= 1),

and the self-loop takes the remaining mass (birth and death of the same
type).  Each row has at most n(n-1) + 1 nonzero entries, so kernels are
stored sparse (CSR) with rows indexed by canonical state rank.  The
step rule lives in _moves alone.  Which entries a row can have depends
on the lattice only, not on the process: the lattice pattern holds, for
every state, each step's target rank in the column order a CSR row
needs, and which _moves slot (or the self-loop) each column is.  It is
built once per lattice and cached, so a sweep on one lattice ranks its
steps once; each build computes its step probabilities, and _fill
gathers them into the pattern and drops the entries without positive
probability.

Rows depend only on their own state, so a kernel can also be built on
any reachability-closed subset of the lattice; this is how processes
with mutation rate zero are analyzed, where parts of the lattice are
never visited and the full-lattice incentive may be undefined at the
corners.  The breadth-first search that finds those states reads their
steps' targets from the pattern and keeps their step probabilities for
the fill, so each state's incentive is evaluated once.  The mutation
matrix is applied per state, so a state-dependent mutation model would
only need a hook in _reproduction_batch.

A full-lattice kernel also records its type symmetries: the
permutations sigma of the types that leave both the game entries and
the mutation matrix unchanged, A[sigma][:, sigma] == A.  Every
incentive kind treats the types alike, so then T(sigma a, sigma b) =
T(a, b), and the chain is exactly lumpable onto the orbits of states
under the group (Kemeny & Snell, Finite Markov Chains, 1960).
_orbit_kernel builds that lumped chain; the stationary solvers use it
on large chains.  The group is searched over all n! permutations for
n <= 6 and is the identity alone for more types, for kernels built on
a reachable subset, and for restricted and raw kernels.
"""

import itertools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .dynamics import GameMatrix, Incentive, MutationModel, incentive_values_batch
from .errors import (
    IllDefinedIncentiveError,
    NumericalConsistencyError,
    ValidationError,
)
from .simplex import _check_dims, _states_cached, rank_states, validate_state

_ROWSUM_TOL = 1e-12
_CLOSURE_TOL = 1e-9
_MAX_SYMMETRY_TYPES = 6  # 720 permutations; beyond this only the identity is tried


@dataclass(frozen=True)
class TransitionKernel:
    """A row-stochastic transition matrix, optionally tied to lattice states.

    `states` holds the population state of each row; it is None for raw
    kernels injected from outside the lattice construction.
    `symmetries` holds the type permutations (one per row, identity
    first) under which the chain is invariant; by default only the
    identity of range(n), or of no types for a raw kernel.
    """

    matrix: sparse.csr_array
    n: int | None = None
    N: int | None = None
    states: np.ndarray | None = None
    symmetries: np.ndarray | None = None

    def __post_init__(self):
        if self.symmetries is None:
            object.__setattr__(self, "symmetries", _type_permutations(self.n or 0)[0][:1])

    @property
    def num_states(self) -> int:
        return self.matrix.shape[0]

    @property
    def is_lattice(self) -> bool:
        return self.states is not None

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and probabilities of row i."""
        M = self.matrix
        if not 0 <= i < M.shape[0]:
            raise ValidationError(f"row {i} out of range [0, {M.shape[0]})")
        return M.indices[M.indptr[i] : M.indptr[i + 1]], M.data[M.indptr[i] : M.indptr[i + 1]]


def _reproduction_batch(
    S: np.ndarray, N: int, incentive: Incentive, game: GameMatrix | None, Q: np.ndarray
) -> np.ndarray:
    """Birth-type probabilities p(a/N) for each state row of S."""
    X = S / N
    try:
        phi = incentive_values_batch(incentive, game, X)
    except IllDefinedIncentiveError as exc:
        row = getattr(exc, "row", None)
        if row is not None:
            raise IllDefinedIncentiveError(
                f"incentive is ill-defined at state {S[row].tolist()}: {exc}"
            ) from exc
        raise
    return (phi / phi.sum(axis=1, keepdims=True)) @ Q


def _moves(S: np.ndarray, N: int, P: np.ndarray | None = None):
    """Replacement steps out of the states S, one slot per ordered type
    pair (j, k), j != k, in row-major order: the step adds a type j and
    removes a type k.

    Given the reproduction probabilities P, returns every step's
    probability p_j * a_k / N, one column per slot.  Without, returns an
    iterator over the slots of the rows of S that hold a type k and their
    targets a + e_j - e_k.
    """
    j, k = np.nonzero(~np.eye(S.shape[1], dtype=bool))
    if P is not None:
        return P[:, j] * (S[:, k] / N)

    def steps(j, k):
        src = np.flatnonzero(S[:, k])
        targets = S[src]
        targets[:, j] += 1
        targets[:, k] -= 1
        return src, targets

    return map(steps, j, k)


class _Pattern(NamedTuple):
    """Every step on one lattice, each row's in column order: targets[r, c]
    is the rank of state r's c-th step, or -1 where r has no such step,
    and slots[c] is that step's _moves slot, or the last slot for the
    self-loop."""

    targets: np.ndarray
    slots: np.ndarray


def _build_pattern(n: int, N: int) -> _Pattern:
    S = _states_cached(n, N)
    M = len(S)
    targets = np.full((M, n * (n - 1) + 1), -1, dtype=np.int32)
    targets[:, -1] = np.arange(M)
    for slot, (src, steps) in enumerate(_moves(S, N)):
        targets[src, slot] = rank_states(steps, n, N)
    # Two targets of one row differ by e_j - e_k - e_j' + e_k', whatever
    # the row, so every row sorts its slots alike: as a row holding every
    # type (one exists, as N > n) does.
    slots = np.argsort(targets[(targets >= 0).all(axis=1).argmax()])
    pattern = _Pattern(np.ascontiguousarray(targets[:, slots]), slots)
    for array in pattern:
        array.flags.writeable = False
    return pattern


_PATTERN_BUDGET = 1_000_000  # cached pattern cells, at 4 bytes each
_patterns: OrderedDict = OrderedDict()  # (n, N) -> _Pattern, least recently used first
_patterns_lock = threading.Lock()


def _lattice_pattern(n: int, N: int) -> _Pattern:
    """The step pattern of the (n, N) lattice, built once and cached.

    While the cache holds more than _PATTERN_BUDGET target cells the
    least recently used lattices are dropped, but never the one returned.
    The lock is held while a pattern is built, so threads wanting the
    same lattice build it once.
    """
    with _patterns_lock:
        pattern = _patterns.pop((n, N), None)
        if pattern is None:
            pattern = _build_pattern(n, N)
        _patterns[n, N] = pattern
        stored = sum(p.targets.size for p in _patterns.values())
        while stored > _PATTERN_BUDGET and len(_patterns) > 1:
            stored -= _patterns.popitem(last=False)[1].targets.size
    return pattern


def _step_weights(S: np.ndarray, N: int, incentive, game, Q) -> np.ndarray:
    """Step probabilities out of the states S, one column per slot; the
    last column, the self-loop's, is left at zero."""
    P = _reproduction_batch(S, N, incentive, game, Q)
    if not np.isfinite(P).all():
        bad = np.flatnonzero(~np.isfinite(P).all(axis=1))
        raise NumericalConsistencyError(
            f"reproduction probabilities are not finite at state {S[bad[0]].tolist()}"
        )
    W = np.zeros((len(S), P.shape[1] * (P.shape[1] - 1) + 1))
    W[:, :-1] = _moves(S, N, P)
    return W


def _fill(W: np.ndarray, pattern: _Pattern, ranks: np.ndarray | None = None) -> sparse.csr_array:
    """CSR kernel from the step weights W of the lattice states `ranks`
    (sorted; all states if None), one row per state and one column per
    slot.  Each self-loop takes the mass its steps leave, written into
    W's last column; entries without positive probability are dropped,
    and the others' targets are numbered by their place in `ranks`."""
    M = len(W)
    offsum = np.zeros(M)
    for slot in range(W.shape[1] - 1):  # in _moves order, as the steps are listed
        offsum += W[:, slot]
    diag = 1.0 - offsum
    bad = np.flatnonzero(diag < -_ROWSUM_TOL)
    if bad.size:
        raise NumericalConsistencyError(
            f"row {bad[0]} has off-diagonal mass {offsum[bad[0]]!r} > 1"
        )
    clamped = np.flatnonzero(diag < 0.0)
    W[:, -1] = np.maximum(diag, 0.0)

    W = W[:, pattern.slots]  # columns in each row's target order
    keep = W > 0.0  # no step, no entry: its weight is 0
    if ranks is None:
        cols = pattern.targets[keep]
    else:
        column = np.empty(ranks[-1] + 1, dtype=np.int32)
        column[ranks] = np.arange(M)
        cols = column[pattern.targets[ranks][keep]]
    indptr = np.zeros(M + 1, dtype=np.int64)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    T = sparse.csr_array((W[keep], cols, indptr), shape=(M, M))
    # Rows whose self-loop was clamped carry a hair more than unit mass.
    for r in clamped:
        sl = slice(T.indptr[r], T.indptr[r + 1])
        T.data[sl] /= T.data[sl].sum()
    return T


def build_kernel(
    n: int,
    N: int,
    incentive: Incentive,
    game: GameMatrix | None,
    mutation: MutationModel,
    reachable_from=None,
) -> TransitionKernel:
    """Build the transition kernel on the lattice (or a reachable subset).

    With `reachable_from` (a state or list of states) the kernel covers
    exactly the states reachable from those seeds, rows still ordered by
    canonical rank.  Requires N > n so interior states exist.
    """
    _check_dims(n, N)
    if N <= n:
        raise ValidationError(f"population must exceed the number of types, got n={n}, N={N}")
    if game is not None and game.n != n:
        raise ValidationError(f"game matrix is {game.n}x{game.n}, process has n={n} types")
    Q = mutation.matrix(n)
    if reachable_from is not None:
        try:  # a list of states has vectors for items, a single state numbers
            seeds = reachable_from if np.ndim(reachable_from[0]) else [reachable_from]
        except (TypeError, IndexError):
            seeds = [reachable_from]
        seeds = [validate_state(seed, n=n, N=N) for seed in seeds]
        return _reachable_kernel(np.array(seeds), n, N, incentive, game, Q)

    S = _states_cached(n, N)
    W = _step_weights(S, N, incentive, game, Q)
    T = _fill(W, _lattice_pattern(n, N))
    return TransitionKernel(matrix=T, n=n, N=N, states=S, symmetries=_type_symmetries(game, Q))


def _reachable_kernel(seeds: np.ndarray, n: int, N: int, incentive, game, Q) -> TransitionKernel:
    """Kernel on the closure of the seed states under positive-probability steps.

    A breadth-first search over lattice ranks.  Each layer evaluates the
    incentive on its new states once, keeps their step weights, and reads
    their steps' targets from the lattice pattern to find the states not
    seen before.  At the end the found ranks are sorted, which is the
    rows' canonical order, and their weights fill the pattern's rows.
    """
    pattern = _lattice_pattern(n, N)
    S = _states_cached(n, N)
    seen = np.zeros(len(S), dtype=bool)
    frontier = np.unique(rank_states(seeds, n, N))
    seen[frontier] = True
    found, weights = [], []
    while frontier.size:
        W = _step_weights(S[frontier], N, incentive, game, Q)
        # Targets of the steps with positive weight; the self-loop weighs 0 here.
        reached = pattern.targets[frontier][W[:, pattern.slots] > 0.0]
        found.append(frontier)
        weights.append(W)
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
    ranks = np.concatenate(found)
    order = np.argsort(ranks)
    ranks = ranks[order]
    W = np.concatenate(weights)[order]
    T = _fill(W, pattern, ranks)
    return TransitionKernel(matrix=T, n=n, N=N, states=S[ranks])


@lru_cache(maxsize=None)
def _type_permutations(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Permutations sigma of range(n) as rows, identity first, with the flat
    indices of A[sigma][:, sigma] into A.ravel(); the identity alone for n > 6."""
    if n > _MAX_SYMMETRY_TYPES:
        perms = np.arange(n)[None, :]
    else:
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    flat = (perms[:, :, None] * n + perms[:, None, :]).reshape(len(perms), n * n)
    perms.flags.writeable = flat.flags.writeable = False
    return perms, flat


def _type_symmetries(game: GameMatrix | None, Q: np.ndarray) -> np.ndarray:
    """The permutations sigma with A[sigma][:, sigma] == A exactly, for the game and Q."""
    perms, flat = _type_permutations(Q.shape[0])
    keep = (Q.ravel()[flat] == Q.ravel()).all(axis=1)
    if game is not None:
        entries = game.entries.ravel()
        keep &= (entries[flat] == entries).all(axis=1)
    return perms[keep]


def _orbit_kernel(kernel: TransitionKernel) -> tuple[TransitionKernel, np.ndarray]:
    """The chain lumped onto the orbits of its type symmetries, and each row's orbit.

    The kernel must be a full-lattice one, whose rows are in rank order.
    Each state is labelled by the lowest rank of its images S[:, sigma],
    which is the row of its orbit's representative; the group is closed
    under inverses, so the direction of sigma does not matter.  Orbit
    kernel rows are the representatives' rows summed over each target
    orbit, T[reps] @ P with P the 0/1 orbit indicator; that is exact
    because T(sigma a, sigma b) = T(a, b) gives every member of an orbit
    the same mass into each orbit.
    """
    S, n, N = kernel.states, kernel.n, kernel.N
    labels = reduce(np.minimum, (rank_states(S[:, perm], n, N) for perm in kernel.symmetries))
    reps, orbit = np.unique(labels, return_inverse=True)
    M, K = len(S), len(reps)
    P = sparse.csr_array((np.ones(M), (np.arange(M), orbit)), shape=(M, K))
    T = kernel.matrix[reps] @ P
    T.sort_indices()
    return TransitionKernel(matrix=T, n=n, N=N, states=S[reps]), orbit


def raw_kernel(matrix) -> TransitionKernel:
    """Wrap an explicit row-stochastic matrix as a kernel.

    Accepts dense or sparse input; rows must sum to 1 within 1e-12.
    """
    T = sparse.csr_array(matrix, dtype=np.float64, copy=True)  # edits below stay local
    T.sum_duplicates()  # one entry per position, in sorted order, as solvers read them
    if T.shape[0] != T.shape[1]:
        raise ValidationError(f"kernel must be square, got shape {T.shape}")
    if T.nnz and ((T.data < 0).any() or (T.data > 1 + _ROWSUM_TOL).any()):
        raise ValidationError("kernel entries must be probabilities in [0, 1]")
    rowsums = np.asarray(T.sum(axis=1)).ravel()
    bad = np.flatnonzero(np.abs(rowsums - 1.0) > _ROWSUM_TOL)
    if bad.size:
        raise ValidationError(f"kernel row {bad[0]} sums to {rowsums[bad[0]]!r}, expected 1")
    T.eliminate_zeros()
    return TransitionKernel(matrix=T)


def is_irreducible(kernel: TransitionKernel) -> bool:
    """True when every state can reach every other state."""
    ncomp, _ = connected_components(kernel.matrix, directed=True, connection="strong")
    return ncomp == 1


def recurrent_classes(kernel: TransitionKernel) -> list[np.ndarray]:
    """Closed communicating classes, each as a sorted array of row indices.

    These are the sink components of the strongly-connected-component
    condensation; the chain eventually enters one and stays.
    """
    ncomp, labels = connected_components(kernel.matrix, directed=True, connection="strong")
    coo = kernel.matrix.tocoo()
    leaving = labels[coo.row] != labels[coo.col]
    open_comps = np.unique(labels[coo.row[leaving]])
    sinks = np.setdiff1d(np.arange(ncomp), open_comps)
    classes = [np.flatnonzero(labels == c) for c in sinks]
    classes.sort(key=lambda idx: int(idx[0]))
    return classes


def restrict_to_states(kernel: TransitionKernel, rows) -> TransitionKernel:
    """Sub-kernel on a closed subset of rows (e.g. one recurrent class)."""
    idx = np.asarray(rows)
    if idx.size == 0:
        raise ValidationError("cannot restrict to an empty state set")
    if not np.issubdtype(idx.dtype, np.integer):  # bools are not np.integer
        raise ValidationError(f"row indices must be integers, got {idx.dtype} values")
    idx = np.unique(idx.astype(np.int64))
    if idx[0] < 0 or idx[-1] >= kernel.num_states:
        raise ValidationError("row indices out of range")
    sub = kernel.matrix[idx][:, idx].tocsr()
    rowsums = np.asarray(sub.sum(axis=1)).ravel()
    bad = np.flatnonzero(np.abs(rowsums - 1.0) > _CLOSURE_TOL)
    if bad.size:
        raise ValidationError(
            f"state set is not closed: restricted row {bad[0]} keeps only "
            f"{rowsums[bad[0]]!r} of its probability mass"
        )
    # Tidy the float dust from the restriction.
    scale = sparse.dia_array((1.0 / rowsums[None, :], [0]), shape=(idx.size, idx.size))
    sub = (scale @ sub).tocsr()
    sub.sort_indices()
    states = kernel.states[idx] if kernel.states is not None else None
    return TransitionKernel(matrix=sub, n=kernel.n, N=kernel.N, states=states)


def dump_kernel(kernel: TransitionKernel, fh) -> None:
    """Write a kernel as ASCII triplets: header 'n N state_count', then
    one 'row col prob' line per stored entry."""
    if kernel.n is None or kernel.N is None:
        raise ValidationError("dump requires a lattice kernel")
    coo = kernel.matrix.tocoo()
    fh.write(f"{kernel.n} {kernel.N} {kernel.num_states}\n")
    order = np.lexsort((coo.col, coo.row))
    for r, c, v in zip(coo.row[order], coo.col[order], coo.data[order]):
        fh.write(f"{r} {c} {float(v)!r}\n")
