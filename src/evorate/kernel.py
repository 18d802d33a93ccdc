"""Transition kernels of birth-death processes on the population lattice.

One step of the process at state a: a birth type j is drawn from the
reproduction probabilities p(a/N), a death type k is drawn uniformly
from the population, and the state moves to a + e_j - e_k.  Off-diagonal
transitions therefore have probability

    T[a, a + e_j - e_k] = p_j(a/N) * a_k / N     (j != k, a_k >= 1),

and the self-loop takes the remaining mass (birth and death of the same
type).  Each row has at most n(n-1) + 1 nonzero entries, so kernels are
stored sparse (CSR) with rows indexed by canonical state rank.  The
step rule lives in _moves alone, and _assemble turns a list of steps
into a kernel for both builders.

Rows depend only on their own state, so a kernel can also be built on
any reachability-closed subset of the lattice; this is how processes
with mutation rate zero are analyzed, where parts of the lattice are
never visited and the full-lattice incentive may be undefined at the
corners.  The breadth-first search that finds those states keeps its
steps as the kernel's entries, so each state's incentive is evaluated
once.  The mutation matrix is applied per state, so a state-dependent
mutation model would only need a hook in _reproduction_batch.

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
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .dynamics import GameMatrix, Incentive, MutationModel, incentive_values_batch
from .errors import (
    IllDefinedIncentiveError,
    NumericalConsistencyError,
    ValidationError,
)
from .simplex import _check_dims, _states_cached, num_states, rank_states, validate_state

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


def _moves(S: np.ndarray, N: int, P: np.ndarray):
    """Positive-probability replacement steps out of the states S.

    Yields, for each ordered type pair (j, k) with j != k, the rows of S
    that can move, their probabilities p_j * a_k / N, and the targets
    a + e_j - e_k.
    """
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


def _assemble(
    rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, M: int
) -> sparse.csr_array:
    """CSR kernel on M states from its off-diagonal steps rows -> cols with
    probabilities vals; each row's self-loop takes the remaining mass."""
    offsum = np.bincount(rows, weights=vals, minlength=M)
    diag = 1.0 - offsum
    bad = np.flatnonzero(diag < -_ROWSUM_TOL)
    if bad.size:
        raise NumericalConsistencyError(
            f"row {bad[0]} has off-diagonal mass {offsum[bad[0]]!r} > 1"
        )
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
    P = _reproduction_batch(S, N, incentive, game, Q)
    rows, cols, vals = [], [], []
    for src, prob, targets in _moves(S, N, P):
        rows.append(src)
        cols.append(rank_states(targets, n, N))
        vals.append(prob)
    # One list at a time, so each is freed as soon as it is joined.
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    vals = np.concatenate(vals)
    T = _assemble(rows, cols, vals, len(S))
    return TransitionKernel(matrix=T, n=n, N=N, states=S, symmetries=_type_symmetries(game, Q))


def _reachable_kernel(seeds: np.ndarray, n: int, N: int, incentive, game, Q) -> TransitionKernel:
    """Kernel on the closure of the seed states under positive-probability steps.

    A breadth-first search over lattice ranks.  Each layer evaluates the
    incentive on its new states once, keeps their steps (by global rank)
    as kernel entries, and ranks all their targets at once to find the
    states not seen before.  At the end the found ranks are sorted, which
    is the rows' canonical order, and the steps are mapped onto them.
    """
    seen = np.zeros(num_states(n, N), dtype=bool)
    ranks, first = np.unique(rank_states(seeds, n, N), return_index=True)
    seen[ranks] = True
    frontier = seeds[first]
    found, found_ranks = [frontier], [ranks]
    # One empty step each, for a search whose seeds cannot move.
    rows, cols, vals = [np.empty(0, np.int64)], [np.empty(0, np.int64)], [np.empty(0)]
    while len(frontier):
        P = _reproduction_batch(frontier, N, incentive, game, Q)
        steps = list(_moves(frontier, N, P))
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
    vals = np.concatenate(vals)
    T = _assemble(rows, cols, vals, len(ranks))
    return TransitionKernel(matrix=T, n=n, N=N, states=np.concatenate(found)[order])


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
