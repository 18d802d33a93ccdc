"""States of a finite population distributed over n types.

A population of N individuals and n types is a composition
a = (a_1, ..., a_n) with a_i >= 0 and sum(a) = N.  The C(N+n-1, n-1)
such states form the lattice points of the discrete simplex.  This
module enumerates them in a fixed canonical order, converts between
states and their integer ranks in that order, and picks the states
nearest the barycentre.  Which states a replacement step connects is
the kernel module's business (kernel._moves).

The canonical order is descending lexicographic, so (N, 0, ..., 0) has
rank 0 and (0, ..., 0, N) has rank C(N+n-1, n-1) - 1.
"""

import math
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import ValidationError

# Enumerating much beyond this is hopeless anyway; the guard keeps the
# ranking arithmetic safely inside int64.
MAX_STATES = 500_000_000


def num_states(n: int, N: int) -> int:
    """Number of population states: C(N + n - 1, n - 1)."""
    _check_dims(n, N)
    return math.comb(N + n - 1, n - 1)


def _check_dims(n: int, N: int) -> None:
    if not isinstance(n, (int, np.integer)) or not isinstance(N, (int, np.integer)):
        raise ValidationError(f"n and N must be integers, got n={n!r}, N={N!r}")
    if n < 2:
        raise ValidationError(f"need at least two types, got n={n}")
    if N < 1:
        raise ValidationError(f"population size must be positive, got N={N}")
    if math.comb(N + n - 1, n - 1) > MAX_STATES:
        raise ValidationError(
            f"lattice with n={n}, N={N} has more than {MAX_STATES} states"
        )


@lru_cache(maxsize=32)
def _states_cached(n: int, N: int) -> np.ndarray:
    out = np.empty((math.comb(N + n - 1, n - 1), n), dtype=np.int64)
    pos = 0
    # Fill descending-lex: leading coordinate from N down to 0, recurse on the rest.
    stack = [(N, n, ())]
    while stack:
        budget, parts, prefix = stack.pop()
        if parts == 1:
            out[pos, : len(prefix)] = prefix
            out[pos, -1] = budget
            pos += 1
            continue
        # Reversed push so larger leading values are emitted first.
        for first in range(budget + 1):
            stack.append((budget - first, parts - 1, prefix + (first,)))
    out.flags.writeable = False
    return out


def enumerate_states(n: int, N: int) -> np.ndarray:
    """All states as an (M, n) integer array in canonical (rank) order."""
    _check_dims(n, N)
    return _states_cached(n, N).copy()


def validate_state(counts, n: int | None = None, N: int | None = None) -> np.ndarray:
    """Coerce `counts` to an int64 vector and check it is a population state."""
    a = np.asarray(counts)
    if a.ndim != 1 or a.size < 2:
        raise ValidationError(f"state must be a vector of at least 2 counts, got shape {a.shape}")
    if not np.issubdtype(a.dtype, np.integer):
        rounded = np.rint(a)
        if not np.array_equal(a, rounded):
            raise ValidationError(f"state must have integer counts, got {counts!r}")
        a = rounded
    a = a.astype(np.int64)
    if (a < 0).any():
        raise ValidationError(f"state has negative counts: {a.tolist()}")
    if n is not None and a.size != n:
        raise ValidationError(f"state has {a.size} coordinates, expected n={n}")
    total = int(a.sum())
    if N is not None and total != N:
        raise ValidationError(f"state sums to {total}, expected N={N}")
    if total < 1:
        raise ValidationError("state must contain at least one individual")
    return a


@lru_cache(maxsize=32)
def _binom_table(top: int, k_max: int) -> np.ndarray:
    """Pascal table C[t, k] for 0 <= t <= top, 0 <= k <= k_max (int64)."""
    table = np.zeros((top + 1, k_max + 1), dtype=np.int64)
    table[:, 0] = 1
    for t in range(1, top + 1):
        hi = min(t, k_max)
        table[t, 1 : hi + 1] = table[t - 1, 0:hi] + table[t - 1, 1 : hi + 1]
    return table


def rank_state(counts) -> int:
    """Rank of a state in the canonical order.

    For each coordinate i the states that come first are those with a
    larger value somewhere in the prefix; counting them reduces to a sum
    of binomial coefficients over the remaining budget.
    """
    a = validate_state(counts)
    n = a.size
    N = int(a.sum())
    _check_dims(n, N)
    rank = 0
    remaining = N
    for i in range(n - 1):
        k = n - 1 - i
        # States with a larger i-th coordinate precede this one.
        for larger in range(int(a[i]) + 1, remaining + 1):
            rank += math.comb(remaining - larger + k - 1, k - 1)
        remaining -= int(a[i])
    return rank


def unrank_state(rank: int, n: int, N: int) -> np.ndarray:
    """Inverse of rank_state: the state at position `rank`."""
    _check_dims(n, N)
    M = math.comb(N + n - 1, n - 1)
    if not 0 <= rank < M:
        raise ValidationError(f"rank {rank} out of range [0, {M}) for n={n}, N={N}")
    a = np.zeros(n, dtype=np.int64)
    remaining = N
    r = int(rank)
    for i in range(n - 1):
        k = n - 1 - i
        for value in range(remaining, -1, -1):
            block = math.comb(remaining - value + k - 1, k - 1)
            if r < block:
                a[i] = value
                remaining -= value
                break
            r -= block
    a[n - 1] = remaining
    return a


def rank_states(states: np.ndarray, n: int, N: int) -> np.ndarray:
    """Vectorized rank_state for an (M, n) array of valid states."""
    _check_dims(n, N)
    S = np.asarray(states, dtype=np.int64)
    if S.ndim != 2 or S.shape[1] != n:
        raise ValidationError(f"expected an (M, {n}) array of states, got shape {S.shape}")
    if (S < 0).any() or (S.sum(axis=1) != N).any():
        raise ValidationError("rank_states given rows that are not population states")
    table = _binom_table(N + n, n)
    ranks = np.zeros(len(S), dtype=np.int64)
    prefix = np.zeros(len(S), dtype=np.int64)
    for i in range(n - 1):
        k = n - 1 - i
        remaining = N - prefix
        # Closed form of the prefix-count sum: C(remaining - a_i - 1 + k, k).
        top = remaining - S[:, i] - 1 + k
        ranks += np.where(top >= k, table[np.maximum(top, 0), k], 0)
        prefix = prefix + S[:, i]
    return ranks


def central_states(n: int, N: int) -> np.ndarray:
    """States closest to the barycenter, in canonical order.

    When n divides N this is the single state (N/n, ..., N/n); otherwise
    all distinct placements of the N % n larger entries of the
    floor/ceil split.  Choosing their positions in lexicographic order
    gives descending-lex states, the canonical order.
    """
    _check_dims(n, N)
    base, extra = divmod(N, n)
    positions = np.array(list(combinations(range(n), extra)), dtype=np.int64)
    states = np.full((len(positions), n), base, dtype=np.int64)
    np.put_along_axis(states, positions, base + 1, axis=1)
    return states
