"""Stationary distributions of lattice birth-death processes.

Five routes to the stationary vector s with s T = s:

  closed form   neutral selection with uniform mutation has a
                Dirichlet-multinomial stationary distribution
  reversible    two-type lattice chains are birth-death chains and
                satisfy detailed balance, giving an exact product form
  iterative     power iteration on the row-stochastic kernel, for
                chains of at most ARNOLDI_MIN_STATES states
  direct        sparse LU (SuperLU) of the pinned system s (I - T) = 0,
                for three-type lattice chains of more than
                ARNOLDI_MIN_STATES and at most DIRECT_MAX_STATES states
  arnoldi       implicitly restarted Arnoldi (ARPACK) on T^T, for the
                other chains above ARNOLDI_MIN_STATES states

The one solver setting is the residual tolerance.  Power iteration and
ARPACK give up with ConvergenceError after _MAX_ITERS steps or restarts.

Power iteration needs a number of mat-vecs that grows with the chain's
mixing time: 8.6k-45k on the benchmark's chains of 5k-20k states.
Arnoldi reaches the same residual in 250-2,300, with O(ncv M) memory.
It is faster per call below the split as well, and power iteration
still mixes slowly on some small chains (400k steps on one 455-state
chain of acceptance criterion 5).  Small chains stay on power iteration
for now because the benchmark's `ensemble` workload keeps every pass's
stationary vectors, so a faster pass there reads as a peak-memory
regression; ROADMAP.md tracks the switch.

The LU of a three-type chain fills in little: on 5,151 states (N=100)
the factor holds about 257k nonzeros (5 MB) and a solve takes 20-40 ms,
where Arnoldi takes 0.1-0.3 s.  The factor grows faster than the chain, to
about 10 MB at 10,000 states (hence DIRECT_MAX_STATES) and 26 MB at
20,301; with four or more types it fills in much faster (1.6M nonzeros
for 5,456 states at n=4).  The direct solve is also the more accurate:
on some three-type chains Arnoldi stops at a residual of 1e-14 with a
vector that is off by 1e-4 to 1 in L1.

For the closed form, write alpha = N mu / (n - 1 - n mu).  Then

    s_a = C(N; a_1..a_n) prod_i (alpha)_{a_i} / (n alpha)_N,

with (x)_k the rising factorial.  At mu = (n-1)/n reproduction is
uniform over types regardless of the incentive and the formula reduces
to multinomial(N; a) / n^N.  For mu > (n-1)/n alpha turns negative and
the product form stops being usable term by term, so neutral_stationary
refuses those rates; evaluate_process sends such chains to the numerical
solvers instead.
"""

import threading
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.linalg import ArpackError, eigs, splu
from scipy.special import gammaln

from .errors import (
    ConvergenceError,
    NotReversibleError,
    ReducibleChainError,
    ValidationError,
)
from .kernel import TransitionKernel, is_irreducible, recurrent_classes
from .simplex import _states_cached, num_states, rank_states

DEFAULT_TOL = 1e-12
_MAX_ITERS = 1_000_000  # power-iteration steps, or ARPACK restarts
ARNOLDI_MIN_STATES = 1_000  # chains with more states than this use Arnoldi or LU
DIRECT_MAX_STATES = 10_000  # three-type chains up to this size use the LU
_DIRECT_MAX_FACTORIZATIONS = 4
# Re-pin when the largest entry outweighs the pin by more than this.
# The solve then loses at most about log10(_REPIN_RATIO) digits: on 42
# three-type test chains every first solve with max|x| <= 5e4 matched
# dense GTH to 1e-14 in L1, while pins below 1e-15 of the maximum gave
# garbage.
_REPIN_RATIO = 1e4
_BALANCE_TOL = 1e-10
_LU_LOCK = threading.Lock()


@dataclass(frozen=True)
class StationaryDistribution:
    """A stationary probability vector plus how it was obtained.

    `residual` is the measured sup-norm of s T - s when a kernel was
    available to measure against, else None.
    """

    probabilities: np.ndarray
    method: str
    residual: float | None = None
    iterations: int | None = None

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise ValidationError(f"probabilities must be a vector, got shape {p.shape}")
        if not np.isfinite(p).all() or (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
            raise ValidationError(
                "stationary probabilities must be finite, nonnegative and sum to 1"
            )
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)


def neutral_stationary(n: int, N: int, mu: float) -> StationaryDistribution:
    """Closed-form stationary distribution of the neutral uniform-mutation process.

    Requires 0 < mu <= (n-1)/n, the rate at which reproduction becomes
    uniform over types.  Above it the closed form breaks down, so a
    ValidationError points to evaluate_process, which solves such
    chains numerically.
    """
    M = num_states(n, N)
    uniform_mu = (n - 1) / n
    if not (np.isfinite(mu) and 0.0 < mu <= uniform_mu + 1e-12):
        raise ValidationError(
            f"the closed form needs 0 < mu <= (n-1)/n = {uniform_mu}, got mu={mu}; "
            "evaluate_process solves chains at other mutation rates"
        )
    S = _states_cached(n, N)
    log_multinom = gammaln(N + 1) - gammaln(S + 1).sum(axis=1)
    if abs(mu - uniform_mu) <= 1e-12:
        # Reproduction is uniform over types: multinomial(N; a) / n^N.
        logs = log_multinom - N * np.log(n)
    else:
        alpha = N * mu / (n - 1 - n * mu)
        logs = (
            log_multinom
            + (gammaln(alpha + S) - gammaln(alpha)).sum(axis=1)
            - (gammaln(n * alpha + N) - gammaln(n * alpha))
        )
    logs -= logs.max()
    s = np.exp(logs)
    s /= s.sum()
    return StationaryDistribution(s, method="closed_form")


def stationary_residual(kernel: TransitionKernel, probabilities: np.ndarray) -> float:
    """Sup-norm of s T - s."""
    s = np.asarray(probabilities, dtype=np.float64)
    if s.shape != (kernel.num_states,):
        raise ValidationError(
            f"probability vector has shape {s.shape}, kernel has {kernel.num_states} states"
        )
    return float(np.abs(s @ kernel.matrix - s).max())


def _check_tol(tol: float) -> None:
    """Raise ValidationError unless tol is positive."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValidationError(f"tolerance must be positive, got {tol}")


def solve_stationary(kernel: TransitionKernel, tol: float = DEFAULT_TOL) -> StationaryDistribution:
    """Stationary vector of an irreducible kernel to sup-norm residual <= tol.

    Chains of at most ARNOLDI_MIN_STATES states use power iteration from
    the uniform vector; aperiodicity comes for free on the lattice
    because some state always keeps a self-loop.  Larger three-type
    lattice chains, up to DIRECT_MAX_STATES states, use a sparse LU
    solve.  The rest use ARPACK's Arnoldi solver on T^T.  Every route
    measures the returned residual, and a solve that misses tol, or
    that runs out of _MAX_ITERS power steps or ARPACK restarts, raises
    ConvergenceError.
    """
    _check_tol(tol)
    if not is_irreducible(kernel):
        k = len(recurrent_classes(kernel))
        raise ReducibleChainError(
            f"kernel is reducible ({k} recurrent classes); restrict to one class first"
        )
    T = kernel.matrix
    M = T.shape[0]
    if M > ARNOLDI_MIN_STATES:
        if kernel.is_lattice and kernel.n == 3 and M <= DIRECT_MAX_STATES:
            return _direct_stationary(kernel, tol)
        return _arnoldi_stationary(kernel, tol)
    s = np.full(M, 1.0 / M)
    for iteration in range(1, _MAX_ITERS + 1):
        y = s @ T
        y /= y.sum()
        close = bool(np.abs(y - s).max() <= tol)
        s = y
        if close:
            residual = stationary_residual(kernel, s)
            if residual <= tol:
                return StationaryDistribution(
                    s, method="iterative", residual=residual, iterations=iteration
                )
    raise ConvergenceError(
        f"power iteration did not reach residual {tol} within {_MAX_ITERS} iterations"
    )


def _arnoldi_stationary(kernel: TransitionKernel, tol: float) -> StationaryDistribution:
    """Left Perron vector of T by Arnoldi on the transpose view of T."""
    T = kernel.matrix
    M = T.shape[0]
    try:
        # A fixed start vector keeps the result deterministic; ARPACK's
        # default one is random.  ArpackNoConvergence is an ArpackError.
        _, vectors = eigs(
            T.T, k=1, which="LM", v0=np.full(M, 1.0 / M), tol=tol, maxiter=_MAX_ITERS
        )
    except ArpackError as exc:
        raise ConvergenceError(
            f"Arnoldi failed with a budget of {_MAX_ITERS} restarts: {exc}"
        ) from exc
    s = np.abs(vectors[:, 0].real)
    s /= s.sum()
    residual = stationary_residual(kernel, s)
    if not residual <= tol:  # also catches a NaN
        raise ConvergenceError(
            f"Arnoldi stopped at residual {residual:.3e}, above the tolerance {tol}"
        )
    return StationaryDistribution(s, method="arnoldi", residual=residual)


def _direct_stationary(kernel: TransitionKernel, tol: float) -> StationaryDistribution:
    """Stationary vector by SuperLU on s (I - T) = 0 with one entry pinned to 1.

    Pinning state p replaces equation p of (I - T)^T s = 0 with s_p = 1.
    The pinned matrix is a column-diagonally-dominant M-matrix, so
    elimination needs no pivoting, and a symmetric minimum-degree
    ordering of A + A^T keeps the factor small.  A pin carrying
    negligible mass makes the solve meaningless, which shows as an
    entry with |x| > _REPIN_RATIO, so the pin moves to the largest
    entry and the system is factored again.
    """
    T = kernel.matrix
    C = (sparse.identity(T.shape[0], format="csr") - T).tocsr()
    # The state nearest the barycentre usually carries enough mass.
    pin = int(np.argmin(np.abs(kernel.states - kernel.N / kernel.n).sum(axis=1)))
    for _ in range(_DIRECT_MAX_FACTORIZATIONS):
        x = _pinned_solve(C, pin)
        # |x|, not x: a garbage solve can keep its positive maximum on the pin.
        top = int(np.argmax(np.abs(x)))
        if abs(x[top]) <= _REPIN_RATIO:
            break
        pin = top
    s = np.maximum(x, 0.0)
    s /= s.sum()
    residual = stationary_residual(kernel, s)
    if not residual <= tol:  # also catches a NaN from a failed solve
        raise ConvergenceError(
            f"sparse LU stopped at residual {residual:.3e}, above the tolerance {tol}"
        )
    return StationaryDistribution(s, method="direct", residual=residual)


def _pinned_solve(C, pin: int) -> np.ndarray:
    """Solve C^T x = e_pin after replacing column `pin` of C by e_pin.

    The factor lives only inside this call, under a process-wide lock,
    so neither a re-pin nor a sweep's worker threads ever hold two.
    """
    M = C.shape[0]
    A = C.copy()
    A.data[A.indices == pin] = 0.0
    A = (A + sparse.csr_array(([1.0], ([pin], [pin])), shape=(M, M))).T
    rhs = np.zeros(M)
    rhs[pin] = 1.0
    with _LU_LOCK:
        try:
            lu = splu(
                A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            )
        except RuntimeError as exc:  # SuperLU reports an exactly singular factor
            raise ConvergenceError(f"sparse LU failed: {exc}") from exc
        x = lu.solve(rhs)
        del lu  # free the factor before another thread may build one
    return x


def reversible_stationary(kernel: TransitionKernel) -> StationaryDistribution:
    """Exact stationary vector of a reversible chain via detailed balance.

    Fixes s at a root state and propagates s_v = s_u T_uv / T_vu along a
    breadth-first spanning tree of the transition support, in log space;
    afterwards verifies detailed balance on every edge.  Raises
    NotReversibleError if the support is asymmetric or the balance check
    fails, and ReducibleChainError if the chain is not irreducible.
    """
    T = kernel.matrix
    M = T.shape[0]
    # T + T^T is symmetric already, so a directed search spans the
    # undirected support without csgraph symmetrizing it once more.
    order, parent = breadth_first_order(T + T.T, 0, return_predecessors=True)
    if order.size < M:
        raise ReducibleChainError("kernel support is not connected")
    child = order[1:].astype(np.int64)
    up_from = parent[child].astype(np.int64)
    # Both weights of every tree edge in one search over the sorted
    # row-major keys row * M + col of the stored entries.
    keys = np.repeat(np.arange(M, dtype=np.int64), np.diff(T.indptr)) * M + T.indices
    want = np.concatenate([up_from * M + child, child * M + up_from])
    pos = np.minimum(np.searchsorted(keys, want), keys.size - 1)
    weights = np.where(keys[pos] == want, T.data[pos], 0.0)
    up, down = weights[: M - 1], weights[M - 1 :]
    bad = np.flatnonzero((up <= 0.0) | (down <= 0.0))
    if bad.size:
        u, v = up_from[bad[0]], child[bad[0]]
        raise NotReversibleError(
            f"one-way transition between states {u} and {v}; chain is not reversible"
        )
    # Parents precede children in breadth-first order.
    logs = [0.0] * M
    rises = (np.log(up) - np.log(down)).tolist()
    for v, u, rise in zip(child.tolist(), up_from.tolist(), rises):
        logs[v] = logs[u] + rise
    logs = np.array(logs)
    logs -= logs.max()
    s = np.exp(logs)
    s /= s.sum()

    ok, violation = check_detailed_balance(kernel, s)
    if not ok:
        raise NotReversibleError(
            f"detailed balance fails with max violation {violation:.3e}"
        )
    return StationaryDistribution(
        s, method="reversible_exact", residual=stationary_residual(kernel, s)
    )


def check_detailed_balance(
    kernel: TransitionKernel, probabilities, tol: float = _BALANCE_TOL
) -> tuple[bool, float]:
    """Max violation of s_a T_ab = s_b T_ba over all transitions.

    Returns (violation <= tol, violation).
    """
    s = np.asarray(probabilities, dtype=np.float64)
    if s.shape != (kernel.num_states,):
        raise ValidationError(
            f"probability vector has shape {s.shape}, kernel has {kernel.num_states} states"
        )
    F = kernel.matrix.multiply(s[:, None]).tocsr()
    D = (F - F.T).tocoo()
    violation = float(np.abs(D.data).max()) if D.nnz else 0.0
    return violation <= tol, violation


def export_stationary_csv(kernel: TransitionKernel, dist: StationaryDistribution, fh) -> None:
    """Write 'rank,count_1..count_n,probability' rows in state order."""
    if kernel.states is None:
        raise ValidationError("CSV export requires a lattice kernel")
    S = kernel.states
    ranks = rank_states(S, kernel.n, kernel.N)
    headers = ["rank"] + [f"count_{i + 1}" for i in range(kernel.n)] + ["probability"]
    fh.write(",".join(headers) + "\n")
    for rank, counts, p in zip(ranks, S, dist.probabilities):
        cells = [str(int(rank))] + [str(int(c)) for c in counts] + [repr(float(p))]
        fh.write(",".join(cells) + "\n")
