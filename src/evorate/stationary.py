"""Stationary distributions of lattice birth-death processes.

Five routes to the stationary vector s with s T = s:

  closed form   neutral selection with uniform mutation has a
                Dirichlet-multinomial stationary distribution
  reversible    two-type lattice chains are birth-death chains and
                satisfy detailed balance, giving an exact product form
  iterative     power iteration on the row-stochastic kernel, for
                chains of at most ARNOLDI_MIN_STATES states
  direct        sparse LU (SuperLU) of the pinned system s (I - T) = 0,
                for chains above ARNOLDI_MIN_STATES states whose solved
                chain (see below) has three types and at most
                DIRECT_MAX_STATES states
  arnoldi       implicitly restarted Arnoldi (ARPACK) on T^T, for the
                other chains above ARNOLDI_MIN_STATES states

Above ARNOLDI_MIN_STATES a kernel with type symmetries (see kernel.py)
is solved on its orbits: the lumped chain has about M/|G| states, its
stationary vector pi gives s_a = pi(O) / |O| for each state a of orbit
O, and the LU-or-Arnoldi choice reads the size K of the lumped chain,
not M.  Rock-scissors-paper at N=200 has 20,301 states and 6,767
orbits; the lumped solve takes about 70 ms, 45 ms of it in the LU,
where Arnoldi on the whole chain took 2.7 s.  The lumped chain is
never sent through the size rule again: power iteration on RSP N=60's
631 orbits took 0.5 s against 3 ms on the LU, and Arnoldi on N=200's
orbits 0.76 s against 45 ms (timings on a 2-CPU container).  It is the accurate route too: the LU of the whole
chain of the coordination game diag(2, 2, 2) (fermi beta=1, mu=0.01)
passes the residual gate with a vector 1.3 off in L1 at N=111, since
nothing makes its rounding respect the symmetry, while the lumped
solve is symmetric by construction and matches GTH to about 1e-15 at
N=60.  Chains of at most ARNOLDI_MIN_STATES states stay on power
iteration of the whole chain, which stays symmetric up to rounding
from its uniform start.

The solvers take no settings.  The three numerical routes accept a
vector only at sup-norm residual max|sT - s| <= _TOL = 1e-12, measured
on the whole kernel also after lumping; power iteration and ARPACK
raise ConvergenceError after _MAX_ITERS steps or restarts.

Both iterative routes, power iteration and Arnoldi, multiply by a
row-major (CSR) copy of T^T built once per solve.  The left product
s @ T has scipy build a transposed wrapper and check its format on
every call: about 25 us a step on a 455-state chain, against about
7 us for the copy's product (2-CPU container).  The copy's rows are
T's columns with their entries in the same order, so every sum, and
with it every vector and iteration count, is the same bit for bit.

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
from .kernel import TransitionKernel, _orbit_kernel, is_irreducible, recurrent_classes
from .simplex import _states_cached, num_states, rank_states

_TOL = 1e-12  # sup-norm residual every numerical route must reach
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


def solve_stationary(kernel: TransitionKernel) -> StationaryDistribution:
    """Stationary vector of an irreducible kernel to sup-norm residual <= _TOL (1e-12).

    Chains of at most ARNOLDI_MIN_STATES states use power iteration from
    the uniform vector; aperiodicity comes for free on the lattice
    because some state always keeps a self-loop.  A larger chain is
    first lumped onto the orbits of kernel.symmetries when that group
    is more than the identity.  The chain so obtained takes a sparse LU
    solve when it is a three-type lattice chain of at most
    DIRECT_MAX_STATES states (or orbits), else ARPACK's Arnoldi solver
    on T^T, and an orbit solution is spread evenly over each orbit's
    states.  Every route measures the residual of the returned vector
    on the whole kernel, and a solve that misses _TOL, or that runs out
    of _MAX_ITERS power steps or ARPACK restarts, raises
    ConvergenceError.
    """
    if not is_irreducible(kernel):
        k = len(recurrent_classes(kernel))
        raise ReducibleChainError(
            f"kernel is reducible ({k} recurrent classes); restrict to one class first"
        )
    T = kernel.matrix
    M = T.shape[0]
    if M > ARNOLDI_MIN_STATES:
        chain, orbit = kernel, None
        if len(kernel.symmetries) > 1:
            chain, orbit = _orbit_kernel(kernel)
        if chain.is_lattice and chain.n == 3 and chain.num_states <= DIRECT_MAX_STATES:
            x, method, route = _direct_stationary(chain), "direct", "sparse LU"
        else:
            x, method, route = _arnoldi_stationary(chain), "arnoldi", "Arnoldi"
        if orbit is not None:
            x = x[orbit] / np.bincount(orbit)[orbit]  # s_a = pi(O) / |O|
        return _accept(kernel, x, method, route)
    TT = T.T.tocsr()  # s T as a row-major product; same sums, same order
    s = np.full(M, 1.0 / M)
    gap = np.empty(M)
    for iteration in range(1, _MAX_ITERS + 1):
        y = TT @ s
        y /= y.sum()
        np.subtract(y, s, out=gap)
        close = bool(np.abs(gap, out=gap).max() <= _TOL)
        s = y
        if close:
            residual = stationary_residual(kernel, s)
            if residual <= _TOL:
                return StationaryDistribution(
                    s, method="iterative", residual=residual, iterations=iteration
                )
    raise ConvergenceError(
        f"power iteration did not reach residual {_TOL} within {_MAX_ITERS} iterations"
    )


def _accept(kernel: TransitionKernel, s, method: str, route: str) -> StationaryDistribution:
    """Normalize s >= 0 and return it if its residual is within _TOL, else raise."""
    s /= s.sum()
    residual = stationary_residual(kernel, s)
    if not residual <= _TOL:  # also catches a NaN
        raise ConvergenceError(
            f"{route} stopped at residual {residual:.3e}, above the tolerance {_TOL}"
        )
    return StationaryDistribution(s, method=method, residual=residual)


def _arnoldi_stationary(kernel: TransitionKernel) -> np.ndarray:
    """Left Perron vector of T, unnormalized, by Arnoldi on a row-major copy of T^T."""
    T = kernel.matrix
    M = T.shape[0]
    try:
        # A fixed start vector keeps the result deterministic; ARPACK's
        # default one is random.  ArpackNoConvergence is an ArpackError.
        _, vectors = eigs(
            T.T.tocsr(), k=1, which="LM", v0=np.full(M, 1.0 / M), tol=_TOL, maxiter=_MAX_ITERS
        )
    except ArpackError as exc:
        raise ConvergenceError(
            f"Arnoldi failed with a budget of {_MAX_ITERS} restarts: {exc}"
        ) from exc
    return np.abs(vectors[:, 0].real)


def _direct_stationary(kernel: TransitionKernel) -> np.ndarray:
    """Unnormalized stationary vector by SuperLU on s (I - T) = 0 with one entry pinned to 1.

    Pinning state p replaces equation p of (I - T)^T s = 0 with s_p = 1.
    The pinned matrix is a column-diagonally-dominant M-matrix, so
    elimination needs no pivoting, and a symmetric minimum-degree
    ordering of A + A^T keeps the factor small.  A pin carrying
    negligible mass makes the solve meaningless, which shows as an
    entry with |x| > _REPIN_RATIO, so the pin moves to the largest
    entry and the system is factored again.  Each factor is freed as
    soon as its solve returns, so a thread never holds two.
    """
    T = kernel.matrix
    M = T.shape[0]
    C = (sparse.identity(M, format="csr") - T).tocsr()
    # The state nearest the barycentre usually carries enough mass.
    pin = int(np.argmin(np.abs(kernel.states - kernel.N / kernel.n).sum(axis=1)))
    for _ in range(_DIRECT_MAX_FACTORIZATIONS):
        A = C.copy()
        A.data[A.indices == pin] = 0.0
        A = (A + sparse.csr_array(([1.0], ([pin], [pin])), shape=(M, M))).T
        rhs = np.zeros(M)
        rhs[pin] = 1.0
        try:
            x = splu(
                A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True},
            ).solve(rhs)
        except RuntimeError as exc:  # SuperLU reports an exactly singular factor
            raise ConvergenceError(f"sparse LU failed: {exc}") from exc
        # |x|, not x: a garbage solve can keep its positive maximum on the pin.
        top = int(np.argmax(np.abs(x)))
        if abs(x[top]) <= _REPIN_RATIO:
            break
        pin = top
    return np.maximum(x, 0.0)


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
