"""Stationary distributions of lattice birth-death processes.

Four routes to the stationary vector s with s T = s:

  closed form   neutral selection with uniform mutation has a
                Dirichlet-multinomial stationary distribution
  reversible    two-type lattice chains are birth-death chains and
                satisfy detailed balance, giving an exact product form
  iterative     power iteration on the row-stochastic kernel, for
                chains of at most ARNOLDI_MIN_STATES states
  arnoldi       implicitly restarted Arnoldi (ARPACK) on T^T, for
                larger chains

Power iteration needs a number of mat-vecs that grows with the chain's
mixing time: 8.6k-45k on the benchmark's chains of 5k-20k states.
Arnoldi reaches the same residual in 250-2,300, with O(ncv M) memory.
It is faster per call below the split as well, and power iteration
still mixes slowly on some small chains (400k steps on one 455-state
chain of acceptance criterion 5).  Small chains stay on power iteration
for now because the benchmark's `ensemble` workload keeps every pass's
stationary vectors, so a faster pass there reads as a peak-memory
regression; ROADMAP.md tracks the switch.

For the closed form, write alpha = N mu / (n - 1 - n mu).  Then

    s_a = C(N; a_1..a_n) prod_i (alpha)_{a_i} / (n alpha)_N,

with (x)_k the rising factorial.  At mu = (n-1)/n reproduction is
uniform over types regardless of the incentive and the formula reduces
to multinomial(N; a) / n^N.  For mu > (n-1)/n alpha turns negative and
the product form stops being usable term by term, so the solver falls
back to iteration.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.sparse.linalg import ArpackError, eigs
from scipy.special import gammaln

from .dynamics import Incentive, MutationModel
from .errors import (
    ConvergenceError,
    NotReversibleError,
    ReducibleChainError,
    ValidationError,
)
from .kernel import TransitionKernel, build_kernel, is_irreducible, recurrent_classes
from .simplex import _states_cached, num_states, rank_states

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITERS = 1_000_000
ARNOLDI_MIN_STATES = 1_000  # chains with more states than this use Arnoldi
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
        if (p < 0).any() or abs(p.sum() - 1.0) > 1e-9:
            raise ValidationError("stationary probabilities must be nonnegative and sum to 1")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)


def rising_factorial(x: float, k: int) -> float:
    """(x)_k = x (x+1) ... (x+k-1), with (x)_0 = 1."""
    if k < 0:
        raise ValidationError(f"rising factorial needs k >= 0, got {k}")
    out = 1.0
    for i in range(k):
        out *= x + i
    return out


def log_rising_factorial(x: float, k: int) -> float:
    """log (x)_k for x > 0, via log-gamma."""
    if x <= 0:
        raise ValidationError(f"log rising factorial needs x > 0, got {x}")
    if k < 0:
        raise ValidationError(f"rising factorial needs k >= 0, got {k}")
    return float(gammaln(x + k) - gammaln(x))


def neutral_stationary(n: int, N: int, mu: float) -> StationaryDistribution:
    """Closed-form stationary distribution of the neutral uniform-mutation process.

    Requires 0 < mu <= 1.  Above mu = (n-1)/n the closed form breaks
    down and the function falls back to solve_stationary (with a
    RuntimeWarning), so the returned method may be "iterative" or
    "arnoldi".
    """
    M = num_states(n, N)
    if not (np.isfinite(mu) and 0.0 < mu <= 1.0):
        raise ValidationError(f"need a mutation rate in (0, 1], got {mu}")
    uniform_mu = (n - 1) / n
    S = _states_cached(n, N)
    log_multinom = gammaln(N + 1) - gammaln(S + 1).sum(axis=1)
    if abs(mu - uniform_mu) <= 1e-12:
        # Reproduction is uniform over types: multinomial(N; a) / n^N.
        logs = log_multinom - N * np.log(n)
    elif mu < uniform_mu:
        alpha = N * mu / (n - 1 - n * mu)
        logs = (
            log_multinom
            + (gammaln(alpha + S) - gammaln(alpha)).sum(axis=1)
            - (gammaln(n * alpha + N) - gammaln(n * alpha))
        )
    else:
        warnings.warn(
            f"mu={mu} exceeds (n-1)/n={uniform_mu}; falling back to the iterative solver",
            RuntimeWarning,
            stacklevel=2,
        )
        kern = build_kernel(n, N, Incentive.neutral(), None, MutationModel.uniform(mu))
        return solve_stationary(kern)
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


def with_measured_residual(
    dist: StationaryDistribution, kernel: TransitionKernel
) -> StationaryDistribution:
    """Copy of `dist` with the residual measured against `kernel`."""
    return replace(dist, residual=stationary_residual(kernel, dist.probabilities))


def _check_solver_settings(tol: float, max_iters: int) -> None:
    """Raise ValidationError unless tol is positive and max_iters at least 1."""
    if not (np.isfinite(tol) and tol > 0):
        raise ValidationError(f"tolerance must be positive, got {tol}")
    if max_iters < 1:
        raise ValidationError(f"max_iters must be positive, got {max_iters}")


def solve_stationary(
    kernel: TransitionKernel,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> StationaryDistribution:
    """Stationary vector of an irreducible kernel to sup-norm residual <= tol.

    Chains of at most ARNOLDI_MIN_STATES states use power iteration from
    the uniform vector, with max_iters bounding its steps; aperiodicity
    comes for free on the lattice because some state always keeps a
    self-loop.  Larger chains use ARPACK's Arnoldi solver on T^T, with
    max_iters bounding its restarts.  Either way the returned residual
    is measured, and a solve that misses tol raises ConvergenceError.
    """
    _check_solver_settings(tol, max_iters)
    if not is_irreducible(kernel):
        k = len(recurrent_classes(kernel))
        raise ReducibleChainError(
            f"kernel is reducible ({k} recurrent classes); restrict to one class first"
        )
    T = kernel.matrix
    M = T.shape[0]
    if M > ARNOLDI_MIN_STATES:
        return _arnoldi_stationary(T, tol, max_iters)
    s = np.full(M, 1.0 / M)
    for iteration in range(1, max_iters + 1):
        y = s @ T
        y /= y.sum()
        close = bool(np.abs(y - s).max() <= tol)
        s = y
        if close:
            residual = float(np.abs(s @ T - s).max())
            if residual <= tol:
                return StationaryDistribution(
                    s, method="iterative", residual=residual, iterations=iteration
                )
    raise ConvergenceError(
        f"power iteration did not reach residual {tol} within {max_iters} iterations"
    )


def _arnoldi_stationary(T, tol: float, max_iters: int) -> StationaryDistribution:
    """Left Perron vector of T by Arnoldi on the transpose view of T."""
    M = T.shape[0]
    try:
        # A fixed start vector keeps the result deterministic; ARPACK's
        # default one is random.  ArpackNoConvergence is an ArpackError.
        _, vectors = eigs(
            T.T, k=1, which="LM", v0=np.full(M, 1.0 / M), tol=tol, maxiter=max_iters
        )
    except ArpackError as exc:
        raise ConvergenceError(
            f"Arnoldi failed with a budget of {max_iters} restarts: {exc}"
        ) from exc
    s = np.abs(vectors[:, 0].real)
    s /= s.sum()
    residual = float(np.abs(s @ T - s).max())
    if residual > tol:
        raise ConvergenceError(
            f"Arnoldi stopped at residual {residual:.3e}, above the tolerance {tol}"
        )
    return StationaryDistribution(s, method="arnoldi", residual=residual)


def _csr_entry(T, u: int, v: int) -> float:
    lo, hi = T.indptr[u], T.indptr[u + 1]
    pos = int(np.searchsorted(T.indices[lo:hi], v))
    if pos < hi - lo and T.indices[lo + pos] == v:
        return float(T.data[lo + pos])
    return 0.0


def reversible_stationary(kernel: TransitionKernel) -> StationaryDistribution:
    """Exact stationary vector of a reversible chain via detailed balance.

    Fixes s at a root state and propagates s_v = s_u T_uv / T_vu along a
    spanning tree of the transition support, in log space; afterwards
    verifies detailed balance on every edge.  Raises NotReversibleError
    if the support is asymmetric or the balance check fails, and
    ReducibleChainError if the chain is not irreducible.
    """
    T = kernel.matrix
    M = T.shape[0]
    A = (T + T.T).tocsr()
    parent = np.full(M, -1, dtype=np.int64)
    order = [0]
    seen = np.zeros(M, dtype=bool)
    seen[0] = True
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in A.indices[A.indptr[u] : A.indptr[u + 1]]:
            if not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(int(v))
    if len(order) < M:
        raise ReducibleChainError("kernel support is not connected")

    logs = np.zeros(M)
    for v in order[1:]:
        u = int(parent[v])
        up = _csr_entry(T, u, v)
        down = _csr_entry(T, v, u)
        if up <= 0.0 or down <= 0.0:
            raise NotReversibleError(
                f"one-way transition between states {u} and {v}; chain is not reversible"
            )
        logs[v] = logs[u] + np.log(up) - np.log(down)
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
