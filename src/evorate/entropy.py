"""Entropy rates of kernels and their theoretical ceiling.

The entropy rate of an irreducible chain with stationary vector s is

    H = sum_a s_a H(T_a),    H(T_a) = -sum_b T_ab log T_ab,

with natural logarithms and the self-loop included in each row.  On the
population lattice a row has at most n(n-1) + 1 nonzero entries, and a
sharper bound comes from splitting the self-loop from the off-diagonal
mass: H <= (2n - 1)/n * log n for every incentive, mutation model, and
population size.

A plug-in estimator from an observed trajectory complements the exact
computation: count transitions, form the empirical pair distribution,
and read off the conditional entropy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalConsistencyError, ValidationError
from .kernel import TransitionKernel
from .stationary import StationaryDistribution


def shannon_entropy(probabilities) -> float:
    """Entropy -sum p log p in nats, with 0 log 0 = 0."""
    p = np.asarray(probabilities, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValidationError(f"expected a probability vector, got shape {p.shape}")
    if (p < -1e-12).any() or abs(p.sum() - 1.0) > 1e-9:
        raise ValidationError(f"probabilities must be nonnegative and sum to 1, got {p.tolist()}")
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def transition_entropies(kernel: TransitionKernel) -> np.ndarray:
    """Row entropies H(T_a) for every state, vectorized over the CSR data."""
    T = kernel.matrix
    data = T.data
    plogp = np.zeros_like(data)
    mask = data > 0.0
    plogp[mask] = data[mask] * np.log(data[mask])
    h = np.zeros(T.shape[0])
    nonempty = np.flatnonzero(np.diff(T.indptr) > 0)
    if nonempty.size:
        h[nonempty] = -np.add.reduceat(plogp, T.indptr[:-1][nonempty])
    # -0.0 from deterministic rows is just noise.
    return np.maximum(h, 0.0)


def transition_entropy(kernel: TransitionKernel, state_index: int) -> float:
    """Entropy of a single row's transition distribution."""
    _, probs = kernel.row(state_index)
    return shannon_entropy(probs)


def entropy_rate_bound(n: int) -> float:
    """(2n - 1)/n * log n, the ceiling on the entropy rate for n types."""
    if n < 2:
        raise ValidationError(f"need at least two types, got n={n}")
    return (2 * n - 1) / n * math.log(n)


def bound_fraction(n: int) -> float:
    """The ceiling as a fraction of log(n(n-1) + 1), the naive row maximum."""
    return entropy_rate_bound(n) / math.log(n * (n - 1) + 1)


@dataclass(frozen=True)
class EntropyReport:
    """Entropy rate of a process along with its ingredients."""

    entropy_rate: float
    per_state_entropy: np.ndarray
    stationary: StationaryDistribution
    bound: float | None
    n: int | None
    N: int | None

    def to_json(self) -> dict:
        return {
            "entropy_rate": self.entropy_rate,
            "bound": self.bound,
            "n": self.n,
            "N": self.N,
            "residual": self.stationary.residual,
        }


def entropy_rate(kernel: TransitionKernel, dist: StationaryDistribution) -> EntropyReport:
    """Stationary-weighted row entropy sum_a s_a H(T_a).

    When the kernel knows its type count the report carries the
    theoretical bound, and exceeding it (beyond float tolerance) raises
    NumericalConsistencyError since no valid process can do so.
    """
    s = dist.probabilities
    if s.shape != (kernel.num_states,):
        raise ValidationError(
            f"stationary vector has {s.shape[0]} entries, kernel has {kernel.num_states} states"
        )
    h = transition_entropies(kernel)
    rate = float(s @ h)
    bound = entropy_rate_bound(kernel.n) if kernel.n is not None else None
    if bound is not None and rate > bound + 1e-9:
        raise NumericalConsistencyError(
            f"entropy rate {rate!r} exceeds the theoretical bound {bound!r}"
        )
    return EntropyReport(
        entropy_rate=rate,
        per_state_entropy=h,
        stationary=dist,
        bound=bound,
        n=kernel.n,
        N=kernel.N,
    )


def max_transition_entropy_states(kernel: TransitionKernel, atol: float = 1e-12) -> np.ndarray:
    """Row indices whose transition entropy is maximal (within atol)."""
    h = transition_entropies(kernel)
    return np.flatnonzero(h >= h.max() - atol)


def plug_in_entropy_rate(trajectory) -> float:
    """Empirical entropy rate of an observed state sequence.

    With pair counts c_ab over the L - 1 consecutive transitions and
    source counts c_a = sum_b c_ab,

        H_hat = -sum_ab c_ab / (L - 1) * log(c_ab / c_a).

    Consistent for an ergodic chain as L grows.  Each pair (a, b) is
    counted as one integer key (a - min) * M + (b - min), with M the label
    span plus one, so sorted keys are sorted pairs.
    """
    t = np.asarray(trajectory)
    if t.ndim != 1 or t.size < 2:
        raise ValidationError("trajectory must contain at least two observations")
    if not np.issubdtype(t.dtype, np.integer):
        raise ValidationError("trajectory must hold integer state indices")
    lo = int(t.min())
    span = int(t.max()) - lo + 1
    if span * span > np.iinfo(np.int64).max:
        _, t = np.unique(t, return_inverse=True)
        lo, span = 0, int(t.max()) + 1
    # unsigned labels cannot fall below lo; signed ones widen before the shift
    if t.dtype.kind == "u":
        t = (t - t.dtype.type(lo)).astype(np.int64)
    else:
        t = t.astype(np.int64) - lo
    pairs, counts = np.unique(t[:-1] * span + t[1:], return_counts=True)
    _, source = np.unique(pairs // span, return_inverse=True)
    totals = np.bincount(source, weights=counts)[source]
    conditional = counts / totals
    return float(-(counts / (t.size - 1) * np.log(conditional)).sum()) + 0.0
