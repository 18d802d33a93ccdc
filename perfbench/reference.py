"""Independent reference answers and the correctness gate.

The stationary vector is computed without the program's solvers.  In
general it is a direct sparse solve of the reduced system: (I - T^T) s = 0
with the equation of one pinned state k dropped and s_k fixed to 1,
factored by SuperLU and then normalized.  Where the closed form applies
(neutral reproduction with uniform mutation 0 < mu < (n-1)/n) the
Dirichlet-multinomial weights are evaluated from the state counts
instead.  The entropy rate is sum_a s_a H(T_a) with the row entropies
taken directly from the kernel.

Tolerances.  The program's power iteration stops once a step moves the
vector by at most 1e-12.  On its slowest-mixing chains (rock-scissors-
paper with N = 100-200, the five-type game) the remaining distance to
the direct solution measures up to 1.4e-6 in L1 and 5e-7 nats in the
rate.  Gaps of 1e-5 in both leave a margin of seven over that, yet a
real fault moves the answer by far more: the self-check moves 1e-3 of
the mass and must be rejected.
"""

import re

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve
from scipy.special import gammaln

from evorate.kernel import build_kernel

RATE_TOL = 1e-5
L1_TOL = 1e-5
REDUCIBLE_MESSAGE = re.compile(r"leaves \d+ recurrent classes .*no unique stationary distribution")
_PIN_ATTEMPTS = 4
_RESIDUAL_TOL = 1e-13


def row_entropies(T: sparse.csr_array) -> np.ndarray:
    """-sum_b T_ab log T_ab for every row of a CSR matrix."""
    data = T.data
    plogp = np.where(data > 0.0, data * np.log(np.where(data > 0.0, data, 1.0)), 0.0)
    sums = np.zeros(T.shape[0])
    rows = np.repeat(np.arange(T.shape[0]), np.diff(T.indptr))
    np.add.at(sums, rows, plogp)
    return -sums


def _pinned_solve(A: sparse.csc_array, k: int) -> np.ndarray:
    M = A.shape[0]
    keep = np.flatnonzero(np.arange(M) != k)
    rhs = -A[keep][:, [k]].toarray().ravel()
    x = spsolve(A[keep][:, keep].tocsc(), rhs)
    s = np.empty(M)
    s[keep] = x
    s[k] = 1.0
    return s


def direct_stationary(T: sparse.csr_array) -> np.ndarray:
    """Stationary vector of an irreducible row-stochastic matrix by sparse LU.

    Pinning a state of tiny probability leaves the other unknowns huge and
    the solve inaccurate, so the solve is repeated pinned at the largest
    unknown until the pinned state is the heaviest one.
    """
    M = T.shape[0]
    if M == 1:
        return np.ones(1)
    A = (sparse.identity(M, format="csc") - T.T).tocsc()
    pinned = M - 1
    for _ in range(_PIN_ATTEMPTS):
        s = _pinned_solve(A, pinned)
        heaviest = int(np.argmax(np.abs(s)))
        if abs(s[heaviest]) <= 1.0 + 1e-9:
            break
        pinned = heaviest
    else:
        raise ArithmeticError("reference solve found no well-scaled pinned state")
    s = np.clip(s, 0.0, None)
    s /= s.sum()
    residual = np.abs(s @ T - s).max()
    if not residual <= _RESIDUAL_TOL:
        raise ArithmeticError(f"reference solve has residual {residual:.3e}")
    return s


def closed_form_applies(config) -> bool:
    inc = config.incentive
    neutral = inc.kind == "neutral" or (
        inc.kind == "fermi" and inc.beta == 0.0 and inc.q == 1.0
    )
    mu = config.mutation.mu
    return neutral and mu is not None and 0.0 < mu < (config.n - 1) / config.n - 1e-9


def closed_form_stationary(states: np.ndarray, n: int, N: int, mu: float) -> np.ndarray:
    """Dirichlet-multinomial weights with alpha = N mu / (n - 1 - n mu)."""
    alpha = N * mu / (n - 1 - n * mu)
    logs = (
        gammaln(N + 1)
        - gammaln(states + 1).sum(axis=1)
        + (gammaln(alpha + states) - gammaln(alpha)).sum(axis=1)
    )
    s = np.exp(logs - logs.max())
    return s / s.sum()


def config_key(config) -> tuple:
    game = config.landscape.build(config.n)
    return (
        config.n,
        config.N,
        repr(config.incentive),
        config.mutation.mu,
        game.entries.tobytes(),
    )


class Reference:
    """Reference stationary vector and entropy rate for one process."""

    def __init__(self, config):
        game = config.landscape.build(config.n)
        kern = build_kernel(config.n, config.N, config.incentive, game, config.mutation)
        if closed_form_applies(config):
            s = closed_form_stationary(kern.states, config.n, config.N, config.mutation.mu)
        else:
            s = direct_stationary(kern.matrix)
        self.probabilities = s
        self.rate = float(s @ row_entropies(kern.matrix))


class ReferenceCache:
    """References keyed by process, each computed once per run."""

    def __init__(self):
        self._refs = {}

    def get(self, config) -> Reference:
        key = config_key(config)
        ref = self._refs.get(key)
        if ref is None:
            ref = self._refs[key] = Reference(config)
        return ref


def rate_error(ref: Reference, rate: float) -> float:
    return abs(rate - ref.rate)


def l1_error(ref: Reference, probabilities) -> float:
    p = np.asarray(probabilities, dtype=np.float64)
    if p.shape != ref.probabilities.shape:
        return float("inf")
    return float(np.abs(p - ref.probabilities).sum())


def gate(ref: Reference, rate: float, probabilities=None) -> str | None:
    """None when the answer matches the reference, else the reason it does not."""
    err = rate_error(ref, rate)
    if not err <= RATE_TOL:
        return f"entropy rate {rate!r} is {err:.3e} from the reference {ref.rate!r}"
    if probabilities is not None:
        gap = l1_error(ref, probabilities)
        if not gap <= L1_TOL:
            return f"stationary vector is {gap:.3e} from the reference in L1"
    return None


def check(outcome, refs: ReferenceCache) -> tuple[str | None, float | None]:
    """(reason the answer is wrong or None, its rate error if exact).

    A program error on an item that should have an answer is a failure
    but not a wrong answer; the caller counts it from `outcome.error`.
    """
    if outcome.expect == "reducible":
        if outcome.error is not None and REDUCIBLE_MESSAGE.search(outcome.error):
            return None, None
        got = outcome.error or outcome.rate
        return f"expected the recurrent-class error at mu=0, got {got!r}", None
    if outcome.error is not None:
        return None, None
    ref = refs.get(outcome.config)
    if outcome.expect == "estimate":
        gap = abs(outcome.rate - ref.rate)
        if not gap <= outcome.tolerance:
            return (
                f"plug-in estimate {outcome.rate!r} is {gap:.3e} from the exact rate "
                f"{ref.rate!r}, beyond {outcome.tolerance:.3e}"
            ), None
        return None, None
    return gate(ref, outcome.rate, outcome.probabilities), rate_error(ref, outcome.rate)
