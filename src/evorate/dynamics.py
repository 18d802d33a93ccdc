"""Selection and mutation primitives for birth-death population processes.

Fitness comes from a game matrix A: at population fraction abar the
fitness of type i is f_i(abar) = (A @ abar)_i.  An incentive phi maps
the fraction vector to nonnegative reproductive weights, and a mutation
matrix Q (row j = offspring distribution of a type-j birth) turns the
normalized weights into reproduction probabilities

    p_i(abar) = sum_j phibar_j Q_ji,   phibar = phi / sum(phi).

Supported incentive families:

  neutral          phi = abar
  replicator       phi_i = abar_i^q * f_i(abar), with 0^0 = 1
  fermi            phi_i = abar_i^q * exp(beta f_i), normalized
  best_reply       all weight on the fitter type (two types only)

The replicator family requires nonnegative weights, so landscapes with
negative payoffs must be shifted before use; the fermi family is
invariant under such shifts.
"""

from dataclasses import dataclass

import numpy as np

from .errors import IllDefinedIncentiveError, ValidationError

INCENTIVE_KINDS = ("neutral", "replicator", "fermi", "best_reply")

_SIMPLEX_TOL = 1e-12


def _number(value, what: str) -> float:
    """float(value) for an int, a float or a numpy number, not a bool.

    Anything else raises ValidationError naming `what`.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise ValidationError(f"{what} is too large for a float") from None


@dataclass(frozen=True)
class GameMatrix:
    """A square payoff matrix defining linear fitness f(abar) = A @ abar."""

    entries: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.entries, dtype=np.float64)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValidationError(f"game matrix must be square, got shape {A.shape}")
        if A.shape[0] < 2:
            raise ValidationError("game matrix needs at least two types")
        if not np.isfinite(A).all():
            raise ValidationError("game matrix has non-finite entries")
        A = A.copy()
        A.flags.writeable = False
        object.__setattr__(self, "entries", A)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class Incentive:
    """An incentive family plus its parameters."""

    kind: str
    q: float | None = None
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in INCENTIVE_KINDS:
            raise ValidationError(
                f"unknown incentive kind {self.kind!r}, expected one of {INCENTIVE_KINDS}"
            )
        for key in ("q", "beta"):
            if getattr(self, key) is not None:
                object.__setattr__(self, key, _number(getattr(self, key), f"incentive {key!r}"))
        if self.q is not None and self.kind not in ("replicator", "fermi"):
            raise ValidationError(f"the {self.kind} incentive takes no exponent q, got q={self.q}")
        if self.beta is not None and self.kind != "fermi":
            raise ValidationError(f"the {self.kind} incentive takes no beta, got beta={self.beta}")
        if self.kind in ("replicator", "fermi"):
            if self.q is None:
                object.__setattr__(self, "q", 1.0)
            if not np.isfinite(self.q) or self.q < 0:
                raise ValidationError(f"exponent q must be finite and >= 0, got {self.q}")
        if self.kind == "fermi":
            if self.beta is None:
                raise ValidationError("fermi incentive requires a selection strength beta")
            if not np.isfinite(self.beta) or self.beta < 0:
                raise ValidationError(f"beta must be finite and >= 0, got {self.beta}")

    @classmethod
    def neutral(cls) -> "Incentive":
        return cls("neutral")

    @classmethod
    def replicator(cls, q: float = 1.0) -> "Incentive":
        return cls("replicator", q=q)

    @classmethod
    def fermi(cls, beta: float, q: float = 1.0) -> "Incentive":
        return cls("fermi", q=q, beta=beta)

    @classmethod
    def best_reply(cls) -> "Incentive":
        return cls("best_reply")


@dataclass(frozen=True)
class MutationModel:
    """Either a uniform rate mu or an explicit row-stochastic matrix.

    Under the uniform model an offspring keeps its parent type with
    probability 1 - mu and otherwise is one of the n - 1 other types
    uniformly, so Q = (1 - mu) I + mu/(n-1) (J - I).
    """

    mu: float | None = None
    custom: np.ndarray | None = None

    def __post_init__(self):
        if (self.mu is None) == (self.custom is None):
            raise ValidationError("specify exactly one of a rate mu or an explicit matrix")
        if self.mu is not None:
            object.__setattr__(self, "mu", _number(self.mu, "mutation 'mu'"))
            if not np.isfinite(self.mu) or not 0.0 <= self.mu <= 1.0:
                raise ValidationError(f"mutation rate must lie in [0, 1], got {self.mu}")
        if self.custom is not None:
            Q = np.asarray(self.custom, dtype=np.float64)
            if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
                raise ValidationError(f"mutation matrix must be square, got shape {Q.shape}")
            if not np.isfinite(Q).all() or (Q < 0).any() or (Q > 1).any():
                raise ValidationError("mutation matrix entries must lie in [0, 1]")
            rowsums = Q.sum(axis=1)
            bad = np.flatnonzero(np.abs(rowsums - 1.0) > _SIMPLEX_TOL)
            if bad.size:
                raise ValidationError(
                    f"mutation matrix row {bad[0]} sums to {rowsums[bad[0]]!r}, expected 1"
                )
            Q = Q.copy()
            Q.flags.writeable = False
            object.__setattr__(self, "custom", Q)

    @classmethod
    def uniform(cls, mu: float) -> "MutationModel":
        return cls(mu=mu)

    @classmethod
    def from_matrix(cls, matrix) -> "MutationModel":
        return cls(custom=matrix)

    def matrix(self, n: int) -> np.ndarray:
        """The n x n mutation matrix Q."""
        if n < 2:
            raise ValidationError(f"need at least two types, got n={n}")
        if self.custom is not None:
            if self.custom.shape[0] != n:
                raise ValidationError(
                    f"mutation matrix is {self.custom.shape[0]}x{self.custom.shape[0]}, "
                    f"process has n={n} types"
                )
            return self.custom
        Q = np.full((n, n), self.mu / (n - 1))
        np.fill_diagonal(Q, 1.0 - self.mu)
        return Q


def _ill_defined(message: str, row: int) -> IllDefinedIncentiveError:
    exc = IllDefinedIncentiveError(message)
    exc.row = int(row)  # lets batch callers name the offending state
    return exc


def incentive_values_batch(
    incentive: Incentive, game: GameMatrix | None, fractions: np.ndarray
) -> np.ndarray:
    """Incentive weights for each row of an (M, n) array of fraction vectors.

    Raises IllDefinedIncentiveError if any row gets negative weights or
    a zero total, naming the first offending row.
    """
    X = np.asarray(fractions, dtype=np.float64)
    if X.ndim != 2:
        raise ValidationError(f"expected an (M, n) array of fractions, got shape {X.shape}")
    n = X.shape[1]
    if incentive.kind == "neutral":
        return X.copy()

    if game is None:
        raise ValidationError(f"{incentive.kind} incentive requires a game matrix")
    if game.n != n:
        raise ValidationError(f"game matrix is {game.n}x{game.n}, fractions have n={n}")
    F = X @ game.entries.T

    if incentive.kind == "best_reply":
        if n != 2:
            raise ValidationError("best_reply is only defined for two types")
        phi = np.zeros_like(X)
        f1, f2 = F[:, 0], F[:, 1]
        phi[f1 > f2, 0] = X[f1 > f2, 0]
        phi[f2 > f1, 1] = X[f2 > f1, 1]
        ties = f1 == f2
        phi[ties] = X[ties]
    elif incentive.kind == "replicator":
        phi = np.power(X, incentive.q) * F
        bad = np.flatnonzero((phi < 0).any(axis=1))
        if bad.size:
            raise _ill_defined(
                f"replicator incentive is negative at fractions {X[bad[0]].tolist()}; "
                "shift the game matrix to nonnegative payoffs or use fermi",
                bad[0],
            )
    else:  # fermi
        weights = np.power(X, incentive.q)
        logits = incentive.beta * F
        logits -= logits.max(axis=1, keepdims=True)  # overflow guard
        phi = weights * np.exp(logits)
        totals = phi.sum(axis=1, keepdims=True)
        # A far fitter absent type underflows every present term: shift by the present ones.
        zero = np.flatnonzero(totals[:, 0] <= 0.0)
        if zero.size:
            zero = zero[(weights[zero] > 0.0).any(axis=1)]
            present = np.where(weights[zero] > 0.0, logits[zero], -np.inf)
            phi[zero] = weights[zero] * np.exp(present - present.max(axis=1, keepdims=True))
            totals[zero] = phi[zero].sum(axis=1, keepdims=True)
        phi = phi / np.where(totals > 0.0, totals, 1.0)  # rows left at zero fail below

    bad = np.flatnonzero(phi.sum(axis=1) <= 0.0)
    if bad.size:
        raise _ill_defined(
            f"incentive assigns zero total weight at fractions {X[bad[0]].tolist()}", bad[0]
        )
    return phi
