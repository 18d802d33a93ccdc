"""Reference stationary vectors by GTH elimination, for the tests.

GTH (Grassmann, Taksar & Heyman 1985) eliminates states one at a time
and never subtracts: the mass a removed state sends back is a sum of
off-diagonal entries.  Every entry of the result is therefore
accurate to a few units in the last place relative to itself, however
small, which makes it the oracle the solvers are checked against.
"""

from fractions import Fraction

import numpy as np


def gth_stationary(T):
    """Dense GTH on a sparse kernel, restricted to its band.

    Elimination without pivoting keeps the fill inside the kernel's
    bandwidth, so skipping the entries outside it changes no result.
    """
    coo = T.tocoo()
    band = int(np.abs(coo.row - coo.col).max())
    P = T.toarray()
    M = len(P)
    for k in range(M - 1, 0, -1):
        lo = max(0, k - band)
        P[lo:k, k] /= P[k, lo:k].sum()
        P[lo:k, lo:k] += np.outer(P[lo:k, k], P[k, lo:k])
    s = np.zeros(M)
    s[0] = 1.0
    for k in range(1, M):
        lo = max(0, k - band)
        s[k] = s[lo:k] @ P[lo:k, k]
    return s / s.sum()


def gth_exact(T) -> list[Fraction]:
    """The same elimination in exact rational arithmetic on T's float values."""
    P = [[Fraction(float(v)) for v in row] for row in T.toarray()]
    M = len(P)
    for k in range(M - 1, 0, -1):
        out = sum(P[k][:k])
        for i in range(k):
            P[i][k] /= out
        for i in range(k):
            for j in range(k):
                P[i][j] += P[i][k] * P[k][j]
    s = [Fraction(1)] + [Fraction(0)] * (M - 1)
    for k in range(1, M):
        s[k] = sum(s[i] * P[i][k] for i in range(k))
    total = sum(s)
    return [x / total for x in s]
