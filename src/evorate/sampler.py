"""Trajectory sampling from a transition kernel.

Sampling is deterministic given a seed: a PCG64 generator supplies one
uniform draw per step, and each step inverts the CDF over the current
row's stored nonzeros.  Identical seeds give identical trajectories.
"""

import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kernel import TransitionKernel
from .simplex import central_states, rank_states


@dataclass(frozen=True)
class TrajectoryConfig:
    """Length, seed, and optional start state (defaults to a central state)."""

    length: int
    seed: int
    start: object = None

    def __post_init__(self):
        if not isinstance(self.length, (int, np.integer)) or self.length < 1:
            raise ValidationError(f"length must be a positive integer, got {self.length!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")


def _resolve_start(kernel: TransitionKernel, start) -> int:
    if isinstance(start, (int, np.integer)):
        if not 0 <= start < kernel.num_states:
            raise ValidationError(f"start row {start} out of range [0, {kernel.num_states})")
        return int(start)
    if kernel.states is None:
        if start is None:
            return 0
        raise ValidationError("raw kernels take a row index as start, not a state")
    if start is None:
        center = central_states(kernel.n, kernel.N)[0]
        missing = f"central state {center.tolist()} is not part of this kernel; pass a start"
        return _row_of(kernel, center, missing)
    counts = np.asarray(start, dtype=np.int64)
    return _row_of(kernel, counts, f"start state {counts.tolist()} is not part of this kernel")


def _row_of(kernel: TransitionKernel, counts: np.ndarray, missing: str) -> int:
    """Row of a lattice kernel holding `counts`; ValidationError(missing) if none."""
    rows = rank_states(kernel.states, kernel.n, kernel.N)
    want = rank_states(counts[None, :], kernel.n, kernel.N)[0]
    pos = int(np.searchsorted(rows, want))
    if pos >= rows.size or rows[pos] != want:
        raise ValidationError(missing)
    return pos


def sample_trajectory(kernel: TransitionKernel, config: TrajectoryConfig) -> np.ndarray:
    """Sample row indices of a trajectory of config.length states.

    The first entry is the start state; each subsequent entry is drawn
    by inverse CDF over the current row in stored (column) order.
    """
    current = _resolve_start(kernel, config.start)
    out = np.empty(config.length, dtype=np.int64)
    out[0] = current
    if config.length == 1:
        return out
    rng = np.random.Generator(np.random.PCG64(config.seed))
    draws = rng.random(config.length - 1)
    T = kernel.matrix
    cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for step, u in enumerate(draws, start=1):
        row = cache.get(current)
        if row is None:
            lo, hi = T.indptr[current], T.indptr[current + 1]
            cols = T.indices[lo:hi]
            if cols.size == 0:
                raise ValidationError(f"row {current} has no transitions")
            row = (cols, np.cumsum(T.data[lo:hi]))
            cache[current] = row
        cols, cum = row
        current = int(cols[min(np.searchsorted(cum, u, side="right"), cols.size - 1)])
        out[step] = current
    return out


def _opened(fh, mode: str):
    if isinstance(fh, (str, os.PathLike)):
        return open(fh, mode)
    return nullcontext(fh)


def dump_trajectory(trajectory: np.ndarray, fh, seed: int | None = None) -> None:
    """Write one state index per line to a path or handle.

    The seed, if given, is recorded in a '#' comment so a dumped file
    documents how to regenerate itself.
    """
    with _opened(fh, "w") as out:
        if seed is not None:
            out.write(f"# length={len(trajectory)} seed={seed} rng=pcg64\n")
        for idx in trajectory:
            out.write(f"{int(idx)}\n")


def load_trajectory(fh) -> np.ndarray:
    """Read a trajectory written by dump_trajectory from a path or handle."""
    values = []
    with _opened(fh, "r") as src:
        for lineno, line in enumerate(src, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                values.append(int(text))
            except ValueError as exc:
                raise ValidationError(
                    f"line {lineno}: expected a state index, got {text!r}"
                ) from exc
    if not values:
        raise ValidationError("trajectory file contains no states")
    return np.array(values, dtype=np.int64)
