"""Trajectory sampling from a transition kernel.

Sampling is deterministic given a seed: a PCG64 generator supplies one
uniform draw per step, and each step inverts the CDF over the current
row's stored nonzeros.  Identical seeds give identical trajectories.

Each visited row is cached once as plain Python lists (its columns and
its cumulative sums) and the CDF is inverted with `bisect`, which is
several times faster per step than numpy calls on tiny arrays.  The
cumulative sums are numpy's, so the trajectory for a given seed is the
same one the earlier `np.searchsorted` loop produced.
"""

import os
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kernel import TransitionKernel
from .simplex import central_states, rank_states, validate_state


@dataclass(frozen=True)
class TrajectoryConfig:
    """Length, seed, and optional start state (defaults to a central state)."""

    length: int
    seed: int
    start: object = None

    def __post_init__(self):
        integer = (int, np.integer)
        if isinstance(self.length, bool) or not isinstance(self.length, integer) or self.length < 1:
            raise ValidationError(f"length must be a positive integer, got {self.length!r}")
        if isinstance(self.seed, bool) or not isinstance(self.seed, integer) or self.seed < 0:
            raise ValidationError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if isinstance(self.start, bool):
            raise ValidationError(f"start must be a row index or a state, got {self.start!r}")


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
    counts = validate_state(start, n=kernel.n, N=kernel.N)
    return _row_of(kernel, counts, f"start state {counts.tolist()} is not part of this kernel")


def _row_of(kernel: TransitionKernel, counts: np.ndarray, missing: str) -> int:
    """Row of a lattice kernel holding `counts`; ValidationError(missing) if none."""
    rows = rank_states(kernel.states, kernel.n, kernel.N)
    want = rank_states(counts[None, :], kernel.n, kernel.N)[0]
    pos = int(np.searchsorted(rows, want))
    if pos >= rows.size or rows[pos] != want:
        raise ValidationError(missing)
    return pos


_BLOCK = 1 << 16  # uniforms converted to Python floats at a time; bounds the memory


def sample_trajectory(kernel: TransitionKernel, config: TrajectoryConfig) -> np.ndarray:
    """Sample row indices of a trajectory of config.length states.

    The first entry is the start state; each subsequent entry is drawn
    by inverse CDF over the current row in stored (column) order.
    """
    current = _resolve_start(kernel, config.start)
    out = np.empty(config.length, dtype=np.int64)
    out[0] = current
    rng = np.random.Generator(np.random.PCG64(config.seed))
    T = kernel.matrix
    rows: dict[int, tuple[list[int], list[float], int]] = {}
    for begin in range(1, config.length, _BLOCK):
        end = min(begin + _BLOCK, config.length)
        states = []
        for u in rng.random(end - begin).tolist():
            row = rows.get(current)
            if row is None:
                lo, hi = int(T.indptr[current]), int(T.indptr[current + 1])
                if hi == lo:
                    raise ValidationError(f"row {current} has no transitions")
                row = (T.indices[lo:hi].tolist(), np.cumsum(T.data[lo:hi]).tolist(), hi - lo - 1)
                rows[current] = row
            cols, cum, last = row
            current = cols[min(bisect_right(cum, u), last)]
            states.append(current)
        out[begin:end] = states
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
    body = "\n".join(map(str, np.asarray(trajectory, dtype=np.int64).tolist()))
    with _opened(fh, "w") as out:
        if seed is not None:
            out.write(f"# length={len(trajectory)} seed={seed} rng=pcg64\n")
        if body:
            out.write(body + "\n")


def load_trajectory(fh) -> np.ndarray:
    """Read a trajectory written by dump_trajectory from a path or handle.

    Blank lines and '#' comments are skipped, and numpy parses the rest
    in one call.
    """
    with _opened(fh, "r") as src:
        lines = src.read().split("\n")
    body = [text for text in map(str.strip, lines) if text and text[0] != "#"]
    if not body:
        raise ValidationError("trajectory file contains no states")
    try:
        return np.array(body, dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        # Only a malformed file gets here; name its first bad line.
        for lineno, text in enumerate(map(str.strip, lines), start=1):
            if text and text[0] != "#":
                try:
                    np.array([text], dtype=np.int64)
                except (ValueError, OverflowError):
                    raise ValidationError(
                        f"line {lineno}: expected a state index, got {text!r}"
                    ) from exc
        raise
