import hashlib
import re

import numpy as np
import pytest
from scipy import sparse

from evorate import (
    Incentive,
    Landscape,
    MutationModel,
    TrajectoryConfig,
    TransitionKernel,
    ValidationError,
    build_kernel,
    central_states,
    neutral_stationary,
    rank_states,
    sample_trajectory,
)
from evorate.sampler import _BLOCK, dump_trajectory, load_trajectory


@pytest.fixture(scope="module")
def kern():
    return build_kernel(2, 10, Incentive.neutral(), None, MutationModel.uniform(0.2))


def test_same_seed_same_trajectory(kern):
    a = sample_trajectory(kern, TrajectoryConfig(length=200, seed=7))
    b = sample_trajectory(kern, TrajectoryConfig(length=200, seed=7))
    assert np.array_equal(a, b)


def test_different_seed_differs(kern):
    a = sample_trajectory(kern, TrajectoryConfig(length=200, seed=7))
    b = sample_trajectory(kern, TrajectoryConfig(length=200, seed=8))
    assert not np.array_equal(a, b)


def test_transitions_are_supported(kern):
    path = sample_trajectory(kern, TrajectoryConfig(length=500, seed=1))
    T = kern.matrix
    for u, v in zip(path[:-1], path[1:]):
        assert T[u, v] > 0.0


def test_default_start_is_central(kern):
    path = sample_trajectory(kern, TrajectoryConfig(length=1, seed=0))
    want = rank_states(central_states(2, 10), 2, 10)
    assert path[0] in want


def test_start_as_counts(kern):
    path = sample_trajectory(kern, TrajectoryConfig(length=1, seed=0, start=(3, 7)))
    assert path[0] == int(rank_states(np.array([[3, 7]]), 2, 10)[0])


def test_start_as_row_index(kern):
    path = sample_trajectory(kern, TrajectoryConfig(length=3, seed=0, start=4))
    assert path[0] == 4


def test_start_validation(kern):
    with pytest.raises(ValidationError):
        sample_trajectory(kern, TrajectoryConfig(length=3, seed=0, start=99))
    with pytest.raises(ValidationError):
        sample_trajectory(kern, TrajectoryConfig(length=3, seed=0, start=(3, 8)))
    for start, message in [
        ((11, -1), "state has negative counts"),
        ((2.5, 7.5), "state must have integer counts"),  # not truncated to (2, 7)
        ((3, 7, 0), "state has 3 coordinates, expected n=2"),
        ((3, 6), "state sums to 9, expected N=10"),
    ]:
        with pytest.raises(ValidationError, match=re.escape(message)):
            sample_trajectory(kern, TrajectoryConfig(length=3, seed=0, start=start))


def test_start_outside_a_reachable_kernel():
    corner = build_kernel(
        2, 6, Incentive.neutral(), None, MutationModel.uniform(0.0), reachable_from=[6, 0]
    )
    with pytest.raises(
        ValidationError,
        match=re.escape("central state [3, 3] is not part of this kernel; pass a start"),
    ):
        sample_trajectory(corner, TrajectoryConfig(length=3, seed=0))
    with pytest.raises(
        ValidationError, match=re.escape("start state [3, 3] is not part of this kernel")
    ):
        sample_trajectory(corner, TrajectoryConfig(length=3, seed=0, start=(3, 3)))


def test_config_validation():
    with pytest.raises(ValidationError):
        TrajectoryConfig(length=0, seed=0)
    with pytest.raises(ValidationError):
        TrajectoryConfig(length=5, seed=-1)
    with pytest.raises(ValidationError, match="length"):
        TrajectoryConfig(length=True, seed=0)
    with pytest.raises(ValidationError, match="seed"):
        TrajectoryConfig(length=5, seed=False)
    for start in (True, False):  # a bool is not row 1 or row 0
        with pytest.raises(ValidationError, match="start must be a row index or a state"):
            TrajectoryConfig(length=5, seed=0, start=start)
    assert TrajectoryConfig(length=np.int64(5), seed=np.uint8(3)).length == 5


def _searchsorted_walk(kernel, start, config):
    """Reference: the per-step np.searchsorted loop over cached numpy rows."""
    T = kernel.matrix
    out = [start]
    cache = {}
    for u in np.random.Generator(np.random.PCG64(config.seed)).random(config.length - 1):
        current = out[-1]
        if current not in cache:
            lo, hi = T.indptr[current], T.indptr[current + 1]
            cache[current] = (T.indices[lo:hi], np.cumsum(T.data[lo:hi]))
        cols, cum = cache[current]
        out.append(int(cols[min(np.searchsorted(cum, u, side="right"), cols.size - 1)]))
    return np.array(out)


def test_golden_trajectory():
    # Recorded from the np.searchsorted sampler (commit e5f4dea, before rows
    # became Python lists stepped with bisect); the walk must not change.
    game = Landscape.rsp(a=1.0, b=1.0).build(3)
    kern = build_kernel(3, 30, Incentive.fermi(beta=1.0), game, MutationModel.uniform(1 / 30))
    path = sample_trajectory(kern, TrajectoryConfig(length=5000, seed=12345))
    assert path[:10].tolist() == [220, 219, 218, 239, 240, 240, 240, 240, 219, 220]
    assert path[-10:].tolist() == [397, 397, 397, 369, 369, 369, 369, 370, 370, 370]
    digest = hashlib.sha256(path.astype("<i8").tobytes()).hexdigest()
    assert digest == "17027c1f2abbf68a55754cc59b7aaa3befa3b62a3ea9eb963a80eee5474e2f75"


@pytest.mark.parametrize("length", [2, _BLOCK, _BLOCK + 1, _BLOCK + 2])
def test_walk_across_block_edges_matches_reference(kern, length):
    # _BLOCK + 1 states take exactly one block of draws; _BLOCK + 2 spill one into a second
    config = TrajectoryConfig(length=length, seed=5, start=4)
    path = sample_trajectory(kern, config)
    assert path.dtype == np.int64
    assert np.array_equal(path, _searchsorted_walk(kern, 4, config))


def test_row_without_transitions_fails_when_reached():
    # 0 -> 1 -> 2 deterministically; row 2 is empty
    T = sparse.csr_array(np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]]))
    kern = TransitionKernel(matrix=T)
    path = sample_trajectory(kern, TrajectoryConfig(length=3, seed=0, start=0))
    assert path.tolist() == [0, 1, 2]
    with pytest.raises(ValidationError, match="row 2 has no transitions"):
        sample_trajectory(kern, TrajectoryConfig(length=50, seed=0, start=0))


def test_empirical_frequencies_match_stationary(kern):
    # long run: occupancy should land close to the exact distribution
    path = sample_trajectory(kern, TrajectoryConfig(length=60_000, seed=11))
    counts = np.bincount(path, minlength=kern.num_states)
    empirical = counts / counts.sum()
    exact = neutral_stationary(2, 10, 0.2).probabilities
    assert np.max(np.abs(empirical - exact)) < 0.01


def test_dump_load_round_trip(tmp_path, kern):
    path = sample_trajectory(kern, TrajectoryConfig(length=50, seed=3))
    out = tmp_path / "walk.txt"
    dump_trajectory(path, out, seed=3)
    back = load_trajectory(out)
    assert np.array_equal(back, path)
    text = out.read_text()
    assert text.startswith("#")
    assert "seed=3" in text


def test_dump_writes_exact_bytes(tmp_path):
    out = tmp_path / "walk.txt"
    dump_trajectory(np.array([3, 0, 12]), out, seed=5)
    assert out.read_bytes() == b"# length=3 seed=5 rng=pcg64\n3\n0\n12\n"
    dump_trajectory(np.array([7]), out)
    assert out.read_bytes() == b"7\n"


def test_load_skips_comments_and_blank_lines_and_counts_them(tmp_path):
    walk = tmp_path / "walk.txt"
    walk.write_text("# header\n\n 4 \n# note\n2\n\n")
    assert load_trajectory(walk).tolist() == [4, 2]
    walk.write_text("# header\n\n4\n# note\n2.5\n")
    with pytest.raises(ValidationError, match=r"line 5: expected a state index, got '2\.5'"):
        load_trajectory(walk)
    walk.write_text("4\n99999999999999999999\n")  # beyond int64
    with pytest.raises(ValidationError, match="line 2: expected a state index"):
        load_trajectory(walk)


def test_load_rejects_garbage(tmp_path):
    bad = tmp_path / "walk.txt"
    bad.write_text("0\n1\ntwo\n")
    with pytest.raises(ValidationError, match="line 3"):
        load_trajectory(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValidationError):
        load_trajectory(empty)
