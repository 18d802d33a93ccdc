import numpy as np
import pytest

from evorate import (
    Incentive,
    MutationModel,
    TrajectoryConfig,
    ValidationError,
    build_kernel,
    central_states,
    neutral_stationary,
    rank_states,
    sample_trajectory,
)
from evorate.sampler import dump_trajectory, load_trajectory


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


def test_config_validation():
    with pytest.raises(ValidationError):
        TrajectoryConfig(length=0, seed=0)
    with pytest.raises(ValidationError):
        TrajectoryConfig(length=5, seed=-1)


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


def test_load_rejects_garbage(tmp_path):
    bad = tmp_path / "walk.txt"
    bad.write_text("0\n1\ntwo\n")
    with pytest.raises(ValidationError, match="line 3"):
        load_trajectory(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValidationError):
        load_trajectory(empty)
