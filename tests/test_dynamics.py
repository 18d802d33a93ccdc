import numpy as np
import pytest

from evorate import (
    GameMatrix,
    IllDefinedIncentiveError,
    Incentive,
    Landscape,
    MutationModel,
    ValidationError,
    build_kernel,
)
from evorate.dynamics import incentive_values_batch
from evorate.simplex import rank_state


def incentive_values(incentive, game, x):
    """Incentive weights of a single fraction vector."""
    return incentive_values_batch(incentive, game, np.asarray(x, dtype=float)[None, :])[0]


def test_game_matrix_validation():
    assert GameMatrix([[1, 2], [3, 4]]).n == 2
    with pytest.raises(ValidationError):
        GameMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValidationError):
        GameMatrix([[np.inf, 1], [0, 1]])
    with pytest.raises(ValidationError):
        GameMatrix([[1]])


def test_game_matrix_is_read_only():
    game = GameMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        game.entries[0, 0] = 9


def test_fitness_values():
    # Linear fitness f(x) = A @ x.
    assert (Landscape.neutral().build(3).entries @ [0.2, 0.3, 0.5]).tolist() == [1, 1, 1]
    assert (Landscape.moran(2).build(2).entries @ [0.7, 0.3]).tolist() == [2, 1]
    third = [1 / 3, 1 / 3, 1 / 3]
    assert (Landscape.rsp(1, 1).build(3).entries @ third).tolist() == [0, 0, 0]
    hd = Landscape.hawk_dove().build(2).entries @ [0.5, 0.5]
    assert hd.tolist() == [1.5, 1.5]


def test_incentive_validation():
    with pytest.raises(ValidationError):
        Incentive("darwin")
    with pytest.raises(ValidationError):
        Incentive.replicator(q=-1)
    with pytest.raises(ValidationError):
        Incentive.fermi(beta=-0.5)
    with pytest.raises(ValidationError):
        Incentive("fermi")  # beta is required
    assert Incentive.fermi(beta=2).q == 1.0


def test_mutation_model_uniform():
    Q = MutationModel.uniform(0.3).matrix(3)
    assert np.allclose(np.diag(Q), 0.7)
    assert np.allclose(Q[0, 1], 0.15)
    assert np.allclose(Q.sum(axis=1), 1.0)
    assert MutationModel.uniform(0.0).matrix(2).tolist() == [[1, 0], [0, 1]]
    with pytest.raises(ValidationError, match="two types"):
        MutationModel.uniform(0.1).matrix(1)
    with pytest.raises(ValidationError):
        MutationModel.uniform(1.5)
    with pytest.raises(ValidationError):
        MutationModel.uniform(-0.1)


def test_mutation_model_explicit_matrix():
    Q = [[0.9, 0.1], [0.4, 0.6]]
    model = MutationModel.from_matrix(Q)
    assert model.matrix(2).tolist() == Q
    with pytest.raises(ValidationError):
        model.matrix(3)
    with pytest.raises(ValidationError):
        MutationModel.from_matrix([[0.9, 0.2], [0.4, 0.6]])  # row sums off
    with pytest.raises(ValidationError):
        MutationModel.from_matrix([[1.2, -0.2], [0.5, 0.5]])
    with pytest.raises(ValidationError):
        MutationModel(mu=0.1, custom=np.eye(2))  # both given


def test_neutral_incentive_is_the_fractions():
    x = np.array([0.25, 0.5, 0.25])
    assert incentive_values(Incentive.neutral(), None, x).tolist() == x.tolist()


def test_replicator_matches_neutral_on_constant_landscape():
    x = np.array([0.3, 0.2, 0.5])
    phi = incentive_values(Incentive.replicator(q=1), Landscape.neutral().build(3), x)
    assert phi.tolist() == x.tolist()


def test_replicator_zero_power_convention():
    # q=0 gives weight to absent types: phi = f
    phi = incentive_values(Incentive.replicator(q=0), Landscape.moran(2).build(2), [1.0, 0.0])
    assert phi.tolist() == [2.0, 1.0]


def test_replicator_rejects_negative_fitness():
    with pytest.raises(IllDefinedIncentiveError):
        incentive_values(Incentive.replicator(q=1), Landscape.rsp(1, 1).build(3), [0.5, 0.0, 0.5])


def test_fermi_is_normalized_and_shift_invariant():
    game = Landscape.hawk_dove().build(2)
    shifted = GameMatrix(game.entries + 7.0)
    x = np.array([0.6, 0.4])
    a = incentive_values(Incentive.fermi(beta=1.3), game, x)
    b = incentive_values(Incentive.fermi(beta=1.3), shifted, x)
    assert abs(a.sum() - 1.0) < 1e-12
    assert np.allclose(a, b, atol=1e-14)


def test_fermi_weak_selection_is_neutral():
    x = np.array([0.6, 0.4])
    phi = incentive_values(Incentive.fermi(beta=0.0), Landscape.moran(2).build(2), x)
    assert phi.tolist() == x.tolist()


def test_fermi_survives_huge_beta():
    phi = incentive_values(Incentive.fermi(beta=1e4), Landscape.moran(2).build(2), [0.5, 0.5])
    assert np.isfinite(phi).all()
    assert abs(phi.sum() - 1.0) < 1e-12


def test_fermi_strong_selection_toward_an_absent_type():
    # At (10, 0) only type 0 is present, and the absent type 1 is fitter by
    # beta * 10 = 1000: exp(-1000) underflows type 0's only term.  The
    # absent type gets no weight, so the row is still well defined.
    game = GameMatrix([[0.0, 0.0], [10.0, 10.0]])
    inc = Incentive.fermi(beta=100.0)
    assert incentive_values(inc, game, [1.0, 0.0]).tolist() == [1.0, 0.0]
    kern = build_kernel(2, 10, inc, game, MutationModel.uniform(0.01))
    cols, probs = kern.row(rank_state((10, 0)))
    assert kern.states[cols].tolist() == [[10, 0], [9, 1]]
    assert probs[1] == pytest.approx(0.01, abs=1e-15)


def test_fermi_zero_weights_everywhere_are_ill_defined():
    # With q this large every fraction's weight underflows to zero; the
    # generic zero-total check still names the row.
    with pytest.raises(IllDefinedIncentiveError, match="zero total weight"):
        incentive_values(Incentive.fermi(beta=1.0, q=2000.0), Landscape.moran(2).build(2), [0.5, 0.5])


def test_best_reply_picks_the_fitter_type():
    game = Landscape.hawk_dove().build(2)
    inc = Incentive.best_reply()
    assert incentive_values(inc, game, [0.75, 0.25]).tolist() == [0.0, 0.25]
    assert incentive_values(inc, game, [0.25, 0.75]).tolist() == [0.25, 0.0]
    # exact tie keeps the fractions
    assert incentive_values(inc, game, [0.5, 0.5]).tolist() == [0.5, 0.5]


def test_best_reply_is_two_types_only():
    with pytest.raises(ValidationError):
        incentive_values(Incentive.best_reply(), Landscape.rsp(1, 1).build(3), [0.4, 0.3, 0.3])


def test_best_reply_undefined_when_winner_absent():
    with pytest.raises(IllDefinedIncentiveError):
        incentive_values(Incentive.best_reply(), Landscape.hawk_dove().build(2), [1.0, 0.0])


def kernel_entry(kern, source, target):
    """T[source -> target] of a full-lattice kernel, states given as counts."""
    return kern.matrix[rank_state(source), rank_state(target)]


def test_reproduction_probabilities_example():
    # At (N, 0) under the neutral incentive every birth is of type 1, so
    # the only way out is a type-2 mutant replacing a type 1: T = mu * N/N.
    N, mu = 6, 0.3
    kern = build_kernel(2, N, Incentive.neutral(), None, MutationModel.uniform(mu))
    assert kernel_entry(kern, [N, 0], [N - 1, 1]) == mu
    assert kernel_entry(kern, [N, 0], [N, 0]) == 1 - mu


def test_reproduction_probabilities_scale_invariant():
    # The replicator weights scale with the payoffs; the kernel must not.
    game = Landscape.rsp(1.0, 0.5).build(3).entries + 1.0
    mutation = MutationModel.uniform(0.2)
    base = build_kernel(3, 7, Incentive.replicator(), GameMatrix(game), mutation).matrix
    for scale in (2.0, 0.5, 3.7):
        scaled = build_kernel(3, 7, Incentive.replicator(), GameMatrix(scale * game), mutation)
        assert abs(scaled.matrix - base).max() < 1e-14


def test_reproduction_probabilities_rejects_bad_weights():
    uniform = MutationModel.uniform(0.1)
    with pytest.raises(IllDefinedIncentiveError):  # zero total weight everywhere
        build_kernel(2, 4, Incentive.replicator(), GameMatrix(np.zeros((2, 2))), uniform)
    with pytest.raises(IllDefinedIncentiveError):  # negative weights
        build_kernel(2, 4, Incentive.replicator(), GameMatrix(-np.ones((2, 2))), uniform)
    with pytest.raises(ValidationError):  # mutation matrix for the wrong type count
        build_kernel(2, 4, Incentive.neutral(), None, MutationModel.from_matrix(np.eye(3)))


def test_reproduction_probabilities_fuzz_is_stochastic():
    rng = np.random.default_rng(42)
    for _ in range(30):
        n = int(rng.integers(2, 5))
        Q = rng.random((n, n))
        Q /= Q.sum(axis=1, keepdims=True)
        game = GameMatrix(rng.random((n, n)) + 1e-3)
        kern = build_kernel(n, n + 3, Incentive.replicator(), game, MutationModel.from_matrix(Q))
        T = kern.matrix
        assert (T.data >= 0).all()
        assert np.abs(T.sum(axis=1) - 1.0).max() < 1e-12


def test_batch_matches_single():
    rng = np.random.default_rng(3)
    game = Landscape.rsp(1.2, 0.7).build(3)
    inc = Incentive.fermi(beta=0.8, q=2.0)
    X = rng.dirichlet(np.ones(3), size=20)
    batch = incentive_values_batch(inc, game, X)
    for x, row in zip(X, batch):
        assert np.allclose(incentive_values(inc, game, x), row, atol=1e-15)
