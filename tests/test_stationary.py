import io
import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse import identity
from scipy.sparse.linalg import eigs, spsolve

from evorate import (
    ConvergenceError,
    GameMatrix,
    Incentive,
    Landscape,
    MutationModel,
    NotReversibleError,
    ProcessConfig,
    ReducibleChainError,
    StationaryDistribution,
    ValidationError,
    build_kernel,
    evaluate_process,
    neutral_stationary,
    reversible_stationary,
    solve_stationary,
)
from evorate import stationary as stationary_module
from evorate.cli import main
from evorate.entropy import entropy_rate
from evorate.kernel import _orbit_kernel, raw_kernel
from evorate.simplex import num_states, rank_states
from evorate.stationary import (
    ARNOLDI_MIN_STATES,
    DIRECT_MAX_STATES,
    check_detailed_balance,
    export_stationary_csv,
    stationary_residual,
)
from gth import gth_exact, gth_stationary


def neutral_kernel(n, N, mu):
    return build_kernel(n, N, Incentive.neutral(), None, MutationModel.uniform(mu))


def test_neutral_stationary_hand_computed():
    # n=2, N=2, mu=0.2: alpha = 2/3 and s = (5/14, 4/14, 5/14)
    dist = neutral_stationary(2, 2, 0.2)
    assert dist.method == "closed_form"
    assert np.allclose(dist.probabilities, [5 / 14, 4 / 14, 5 / 14], atol=1e-14)


def test_neutral_stationary_uniform_reproduction():
    # mu = (n-1)/n: s_a = multinomial(N; a) / n^N
    dist = neutral_stationary(2, 3, 0.5)
    assert np.allclose(dist.probabilities, np.array([1, 3, 3, 1]) / 8, atol=1e-15)
    dist = neutral_stationary(3, 2, 2 / 3)
    assert np.allclose(dist.probabilities, np.array([1, 2, 2, 1, 2, 1]) / 9, atol=1e-15)


def test_neutral_stationary_is_exchangeable():
    dist = neutral_stationary(2, 12, 0.07)
    assert np.allclose(dist.probabilities, dist.probabilities[::-1], atol=1e-15)


@pytest.mark.parametrize("n,N,mu", [(2, 20, 0.1), (3, 12, 0.05), (4, 8, 0.3)])
def test_closed_form_is_stationary_and_balanced(n, N, mu):
    kern = neutral_kernel(n, N, mu)
    dist = neutral_stationary(n, N, mu)
    assert stationary_residual(kern, dist.probabilities) < 1e-13
    ok, violation = check_detailed_balance(kern, dist.probabilities)
    assert ok and violation < 1e-15


def test_neutral_stationary_falls_back_above_uniform_mu():
    # The closed form refuses mu > (n-1)/n; evaluate_process solves the chain.
    with pytest.raises(ValidationError, match="evaluate_process"):
        neutral_stationary(2, 6, 0.9)
    mutation = MutationModel.uniform(0.9)
    config = ProcessConfig(2, 6, Incentive.neutral(), mutation, Landscape.neutral())
    dist = evaluate_process(config).stationary
    assert dist.method == "reversible_exact"
    exact = reversible_stationary(neutral_kernel(2, 6, 0.9))
    assert np.allclose(dist.probabilities, exact.probabilities, rtol=0, atol=1e-10)


def test_neutral_stationary_validates_mu():
    for mu in (0.0, -0.1, 1.0001, float("nan")):
        with pytest.raises(ValidationError):
            neutral_stationary(2, 5, mu)


@pytest.mark.parametrize("n,N,mu", [(2, 10, 0.1), (3, 8, 0.2)])
def test_power_iteration_matches_closed_form(n, N, mu):
    kern = neutral_kernel(n, N, mu)
    dist = solve_stationary(kern)
    assert dist.method == "iterative"
    assert dist.residual <= 1e-12
    assert dist.iterations is not None and dist.iterations > 0
    # the residual bounds s T - s, not the gap to the exact vector, so
    # allow for the mixing-time amplification
    closed = neutral_stationary(n, N, mu)
    assert np.abs(dist.probabilities - closed.probabilities).max() < 1e-9


def test_power_iteration_requires_irreducibility():
    frozen = neutral_kernel(2, 6, 0.0)
    with pytest.raises(ReducibleChainError):
        solve_stationary(frozen)


def test_power_iteration_budget(monkeypatch):
    kern = build_kernel(
        3, 6, Incentive.fermi(beta=1.0), Landscape.rsp(1, 1).build(3), MutationModel.uniform(0.1)
    )
    monkeypatch.setattr(stationary_module, "_MAX_ITERS", 3)
    with pytest.raises(ConvergenceError, match="within 3 iterations"):
        solve_stationary(kern)


def rsp_kernel(N, mu):
    return build_kernel(
        3, N, Incentive.fermi(beta=1.0), Landscape.rsp(1, 1).build(3), MutationModel.uniform(mu)
    )


def direct_stationary(kern, pin):
    """SuperLU solve of (I - T^T) s = 0 with the equation at `pin` dropped and s_pin = 1."""
    M = kern.num_states
    A = (identity(M, format="csr") - kern.matrix.T).tocsr()
    rest = np.flatnonzero(np.arange(M) != pin)
    s = np.ones(M)
    s[rest] = spsolve(A[rest][:, rest].tocsc(), -A[rest][:, [pin]].toarray().ravel())
    return s / s.sum()


GAME4 = np.random.default_rng(20240817).uniform(-1, 2, (4, 4))  # criterion 5's seed


def game4_kernel(mu):
    """n=4, N=20 fermi chain (1,771 states) on GAME4."""
    return build_kernel(
        4, 20, Incentive.fermi(beta=1.0), GameMatrix(GAME4), MutationModel.uniform(mu)
    )


def test_arnoldi_matches_closed_form():
    kern = neutral_kernel(4, 20, 0.05)
    assert kern.num_states == 1771 > ARNOLDI_MIN_STATES
    dist = solve_stationary(kern)
    assert dist.method == "arnoldi"
    closed = neutral_stationary(4, 20, 0.05)
    assert np.abs(dist.probabilities - closed.probabilities).max() <= 1e-10


def test_arnoldi_matches_reversible_product():
    kern = build_kernel(
        2, 1500, Incentive.fermi(beta=2.0), Landscape.moran(2).build(2), MutationModel.uniform(1 / 1500)
    )
    dist = solve_stationary(kern)
    assert dist.method == "arnoldi"
    exact = reversible_stationary(kern)
    # criterion 4's bound; Arnoldi's gap here is a few 1e-10
    assert np.abs(dist.probabilities - exact.probabilities).max() <= 1e-8


def test_arnoldi_matches_direct_solve_and_is_deterministic():
    kern = game4_kernel(1 / 20)
    dist = solve_stationary(kern)
    assert dist.method == "arnoldi"
    assert dist.iterations is None
    assert dist.residual <= 1e-12
    assert dist.residual == stationary_residual(kern, dist.probabilities)
    direct = direct_stationary(kern, int(np.argmax(dist.probabilities)))
    assert np.abs(dist.probabilities - direct).max() <= 1e-10
    again = solve_stationary(kern)
    assert np.array_equal(dist.probabilities, again.probabilities)


def stationary_by_left_products(kern):
    """solve_stationary as written with left products: s @ T steps, eigs on the view T.T."""
    T = kern.matrix
    M = T.shape[0]
    tol, max_iters = stationary_module._TOL, stationary_module._MAX_ITERS
    if M > ARNOLDI_MIN_STATES:
        _, vectors = eigs(T.T, k=1, which="LM", v0=np.full(M, 1.0 / M), tol=tol, maxiter=max_iters)
        s = np.abs(vectors[:, 0].real)
        return s / s.sum(), None
    s = np.full(M, 1.0 / M)
    for iteration in range(1, max_iters + 1):
        y = s @ T
        y /= y.sum()
        close = bool(np.abs(y - s).max() <= tol)
        s = y
        if close and stationary_residual(kern, s) <= tol:
            return s, iteration
    raise AssertionError("the reference power iteration did not converge")


@pytest.mark.parametrize(
    "make_kernel,method",
    [
        (lambda: rsp_kernel(30, 1 / 30), "iterative"),  # criterion 2's chain, 496 states
        (lambda: game4_kernel(1 / 20), "arnoldi"),  # no type symmetry, 1,771 states
    ],
    ids=["power-rsp-n3-N30", "arnoldi-game4-N20"],
)
def test_row_major_transpose_changes_no_bit(make_kernel, method):
    kern = make_kernel()
    dist = solve_stationary(kern)
    assert dist.method == method
    s, iterations = stationary_by_left_products(kern)
    assert np.array_equal(dist.probabilities, s)
    assert dist.iterations == iterations


def test_arnoldi_budget(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(stationary_module, "_MAX_ITERS", 1)
    with pytest.raises(ConvergenceError, match="budget of 1 restarts"):
        solve_stationary(game4_kernel(1 / 20))
    matrix_path = tmp_path / "game.json"
    matrix_path.write_text(json.dumps({"n": 4, "matrix": GAME4.tolist()}))
    code = main([
        "entropy-rate", "--n", "4", "--N", "20", "--mu", repr(1 / 20),
        "--incentive", "fermi", "--landscape", "custom", "--matrix-file", str(matrix_path),
    ])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_arnoldi_nan_vector_is_a_convergence_error(monkeypatch):
    def nan_eigs(A, **kwargs):
        return None, np.full((A.shape[0], 1), np.nan)

    monkeypatch.setattr(stationary_module, "eigs", nan_eigs)
    with pytest.raises(ConvergenceError, match="Arnoldi"):
        solve_stationary(neutral_kernel(4, 20, 0.05))


def test_arnoldi_route_requires_irreducibility():
    with pytest.raises(ReducibleChainError):
        solve_stationary(neutral_kernel(4, 20, 0.0))


def game3_kernel(entries, N, beta, q, mu):
    return build_kernel(
        3, N, Incentive.fermi(beta=beta, q=q), GameMatrix(np.array(entries, dtype=float)),
        MutationModel.uniform(mu),
    )


def test_direct_matches_closed_form():
    kern = neutral_kernel(3, 60, 0.05)
    assert ARNOLDI_MIN_STATES < kern.num_states == 1891 <= DIRECT_MAX_STATES
    dist = solve_stationary(kern)
    assert dist.method == "direct"
    closed = neutral_stationary(3, 60, 0.05)
    assert np.abs(dist.probabilities - closed.probabilities).max() <= 1e-10


def test_direct_matches_spsolve_and_is_deterministic():
    kern = rsp_kernel(60, 1 / 60)
    dist = solve_stationary(kern)
    assert dist.method == "direct"
    assert dist.iterations is None
    assert dist.residual <= 1e-12
    assert dist.residual == stationary_residual(kern, dist.probabilities)
    direct = direct_stationary(kern, int(np.argmax(dist.probabilities)))
    assert np.abs(dist.probabilities - direct).max() <= 1e-10
    again = solve_stationary(kern)
    assert np.array_equal(dist.probabilities, again.probabilities)


def test_direct_repins_away_from_a_massless_centre():
    kern = game3_kernel([[3, 3, 3], [0, 0, 0], [0, 0, 0]], 50, beta=10.0, q=1.0, mu=5e-4)
    assert kern.num_states == 1326
    dist = solve_stationary(kern)
    assert dist.method == "direct"
    s = dist.probabilities
    centre = int(np.argmin(np.abs(kern.states - 50 / 3).sum(axis=1)))
    assert s[centre] < 1e-90 * s.max()
    assert np.abs(s - gth_stationary(kern.matrix)).sum() <= 1e-10


def test_direct_route_requires_irreducibility():
    with pytest.raises(ReducibleChainError):
        solve_stationary(neutral_kernel(3, 60, 0.0))


def test_direct_residual_above_tolerance_is_a_convergence_error(monkeypatch):
    kern = rsp_kernel(45, 1 / 45)
    assert kern.num_states == 1081
    assert solve_stationary(kern).method == "direct"
    monkeypatch.setattr(stationary_module, "_TOL", 1e-30)
    with pytest.raises(ConvergenceError, match="sparse LU stopped at residual"):
        solve_stationary(kern)


def test_singular_factor_is_a_convergence_error(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(stationary_module, "splu", singular)
    with pytest.raises(ConvergenceError, match="sparse LU failed"):
        solve_stationary(rsp_kernel(45, 1 / 45))


def test_direct_solves_agree_across_threads():
    # SuperLU factors without the GIL, so pooled solves overlap; each
    # must still return the serial vector bit for bit.
    games = np.random.default_rng(5).uniform(-1, 2, (4, 3, 3))
    kernels = [
        game3_kernel(game, N, beta=1.0, q=1.0, mu=0.01) for game, N in zip(games, (45, 50, 55, 60))
    ]
    assert [k.num_states for k in kernels] == [1081, 1326, 1596, 1891]
    assert all(len(k.symmetries) == 1 for k in kernels)
    serial = [stationary_module._direct_stationary(k) for k in kernels]
    rounds = 5
    with ThreadPoolExecutor(max_workers=4) as pool:
        pooled = list(pool.map(stationary_module._direct_stationary, kernels * rounds))
    assert all(np.array_equal(x, s) for x, s in zip(pooled, serial * rounds))


def test_direct_route_size_cap(monkeypatch):
    # The cap reads the size of the chain that is solved: 631 orbits here.
    kern = rsp_kernel(60, 1 / 60)
    monkeypatch.setattr(stationary_module, "DIRECT_MAX_STATES", 631)
    assert solve_stationary(kern).method == "direct"
    monkeypatch.setattr(stationary_module, "DIRECT_MAX_STATES", 630)
    assert solve_stationary(kern).method == "arnoldi"


def test_three_type_chain_where_arnoldi_is_silently_wrong():
    # ARPACK stops here at residual 1.5e-14 with a vector 1.8e-4 off in L1.
    kern = game3_kernel(
        [[0.85, 1.64, 1.96], [0.07, 0.49, 0.21], [0.39, 1.56, 0.24]], 52, beta=0.5, q=2.0, mu=0.01
    )
    assert kern.num_states == 1431
    dist = solve_stationary(kern)
    assert np.abs(dist.probabilities - gth_stationary(kern.matrix)).sum() <= 1e-10


def test_gth_helper_matches_exact_rational_gth():
    kern = build_kernel(
        3, 6, Incentive.fermi(beta=1.0), Landscape.rsp(2, 1).build(3), MutationModel.uniform(0.01)
    )
    assert kern.num_states == 28
    exact = np.array([float(x) for x in gth_exact(kern.matrix)])
    assert np.abs(gth_stationary(kern.matrix) / exact - 1.0).max() <= 1e-14


def coordination_kernel(N):
    """Fermi beta=1, mu=0.01 on the coordination game diag(2, 2, 2): all of S3 fixes it."""
    return build_kernel(
        3, N, Incentive.fermi(beta=1.0), GameMatrix(2.0 * np.eye(3)), MutationModel.uniform(0.01)
    )


def test_coordination_game_matches_gth():
    # The LU of the whole chain was 6.6e-8 off here; the lumped one is not.
    kern = coordination_kernel(44)
    assert kern.num_states == 1035 and len(kern.symmetries) == 6
    dist = solve_stationary(kern)
    assert dist.method == "direct"
    assert np.abs(dist.probabilities - gth_stationary(kern.matrix)).sum() <= 1e-12


@pytest.mark.parametrize("N", [60, 111])
def test_coordination_game_vector_is_symmetric(N):
    # At N=111 the LU of the whole chain put all the corners' mass on one corner.
    kern = coordination_kernel(N)
    s = solve_stationary(kern).probabilities
    for perm in kern.symmetries:
        assert np.abs(s[rank_states(kern.states[:, perm], 3, N)] - s).max() <= 1e-15


def test_lumped_rsp_matches_the_whole_chain_lu():
    kern = rsp_kernel(100, 1 / 100)
    assert kern.num_states == 5151
    assert _orbit_kernel(kern)[0].num_states == 1717
    dist = solve_stationary(kern)
    assert dist.method == "direct"
    full = stationary_module._direct_stationary(kern)
    assert np.abs(dist.probabilities - full / full.sum()).sum() <= 1e-12


@pytest.mark.parametrize("N", [44, 45, 60, 100])
def test_orbit_counts_follow_burnside(N):
    # Burnside: orbits = mean number of states each group element fixes.
    # A 3-cycle fixes only the centre, which exists when 3 | N; a
    # transposition of two types fixes the floor(N/2) + 1 states where
    # their counts agree.
    M, centre = num_states(3, N), int(N % 3 == 0)
    cyclic = _orbit_kernel(rsp_kernel(N, 1 / N))[0]
    assert cyclic.num_states == (M + 2 * centre) // 3
    full = _orbit_kernel(coordination_kernel(N))[0]
    assert full.num_states == (M + 3 * (N // 2 + 1) + 2 * centre) // 6


def test_circulant_four_type_game_on_orbits():
    c = [0.0, 2.0, -1.0, 1.0]
    A = np.array([[c[(j - i) % 4] for j in range(4)] for i in range(4)])
    kern = build_kernel(
        4, 30, Incentive.fermi(beta=1.0), GameMatrix(A), MutationModel.uniform(0.02)
    )
    assert kern.num_states == 5456 and len(kern.symmetries) == 4
    assert _orbit_kernel(kern)[0].num_states >= 5456 // 4
    dist = solve_stationary(kern)
    assert dist.method == "arnoldi"
    full = stationary_module._direct_stationary(kern)
    assert np.abs(dist.probabilities - full / full.sum()).sum() <= 1e-9


def test_rsp_n200_is_solved_by_the_lu_on_its_orbits():
    config = ProcessConfig(
        3, 200, Incentive.fermi(beta=1.0), MutationModel.uniform(1 / 200), Landscape.rsp(a=1, b=1)
    )
    result = evaluate_process(config)
    assert result.stationary.method == "direct"
    assert result.stationary.residual <= 1e-12
    full = stationary_module._direct_stationary(result.kernel)
    full_rate = entropy_rate(result.kernel, StationaryDistribution(full / full.sum(), "direct"))
    assert abs(result.report.entropy_rate - full_rate.entropy_rate) <= 1e-12


def test_reversible_matches_closed_form_exactly_enough():
    kern = neutral_kernel(2, 25, 0.08)
    dist = reversible_stationary(kern)
    assert dist.method == "reversible_exact"
    closed = neutral_stationary(2, 25, 0.08)
    assert np.abs(dist.probabilities - closed.probabilities).max() < 1e-13
    assert dist.residual < 1e-14


def test_reversible_on_selection_chain():
    kern = build_kernel(
        2, 15, Incentive.fermi(beta=2.0), Landscape.moran(3).build(2), MutationModel.uniform(0.05)
    )
    dist = reversible_stationary(kern)
    iterative = solve_stationary(kern)
    assert np.abs(dist.probabilities - iterative.probabilities).max() < 1e-10


def test_reversible_rejects_cyclic_flow():
    # symmetric support but unbalanced flow around the triangle
    T = raw_kernel([[0.2, 0.6, 0.2], [0.2, 0.2, 0.6], [0.6, 0.2, 0.2]])
    with pytest.raises(NotReversibleError, match="detailed balance"):
        reversible_stationary(T)


def test_reversible_rejects_one_way_edges():
    T = raw_kernel([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
    with pytest.raises(NotReversibleError, match="one-way"):
        reversible_stationary(T)


def test_reversible_reads_duplicate_entries_summed():
    # Row 0 stores its move to state 1 as two entries of 0.25.
    T = sparse.csr_array(
        ([0.25, 0.25, 0.5, 0.25, 0.75], [1, 1, 0, 0, 1], [0, 3, 5]), shape=(2, 2)
    )
    dist = reversible_stationary(raw_kernel(T))
    assert np.allclose(dist.probabilities, [1 / 3, 2 / 3], atol=1e-15)
    assert T.nnz == 5  # the input itself is left as it was


def test_reversible_rejects_disconnected_support():
    with pytest.raises(ReducibleChainError):
        reversible_stationary(raw_kernel(np.eye(2)))


def test_rsp_chain_is_genuinely_irreversible():
    kern = build_kernel(
        3, 6, Incentive.fermi(beta=1.0), Landscape.rsp(1, 1).build(3), MutationModel.uniform(0.1)
    )
    dist = solve_stationary(kern)
    ok, violation = check_detailed_balance(kern, dist.probabilities)
    assert not ok and violation > 1e-6
    with pytest.raises(NotReversibleError):
        reversible_stationary(kern)


def test_distribution_validation():
    with pytest.raises(ValidationError):
        StationaryDistribution(np.array([0.7, 0.7]), method="test")
    with pytest.raises(ValidationError):
        StationaryDistribution(np.array([1.2, -0.2]), method="test")
    with pytest.raises(ValidationError):
        stationary_residual(neutral_kernel(2, 5, 0.1), np.ones(3) / 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_distribution_rejects_non_finite_entries(bad):
    with pytest.raises(ValidationError):
        StationaryDistribution(np.array([bad, 1.0]), method="test")


def test_export_stationary_csv():
    kern = neutral_kernel(2, 4, 0.25)
    dist = neutral_stationary(2, 4, 0.25)
    buf = io.StringIO()
    export_stationary_csv(kern, dist, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "rank,count_1,count_2,probability"
    assert len(lines) == 6
    cells = [line.split(",") for line in lines[1:]]
    assert [int(row[0]) for row in cells] == list(range(5))
    assert [int(row[1]) for row in cells] == [4, 3, 2, 1, 0]
    back = np.array([float(row[3]) for row in cells])
    assert (back == dist.probabilities).all()


def test_export_requires_lattice():
    with pytest.raises(ValidationError):
        export_stationary_csv(
            raw_kernel(np.eye(2)), StationaryDistribution(np.array([0.5, 0.5]), "x"), io.StringIO()
        )
