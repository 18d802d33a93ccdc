"""The package exports a small, fixed surface; the rest lives in modules."""

import types

import evorate

TYPES = {
    "GameMatrix", "Incentive", "Landscape", "MutationModel", "ProcessConfig",
    "ProcessResult", "TransitionKernel", "StationaryDistribution", "EntropyReport",
    "TrajectoryConfig", "SweepSpec", "SweepAxis", "DerivedMu", "SweepRow",
}
ERRORS = {
    "EvorateError", "ValidationError", "ConvergenceError", "IllDefinedIncentiveError",
    "NotReversibleError", "NumericalConsistencyError", "ReducibleChainError",
}
FUNCTIONS = {
    "evaluate_process", "run_sweep", "load_sweep_spec", "build_kernel", "solve_stationary",
    "reversible_stationary", "neutral_stationary", "entropy_rate", "entropy_rate_bound",
    "transition_entropies", "sample_trajectory", "plug_in_entropy_rate", "enumerate_states",
    "rank_states", "num_states", "central_states",
}


def test_package_exports_exactly_the_public_api():
    exported = {
        name for name, value in vars(evorate).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported == TYPES | ERRORS | FUNCTIONS
    assert len(exported) == 37
