"""The package exports a small, fixed surface, the rest lives in modules, and the
documented examples run."""

import contextlib
import doctest
import inspect
import io
import math
import re
import types
from pathlib import Path

import pytest

import evorate

README = Path(__file__).resolve().parent.parent / "README.md"

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


@pytest.mark.parametrize(
    "function,parameters",
    [
        (evorate.solve_stationary, ["kernel"]),
        (evorate.evaluate_process, ["config"]),
        (evorate.run_sweep, ["spec"]),
    ],
)
def test_solver_entry_points_take_no_settings(function, parameters):
    assert list(inspect.signature(function).parameters) == parameters


def test_package_docstring_and_readme_library_example_run():
    assert doctest.testmod(evorate) == (0, 3)  # failed, attempted: the docstring's 1.155
    block = re.search(r"## Library\n\n```python\n(.*?)```", README.read_text(), re.S).group(1)
    comments = re.findall(r"# (.*)", block)
    assert comments == ["1.1523...", "(5/3) log 3", '"iterative"']
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    rate, bound, method = out.getvalue().splitlines()
    assert rate.startswith("1.1523")
    assert float(bound) == pytest.approx(5 / 3 * math.log(3), rel=1e-12)
    assert method == "iterative"
