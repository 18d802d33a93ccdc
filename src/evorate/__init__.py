"""Entropy rates of finite-population birth-death processes.

The pieces compose left to right: a payoff landscape and an incentive
define selection, a mutation model completes the reproduction step, the
kernel module assembles the Markov chain on the population lattice, and
the stationary and entropy modules characterize its long-run behavior.

    >>> from evorate import (Incentive, Landscape, MutationModel,
    ...                      ProcessConfig, evaluate_process)
    >>> config = ProcessConfig(
    ...     n=3, N=30,
    ...     incentive=Incentive.neutral(),
    ...     mutation=MutationModel.uniform(1 / 30),
    ...     landscape=Landscape.neutral(),
    ... )
    >>> round(evaluate_process(config).report.entropy_rate, 3)
    1.155

The package exports the types, the errors, and the functions a caller
composes; helpers such as kernel.recurrent_classes,
stationary.check_detailed_balance or the catalog's named landscapes are
imported from their modules.
"""

from .catalog import Landscape
from .dynamics import GameMatrix, Incentive, MutationModel
from .entropy import (
    EntropyReport,
    entropy_rate,
    entropy_rate_bound,
    plug_in_entropy_rate,
    transition_entropies,
)
from .errors import (
    ConvergenceError,
    EvorateError,
    IllDefinedIncentiveError,
    NotReversibleError,
    NumericalConsistencyError,
    ReducibleChainError,
    ValidationError,
)
from .kernel import TransitionKernel, build_kernel
from .sampler import TrajectoryConfig, sample_trajectory
from .simplex import central_states, enumerate_states, num_states, rank_states
from .stationary import (
    StationaryDistribution,
    neutral_stationary,
    reversible_stationary,
    solve_stationary,
)
from .sweep import (
    DerivedMu,
    ProcessConfig,
    ProcessResult,
    SweepAxis,
    SweepRow,
    SweepSpec,
    evaluate_process,
    load_sweep_spec,
    run_sweep,
)

__version__ = "0.1.0"
