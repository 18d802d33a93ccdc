"""Command-line interface.

Subcommands: states, kernel, stationary, entropy-rate, sweep, sample,
estimate.  Exit codes: 0 on success, 1 for bad input (arguments, files,
ill-posed processes), 2 for numerical failures (non-convergence,
internal consistency checks).
"""

import argparse
import contextlib
import json
import sys

from .catalog import Landscape, load_game_matrix
from .dynamics import Incentive, MutationModel
from .entropy import plug_in_entropy_rate
from .errors import (
    ConvergenceError,
    EvorateError,
    NumericalConsistencyError,
    ValidationError,
)
from .kernel import build_kernel, dump_kernel
from .sampler import TrajectoryConfig, dump_trajectory, load_trajectory, sample_trajectory
from .simplex import central_states, enumerate_states, num_states
from .stationary import DEFAULT_TOL, export_stationary_csv
from .sweep import (
    ProcessConfig,
    evaluate_process,
    load_sweep_spec_file,
    run_sweep,
    write_rows_csv,
    write_rows_json,
)


class _Parser(argparse.ArgumentParser):
    # Usage errors are input errors: exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_process_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--n", type=int, default=2, help="number of types (default 2)")
    sub.add_argument("--N", type=int, required=True, help="population size")
    sub.add_argument("--mu", type=float, required=True, help="uniform mutation rate in [0, 1]")
    sub.add_argument(
        "--incentive",
        default="neutral",
        choices=["neutral", "replicator", "fermi", "best-reply"],
        help="incentive family (default neutral)",
    )
    sub.add_argument("--q", type=float, default=1.0, help="fraction exponent (default 1)")
    sub.add_argument("--beta", type=float, default=1.0, help="fermi selection strength (default 1)")
    sub.add_argument(
        "--landscape",
        default="neutral",
        choices=["neutral", "moran", "hawk-dove", "zero-diag", "rsp", "custom"],
        help="payoff landscape (default neutral)",
    )
    sub.add_argument("--r", type=float, help="moran landscape fitness")
    sub.add_argument("--a", type=float, help="rsp win payoff")
    sub.add_argument("--b", type=float, help="rsp loss payoff")
    sub.add_argument("--matrix-file", help="JSON game matrix for --landscape custom")


def _add_solver_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--tol", type=float, default=DEFAULT_TOL, help="solver residual tolerance")


def _landscape_from_args(args) -> Landscape:
    name = args.landscape.replace("-", "_")
    if name == "custom":
        if not args.matrix_file:
            raise ValidationError("--landscape custom requires --matrix-file")
        return Landscape.custom(load_game_matrix(args.matrix_file))
    params = {}
    if name == "moran":
        if args.r is None:
            raise ValidationError("--landscape moran requires --r")
        params["r"] = args.r
    if name == "rsp":
        if args.a is None or args.b is None:
            raise ValidationError("--landscape rsp requires --a and --b")
        params["a"] = args.a
        params["b"] = args.b
    return Landscape(name, **params)


def _incentive_from_args(args) -> Incentive:
    kind = args.incentive.replace("-", "_")
    if kind == "fermi":
        return Incentive.fermi(beta=args.beta, q=args.q)
    if kind == "replicator":
        return Incentive.replicator(q=args.q)
    if kind == "best_reply":
        return Incentive.best_reply()
    return Incentive.neutral()


def _process_config(args) -> ProcessConfig:
    return ProcessConfig(
        n=args.n,
        N=args.N,
        incentive=_incentive_from_args(args),
        mutation=MutationModel.uniform(args.mu),
        landscape=_landscape_from_args(args),
    )


@contextlib.contextmanager
def _output(path):
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _cmd_states(args) -> int:
    if args.list:
        with _output(args.out) as fh:
            for rank, counts in enumerate(enumerate_states(args.n, args.N)):
                fh.write(f"{rank}," + ",".join(str(int(c)) for c in counts) + "\n")
        return 0
    doc = {"n": args.n, "N": args.N, "num_states": num_states(args.n, args.N)}
    with _output(args.out) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


def _built_kernel(args):
    config = _process_config(args)
    game = config.landscape.build(config.n)
    seeds = central_states(config.n, config.N) if args.reachable_from_center else None
    return build_kernel(
        config.n, config.N, config.incentive, game, config.mutation, reachable_from=seeds
    )


def _cmd_kernel(args) -> int:
    kern = _built_kernel(args)
    with _output(args.out) as fh:
        dump_kernel(kern, fh)
    return 0


def _cmd_stationary(args) -> int:
    result = evaluate_process(_process_config(args), tol=args.tol)
    with _output(args.out) as fh:
        export_stationary_csv(result.kernel, result.stationary, fh)
    return 0


def _cmd_entropy_rate(args) -> int:
    result = evaluate_process(_process_config(args), tol=args.tol)
    with _output(args.out) as fh:
        json.dump(result.report.to_json(), fh, indent=2)
        fh.write("\n")
    return 0


def _cmd_sweep(args) -> int:
    spec = load_sweep_spec_file(args.config)
    rows = run_sweep(spec, tol=args.tol)
    path = args.out if args.out is not None else spec.output_path
    with _output(path) as fh:
        if spec.output_format == "json":
            write_rows_json(rows, fh)
        else:
            write_rows_csv(rows, fh)
    failures = sum(1 for row in rows if row.error)
    if failures:
        print(f"{failures} of {len(rows)} rows failed; see the error column", file=sys.stderr)
    return 0


def _cmd_sample(args) -> int:
    kern = _built_kernel(args)
    start = None
    if args.start is not None:
        try:
            start = tuple(int(part) for part in args.start.split(","))
        except ValueError as exc:
            raise ValidationError(f"--start must be comma-separated counts, got {args.start!r}") from exc
    config = TrajectoryConfig(length=args.length, seed=args.seed, start=start)
    trajectory = sample_trajectory(kern, config)
    with _output(args.out) as fh:
        dump_trajectory(trajectory, fh, seed=config.seed)
    return 0


def _cmd_estimate(args) -> int:
    with open(args.trajectory) as fh:
        trajectory = load_trajectory(fh)
    doc = {
        "plug_in_entropy_rate": plug_in_entropy_rate(trajectory),
        "observations": int(trajectory.size),
    }
    with _output(args.out) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="evorate", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("states", parents=[], help="count or list population states")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--N", type=int, required=True)
    sub.add_argument("--list", action="store_true", help="list every state with its rank")
    sub.add_argument("--out", help="output file (default stdout)")
    sub.set_defaults(func=_cmd_states)

    sub = commands.add_parser("kernel", help="dump the transition kernel as triplets")
    _add_process_args(sub)
    sub.add_argument(
        "--reachable-from-center",
        action="store_true",
        help="build only the states reachable from the center (needed when mu=0)",
    )
    sub.add_argument("--out", help="output file (default stdout)")
    sub.set_defaults(func=_cmd_kernel)

    sub = commands.add_parser("stationary", help="stationary distribution as CSV")
    _add_process_args(sub)
    _add_solver_args(sub)
    sub.add_argument("--out", help="output file (default stdout)")
    sub.set_defaults(func=_cmd_stationary)

    sub = commands.add_parser("entropy-rate", help="entropy rate report as JSON")
    _add_process_args(sub)
    _add_solver_args(sub)
    sub.add_argument("--out", help="output file (default stdout)")
    sub.set_defaults(func=_cmd_entropy_rate)

    sub = commands.add_parser("sweep", help="run a parameter sweep from a JSON config")
    sub.add_argument("--config", required=True, help="sweep configuration file")
    _add_solver_args(sub)
    sub.add_argument("--out", help="override the configured output path")
    sub.set_defaults(func=_cmd_sweep)

    sub = commands.add_parser("sample", help="sample a trajectory of state indices")
    _add_process_args(sub)
    sub.add_argument(
        "--reachable-from-center",
        action="store_true",
        help="build only the states reachable from the center (needed when mu=0)",
    )
    sub.add_argument("--length", type=int, required=True, help="number of states to sample")
    sub.add_argument("--seed", type=int, required=True, help="random seed")
    sub.add_argument("--start", help="start state as comma-separated counts (default: central)")
    sub.add_argument("--out", help="output file (default stdout)")
    sub.set_defaults(func=_cmd_sample)

    sub = commands.add_parser("estimate", help="plug-in entropy rate from a trajectory file")
    sub.add_argument("--trajectory", required=True, help="file written by the sample command")
    sub.add_argument("--out", help="output file (default stdout)")
    sub.set_defaults(func=_cmd_estimate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConvergenceError, NumericalConsistencyError) as exc:
        print(f"evorate: numerical failure: {exc}", file=sys.stderr)
        return 2
    except EvorateError as exc:
        print(f"evorate: error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"evorate: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
