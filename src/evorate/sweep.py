"""Process evaluation pipeline and parameter sweeps.

evaluate_process ties the pieces together for a single configuration:
build the kernel, pick the cheapest valid stationary solver, and return
the entropy-rate report.  The closed form applies to uniform mutation
with an effectively neutral incentive, or at mu = (n-1)/n, where
reproduction is uniform regardless of the incentive; two-type chains
take the reversible product; the rest go to solve_stationary, whose
routes and size thresholds are listed in stationary.py.

Uniform mutation at a positive rate makes the chain irreducible, so the
process lives on the whole lattice.  Mutation rate zero, or a custom
mutation matrix, can make parts of the lattice unreachable and leave
the incentive undefined at the corners, so those processes live on the
set reachable from the central states (_process_kernel, which the CLI's
kernel and sample commands share); evaluate_process then restricts them
to their recurrent class, and if more than one class remains there is
no unique stationary distribution and the point is reported as an error.

A sweep varies up to two named parameters over grids, evaluates the
points on a thread pool of one worker per CPU (at most 8, and no more
than there are points), and emits rows with a fixed column set.  The
workers factor side by side, so each may hold one sparse LU factor:
about 5 MB at 5,151 states and 10 MB at 10,000.  A bad value anywhere
in the grid refuses the whole spec before anything runs; a point that
fails to evaluate (a reducible chain, an ill-defined incentive, a
solver that does not converge) lands in the row's error column rather
than aborting, except entropy-rate bound violations, which indicate an
implementation problem and abort the run.

load_sweep_spec reads a sweep's JSON document: each object through
catalog._block, with its keys named once, and each number by the type
that holds it (see catalog.py).
"""

import contextlib
import csv
import itertools
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .catalog import Landscape, _block, _check_square_rows, _read_json, landscape_from_json
from .dynamics import Incentive, MutationModel, _number
from .entropy import EntropyReport, entropy_rate
from .errors import (
    EvorateError,
    NotReversibleError,
    NumericalConsistencyError,
    ReducibleChainError,
    ValidationError,
)
from .kernel import (
    TransitionKernel,
    build_kernel,
    recurrent_classes,
    restrict_to_states,
)
from .simplex import central_states
from .stationary import (
    StationaryDistribution,
    neutral_stationary,
    reversible_stationary,
    solve_stationary,
    stationary_residual,
)

AXIS_NAMES = ("mu", "N", "beta", "q", "r", "a", "b", "k")

@dataclass(frozen=True)
class ProcessConfig:
    """Everything needed to define one process."""

    n: int
    N: int
    incentive: Incentive
    mutation: MutationModel
    landscape: Landscape

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValidationError(f"need at least two types, got n={self.n!r}")
        if not isinstance(self.N, (int, np.integer)) or self.N <= self.n:
            raise ValidationError(
                f"population must exceed the number of types, got n={self.n}, N={self.N!r}"
            )
        if self.incentive.kind == "best_reply" and self.n != 2:
            raise ValidationError("best_reply is only defined for two types")
        # Both raise ValidationError unless the game and the mutation matrix have n types.
        self.landscape.build(self.n)
        self.mutation.matrix(self.n)


@dataclass(frozen=True)
class ProcessResult:
    """Kernel, stationary distribution, and entropy report for one process."""

    kernel: TransitionKernel
    stationary: StationaryDistribution
    report: EntropyReport


def _effectively_neutral(incentive: Incentive, landscape: Landscape, n: int) -> bool:
    """True when the normalized incentive reduces to the population fractions."""
    if incentive.kind == "neutral":
        return True
    if incentive.q != 1.0:
        return False
    if incentive.kind == "fermi" and incentive.beta == 0.0:
        return True
    if incentive.kind in ("fermi", "replicator"):
        A = landscape.build(n).entries
        return bool((A == A[0]).all())  # identical rows: all types share one fitness
    return False


def _process_kernel(config: ProcessConfig) -> tuple[TransitionKernel, bool]:
    """The kernel on the states the process lives on, and whether it is irreducible.

    That is the whole lattice under uniform mu > 0, and otherwise the
    states reachable from the central states (see the module docstring).
    """
    n, N = config.n, config.N
    mu = config.mutation.mu
    irreducible = mu is not None and mu > 0.0
    kern = build_kernel(
        n, N, config.incentive, config.landscape.build(n), config.mutation,
        reachable_from=None if irreducible else central_states(n, N),
    )
    return kern, irreducible


def evaluate_process(config: ProcessConfig) -> ProcessResult:
    """Kernel, stationary distribution, and entropy rate for one process."""
    n, N = config.n, config.N
    mu = config.mutation.mu
    kern, irreducible = _process_kernel(config)
    if not irreducible:
        # Keep the one recurrent class of what the process can visit.
        classes = recurrent_classes(kern)
        if len(classes) != 1:
            source = "the mutation matrix" if mu is None else "mutation rate 0"
            sizes = [len(c) for c in classes]
            raise ReducibleChainError(
                f"{source} leaves {len(classes)} recurrent classes "
                f"(sizes {sizes}); no unique stationary distribution"
            )
        kern = restrict_to_states(kern, classes[0])

    uniform_mu = (n - 1) / n
    dist = None
    if mu is not None and (
        (0.0 < mu <= uniform_mu + 1e-12 and _effectively_neutral(config.incentive, config.landscape, n))
        or abs(mu - uniform_mu) <= 1e-12
    ):
        dist = neutral_stationary(n, N, mu)
        dist = replace(dist, residual=stationary_residual(kern, dist.probabilities))
    elif n == 2 or kern.num_states == 1:
        with contextlib.suppress(NotReversibleError):
            dist = reversible_stationary(kern)
    if dist is None:
        dist = solve_stationary(kern)

    report = entropy_rate(kern, dist)
    return ProcessResult(kernel=kern, stationary=dist, report=report)


@dataclass(frozen=True)
class SweepAxis:
    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValidationError(f"unknown axis {self.name!r}, expected one of {AXIS_NAMES}")
        if not isinstance(self.values, (list, tuple)):
            raise ValidationError(
                f"axis {self.name!r} values must be a list or tuple, got {self.values!r}"
            )
        values = tuple(_number(v, f"axis {self.name!r} value") for v in self.values)
        if not values:
            raise ValidationError(f"axis {self.name!r} has no values")
        if not np.isfinite(values).all():
            raise ValidationError(f"axis {self.name!r} has non-finite values")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class DerivedMu:
    """A mutation rate computed per point from N.

    scaling_k:  mu = (n-1)/n * (N+1)^(-k)   (base "N" uses N^(-k))
    c_over_N:   mu = c / N
    """

    rule: str
    k: float | None = None
    c: float | None = None
    base: str | None = None

    def __post_init__(self):
        uses = {"scaling_k": ("k", "base"), "c_over_N": ("c",)}.get(self.rule)
        if uses is None:
            raise ValidationError(f"unknown derived_mu rule {self.rule!r}")
        if self.base not in (None, "N+1", "N"):
            raise ValidationError(f"derived_mu base must be 'N+1' or 'N', got {self.base!r}")
        for key in ("k", "c", "base"):
            value = getattr(self, key)
            if value is not None and key not in uses:
                raise ValidationError(f"derived_mu rule {self.rule!r} takes no {key!r}")
            if key != "base" and value is not None:
                value = _number(value, f"derived_mu {key!r}")
                if not (np.isfinite(value) and value >= 0):
                    raise ValidationError(
                        f"derived_mu {key!r} must be finite and >= 0, got {value}"
                    )
                object.__setattr__(self, key, value)
        if self.rule == "c_over_N" and self.c is None:
            object.__setattr__(self, "c", 1.0)
        if self.rule == "scaling_k" and self.base is None:
            object.__setattr__(self, "base", "N+1")

    def mu_at(self, n: int, N: int, k: float | None) -> float:
        if self.rule == "c_over_N":
            return self.c / N
        if k is None:
            raise ValidationError("scaling_k rule needs a k value (fixed or from a 'k' axis)")
        scale = (N + 1) if self.base == "N+1" else N
        return (n - 1) / n * float(scale) ** (-k)


@dataclass(frozen=True)
class SweepSpec:
    """A sweep: a base configuration plus up to two value grids.

    Making a spec makes every grid point's ProcessConfig, so a bad value anywhere refuses it.
    """

    n: int
    incentive: Incentive
    landscape: Landscape
    N: int | None = None
    mutation: MutationModel | None = None
    axes: tuple[SweepAxis, ...] = ()
    derived_mu: DerivedMu | None = None
    output_path: str | None = None
    output_format: str = "csv"

    def __post_init__(self):
        if not isinstance(self.n, (int, np.integer)) or self.n < 2:
            raise ValidationError(f"need at least two types, got n={self.n!r}")
        if len(self.axes) > 2:
            raise ValidationError(f"at most 2 sweep axes are supported, got {len(self.axes)}")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValidationError(f"duplicate sweep axes: {names}")
        for axis in self.axes:
            if axis.name == "N" and any(v != round(v) for v in axis.values):
                raise ValidationError(f"'N' axis values must be integers, got {axis.values}")
        if self.output_path is not None and not isinstance(self.output_path, str):
            raise ValidationError(f"output 'path' must be a string, got {self.output_path!r}")
        if self.output_format not in ("csv", "json"):
            raise ValidationError(f"output format must be 'csv' or 'json', got {self.output_format!r}")
        if self.N is None and "N" not in names:
            raise ValidationError("population size N must be fixed or swept")
        if self.N is not None and "N" in names:
            raise ValidationError("N is both fixed and a sweep axis")
        if self.N is not None and (
            isinstance(self.N, bool) or not isinstance(self.N, (int, np.integer)) or self.N <= self.n
        ):
            raise ValidationError(f"'N' must be an integer greater than n={self.n}, got {self.N!r}")
        mu_sources = (
            ("mu" in names)
            + (self.mutation is not None)
            + (self.derived_mu is not None)
        )
        if mu_sources != 1:
            raise ValidationError(
                "specify the mutation rate exactly one way: a mutation model, "
                "a 'mu' axis, or a derived_mu rule"
            )
        if "k" in names:
            if self.derived_mu is None or self.derived_mu.rule != "scaling_k":
                raise ValidationError("a 'k' axis requires derived_mu with rule 'scaling_k'")
            if self.derived_mu.k is not None:
                raise ValidationError("k is both fixed in derived_mu and a sweep axis")
        if self.derived_mu is not None and self.derived_mu.rule == "scaling_k":
            if self.derived_mu.k is None and "k" not in names:
                raise ValidationError("scaling_k rule needs k fixed or swept")
        for params in sweep_points(self):
            _point_config(self, params)


@dataclass(frozen=True)
class SweepRow:
    """One evaluated sweep point in output-column form."""

    n: int
    N: int | None = None
    mu: float | None = None
    q: float | None = None
    beta: float | None = None
    landscape: str | None = None
    param_a: float | None = None
    param_b: float | None = None
    r: float | None = None
    k: float | None = None
    entropy_rate: float | None = None
    bound: float | None = None
    residual: float | None = None
    method: str | None = None
    error: str | None = None

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in CSV_COLUMNS}


CSV_COLUMNS = tuple(field.name for field in fields(SweepRow))


def _point_config(spec: SweepSpec, params: dict) -> tuple[ProcessConfig, float | None]:
    """Materialize one grid point: config plus the k used there."""
    N = int(params["N"]) if "N" in params else spec.N

    inc = replace(spec.incentive, **{key: params[key] for key in ("q", "beta") if key in params})
    land = replace(spec.landscape, **{key: params[key] for key in ("r", "a", "b") if key in params})
    derived = spec.derived_mu
    if "k" in params:
        derived = replace(derived, k=params["k"])
    k = derived.k if derived is not None else None

    mutation = spec.mutation
    if "mu" in params:
        mutation = MutationModel.uniform(params["mu"])
    elif derived is not None:
        mutation = MutationModel.uniform(derived.mu_at(spec.n, N, k))
    return ProcessConfig(spec.n, N, inc, mutation, land), k


def _evaluate_point(spec: SweepSpec, params: dict) -> SweepRow:
    config, k = _point_config(spec, params)
    base = SweepRow(
        n=config.n,
        N=config.N,
        mu=config.mutation.mu,
        q=config.incentive.q,
        beta=config.incentive.beta,
        landscape=config.landscape.name,
        param_a=config.landscape.a,
        param_b=config.landscape.b,
        r=config.landscape.r,
        k=k,
    )
    try:
        result = evaluate_process(config)
    except NumericalConsistencyError:
        raise
    except EvorateError as exc:
        return replace(base, error=str(exc))
    return replace(
        base,
        entropy_rate=result.report.entropy_rate,
        bound=result.report.bound,
        residual=result.stationary.residual,
        method=result.stationary.method,
    )


def sweep_points(spec: SweepSpec) -> list[dict]:
    """Grid points in row order: first axis outermost."""
    grids = [axis.values for axis in spec.axes]
    names = [axis.name for axis in spec.axes]
    return [dict(zip(names, combo)) for combo in itertools.product(*grids)]


def worker_count() -> int:
    """Sweep pool size: one worker per CPU, at most 8."""
    return min(os.cpu_count() or 1, 8)


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate every grid point on a thread pool; rows come in grid order.

    Evaluation failures are recorded in the row's error column; an
    entropy-rate bound violation aborts the whole sweep.
    """
    points = sweep_points(spec)
    with ThreadPoolExecutor(max_workers=min(worker_count(), len(points))) as pool:
        return list(pool.map(lambda p: _evaluate_point(spec, p), points))


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_rows_csv(rows: list[SweepRow], fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        record = row.as_dict()
        writer.writerow([_cell(record[col]) for col in CSV_COLUMNS])


def write_rows_json(rows: list[SweepRow], fh) -> None:
    json.dump([row.as_dict() for row in rows], fh, indent=2)
    fh.write("\n")


def incentive_from_json(doc) -> Incentive:
    doc = _block(doc, "incentive", ("kind", "q", "beta"), required=("kind",))
    return Incentive(str(doc.pop("kind")).replace("-", "_"), **doc)


def mutation_from_json(doc) -> MutationModel:
    doc = _block(doc, "mutation", ("mu", "matrix"))
    if "matrix" in doc:
        _check_square_rows(doc["matrix"], "mutation ")
    return MutationModel(mu=doc.get("mu"), custom=doc.get("matrix"))


def load_sweep_spec(doc) -> SweepSpec:
    """Build a SweepSpec from a parsed JSON document."""
    keys = ("n", "N", "incentive", "mutation", "landscape", "axes", "derived_mu", "output")
    doc = _block(doc, "sweep spec", keys, required=("n", "incentive"))
    if not isinstance(doc.get("axes", []), list):
        raise ValidationError(f"sweep spec 'axes' must be a list, got {doc['axes']!r}")
    axes = []
    for i, axis in enumerate(doc.get("axes", [])):
        axis = _block(axis, f"axis {i}", ("name", "values"), required=("name", "values"))
        axes.append(SweepAxis(str(axis["name"]), axis["values"]))
    derived = None
    if "derived_mu" in doc:
        block = _block(doc["derived_mu"], "derived_mu", ("rule", "k", "c", "base"), ("rule",))
        derived = DerivedMu(str(block.pop("rule")), **block)
    output = _block(doc.get("output", {}), "output", ("path", "format"))
    landscape = (
        landscape_from_json(doc["landscape"]) if "landscape" in doc else Landscape.neutral()
    )
    mutation = mutation_from_json(doc["mutation"]) if "mutation" in doc else None

    return SweepSpec(
        n=doc["n"],
        N=doc.get("N"),
        incentive=incentive_from_json(doc["incentive"]),
        landscape=landscape,
        mutation=mutation,
        axes=tuple(axes),
        derived_mu=derived,
        output_path=output.get("path"),
        output_format=output.get("format", "csv"),
    )


def load_sweep_spec_file(path) -> SweepSpec:
    return load_sweep_spec(_read_json(path))
