"""Process evaluation pipeline and parameter sweeps.

evaluate_process ties the pieces together for a single configuration:
build the kernel, pick the cheapest valid stationary solver, and return
the entropy-rate report.  Solver choice:

  closed form        uniform mutation with an effectively neutral
                     incentive, or mu = (n-1)/n where reproduction is
                     uniform regardless of the incentive
  reversible exact   two-type chains (birth-death, detailed balance)
  power iteration    everything else, up to ARNOLDI_MIN_STATES states
  sparse LU          three-type chains above that size, up to
                     DIRECT_MAX_STATES states, where the LU factor
                     fills in little
  Arnoldi (ARPACK)   everything else above ARNOLDI_MIN_STATES states,
                     where power iteration needs thousands of steps
                     and the LU of four or more types fills in

The closed-form and reversible routes come first, so two-type chains
never reach Arnoldi however large they are.

Uniform mutation at a positive rate makes the chain irreducible.
Mutation rate zero, or a custom mutation matrix, can make parts of the
lattice unreachable and leave the incentive undefined at the corners,
so those processes are built on the set reachable from the central
states and restricted to their recurrent class; if more than one class
remains there is no unique stationary distribution and the point is
reported as an error.

A sweep varies up to two named parameters over grids, evaluates the
points on a thread pool of one worker per CPU (at most 8, and no more
than there are points), whose workers take turns at the sparse LU so
that only one factor is in memory, and emits rows with a fixed column
set; any per-point failure lands in the row's error column rather than
aborting, except entropy-rate bound violations, which indicate an
implementation problem and abort the run.
"""

import contextlib
import csv
import itertools
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .catalog import Landscape, _as_float, _check_square_rows, landscape_from_json
from .dynamics import Incentive, MutationModel
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
    DEFAULT_TOL,
    StationaryDistribution,
    _check_tol,
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


def evaluate_process(config: ProcessConfig, tol: float = DEFAULT_TOL) -> ProcessResult:
    """Kernel, stationary distribution, and entropy rate for one process.

    tol is checked here, whichever solver the process ends up needing.
    """
    _check_tol(tol)
    n, N = config.n, config.N
    mu = config.mutation.mu
    # Uniform mutation at a positive rate makes the chain irreducible.
    # Otherwise build what the process can visit and keep its one class.
    irreducible = mu is not None and mu > 0.0
    kern = build_kernel(
        n, N, config.incentive, config.landscape.build(n), config.mutation,
        reachable_from=None if irreducible else central_states(n, N),
    )
    if not irreducible:
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
        dist = solve_stationary(kern, tol=tol)

    report = entropy_rate(kern, dist)
    return ProcessResult(kernel=kern, stationary=dist, report=report)


@dataclass(frozen=True)
class SweepAxis:
    name: str
    values: tuple[float, ...]

    def __post_init__(self):
        if self.name not in AXIS_NAMES:
            raise ValidationError(f"unknown axis {self.name!r}, expected one of {AXIS_NAMES}")
        values = tuple(float(v) for v in self.values)
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
    base: str = "N+1"

    def __post_init__(self):
        if self.rule not in ("scaling_k", "c_over_N"):
            raise ValidationError(f"unknown derived_mu rule {self.rule!r}")
        if self.base not in ("N+1", "N"):
            raise ValidationError(f"derived_mu base must be 'N+1' or 'N', got {self.base!r}")
        if self.rule == "c_over_N" and self.c is None:
            object.__setattr__(self, "c", 1.0)

    def mu_at(self, n: int, N: int, k: float | None) -> float:
        if self.rule == "c_over_N":
            return self.c / N
        if k is None:
            raise ValidationError("scaling_k rule needs a k value (fixed or from a 'k' axis)")
        scale = (N + 1) if self.base == "N+1" else N
        return (n - 1) / n * float(scale) ** (-k)


@dataclass(frozen=True)
class SweepSpec:
    """A sweep: a base configuration plus up to two value grids."""

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
            values = np.array(axis.values)
            if axis.name == "mu" and ((values < 0) | (values > 1)).any():
                raise ValidationError("'mu' axis values must lie in [0, 1]")
            if axis.name == "N" and ((values != np.rint(values)) | (values <= self.n)).any():
                raise ValidationError(f"'N' axis values must be integers greater than n={self.n}")
            if axis.name in ("q", "beta", "k") and (values < 0).any():
                raise ValidationError(f"{axis.name!r} axis values must be nonnegative")
            if axis.name == "r" and (values <= 0).any():
                raise ValidationError("'r' axis values must be positive")
        if self.output_format not in ("csv", "json"):
            raise ValidationError(f"output format must be 'csv' or 'json', got {self.output_format!r}")
        if self.N is None and "N" not in names:
            raise ValidationError("population size N must be fixed or swept")
        if self.N is not None and "N" in names:
            raise ValidationError("N is both fixed and a sweep axis")
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
        for name in names:
            if name == "beta" and self.incentive.kind != "fermi":
                raise ValidationError("a 'beta' axis requires the fermi incentive")
            if name == "q" and self.incentive.kind not in ("fermi", "replicator"):
                raise ValidationError("a 'q' axis requires the fermi or replicator incentive")
            if name == "r" and self.landscape.name != "moran":
                raise ValidationError("an 'r' axis requires the moran landscape")
            if name in ("a", "b") and self.landscape.name != "rsp":
                raise ValidationError(f"an '{name}' axis requires the rsp landscape")


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


def _point_config(spec: SweepSpec, params: dict) -> tuple[ProcessConfig, float | None, float | None]:
    """Materialize one grid point: config plus the (mu, k) used there."""
    N = int(params["N"]) if "N" in params else spec.N

    inc = replace(spec.incentive, **{key: params[key] for key in ("q", "beta") if key in params})
    land = replace(spec.landscape, **{key: params[key] for key in ("r", "a", "b") if key in params})

    k = None
    if spec.derived_mu is not None and spec.derived_mu.rule == "scaling_k":
        k = params.get("k", spec.derived_mu.k)

    if "mu" in params:
        mu = params["mu"]
        mutation = MutationModel.uniform(mu)
    elif spec.derived_mu is not None:
        mu = spec.derived_mu.mu_at(spec.n, N, k)
        mutation = MutationModel.uniform(mu)
    else:
        mutation = spec.mutation
        mu = mutation.mu

    return ProcessConfig(spec.n, N, inc, mutation, land), mu, k


def _evaluate_point(spec: SweepSpec, params: dict, tol: float) -> SweepRow:
    base = {"n": spec.n, "N": spec.N, "landscape": spec.landscape.name}
    try:
        config, mu, k = _point_config(spec, params)
        base.update(
            N=config.N,
            mu=mu,
            q=config.incentive.q,
            beta=config.incentive.beta,
            param_a=config.landscape.a,
            param_b=config.landscape.b,
            r=config.landscape.r,
            k=k,
        )
        result = evaluate_process(config, tol=tol)
        report = result.report
        return SweepRow(
            **base,
            entropy_rate=report.entropy_rate,
            bound=report.bound,
            residual=result.stationary.residual,
            method=result.stationary.method,
        )
    except NumericalConsistencyError:
        raise
    except EvorateError as exc:
        return SweepRow(**base, error=str(exc))


def sweep_points(spec: SweepSpec) -> list[dict]:
    """Grid points in row order: first axis outermost."""
    grids = [axis.values for axis in spec.axes]
    names = [axis.name for axis in spec.axes]
    return [dict(zip(names, combo)) for combo in itertools.product(*grids)]


def worker_count() -> int:
    """Sweep pool size: one worker per CPU, at most 8."""
    return min(os.cpu_count() or 1, 8)


def run_sweep(spec: SweepSpec, tol: float = DEFAULT_TOL) -> list[SweepRow]:
    """Evaluate every grid point on a thread pool; rows come in grid order.

    Per-point failures are recorded in the row's error column; an
    entropy-rate bound violation aborts the whole sweep.
    """
    points = sweep_points(spec)
    with ThreadPoolExecutor(max_workers=min(worker_count(), len(points))) as pool:
        return list(pool.map(lambda p: _evaluate_point(spec, p, tol), points))


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
    if not isinstance(doc, dict):
        raise ValidationError(f"incentive must be an object, got {type(doc).__name__}")
    if "kind" not in doc:
        raise ValidationError("incentive is missing 'kind'")
    kind = str(doc["kind"]).replace("-", "_")
    extra = set(doc) - {"kind", "q", "beta"}
    if extra:
        raise ValidationError(f"incentive has unknown keys {sorted(extra)}")
    params = {key: _as_float(doc[key], f"incentive {key!r}") for key in ("q", "beta") if key in doc}
    return Incentive(kind, **params)


def mutation_from_json(doc) -> MutationModel:
    if not isinstance(doc, dict):
        raise ValidationError(f"mutation must be an object, got {type(doc).__name__}")
    if ("mu" in doc) == ("matrix" in doc):
        raise ValidationError("mutation needs exactly one of 'mu' or 'matrix'")
    if "mu" in doc:
        return MutationModel.uniform(_as_float(doc["mu"], "mutation 'mu'"))
    _check_square_rows(doc["matrix"], "mutation ")
    return MutationModel.from_matrix(doc["matrix"])


def load_sweep_spec(doc) -> SweepSpec:
    """Build a SweepSpec from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ValidationError(f"sweep spec must be an object, got {type(doc).__name__}")
    known = {"n", "N", "incentive", "mutation", "landscape", "axes", "derived_mu", "output"}
    extra = set(doc) - known
    if extra:
        raise ValidationError(f"sweep spec has unknown keys {sorted(extra)}")
    if "n" not in doc:
        raise ValidationError("sweep spec is missing 'n'")
    if "incentive" not in doc:
        raise ValidationError("sweep spec is missing 'incentive'")

    axes = []
    for i, axis in enumerate(doc.get("axes", [])):
        if not isinstance(axis, dict) or "name" not in axis or "values" not in axis:
            raise ValidationError(f"axis {i} must be an object with 'name' and 'values'")
        if not isinstance(axis["values"], list):
            raise ValidationError(f"axis {i} 'values' must be a list")
        values = tuple(_as_float(v, f"axis {i} value") for v in axis["values"])
        axes.append(SweepAxis(str(axis["name"]), values))

    derived = None
    if "derived_mu" in doc:
        d = doc["derived_mu"]
        if not isinstance(d, dict) or "rule" not in d:
            raise ValidationError("derived_mu must be an object with a 'rule'")
        unknown = set(d) - {"rule", "k", "c", "base"}
        if unknown:
            raise ValidationError(f"derived_mu has unknown keys {sorted(unknown)}")
        params = {key: _as_float(d[key], f"derived_mu {key!r}") for key in ("k", "c") if key in d}
        derived = DerivedMu(str(d["rule"]), base=d.get("base", "N+1"), **params)

    output_path = None
    output_format = "csv"
    if "output" in doc:
        out = doc["output"]
        if not isinstance(out, dict):
            raise ValidationError("'output' must be an object")
        unknown = set(out) - {"path", "format"}
        if unknown:
            raise ValidationError(f"output has unknown keys {sorted(unknown)}")
        output_path = out.get("path")
        if output_path is not None and not isinstance(output_path, str):
            raise ValidationError(f"output 'path' must be a string, got {output_path!r}")
        output_format = out.get("format", "csv")

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
        output_path=output_path,
        output_format=output_format,
    )


def load_sweep_spec_file(path) -> SweepSpec:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    return load_sweep_spec(doc)
