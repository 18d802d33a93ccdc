import csv
import io
import json
import math
import time

import numpy as np
import pytest

from evorate import (
    DerivedMu,
    Incentive,
    Landscape,
    MutationModel,
    NumericalConsistencyError,
    ProcessConfig,
    ReducibleChainError,
    SweepAxis,
    SweepSpec,
    ValidationError,
    evaluate_process,
    load_sweep_spec,
    run_sweep,
    solve_stationary,
)
from evorate import stationary as stationary_module
from evorate import sweep as sweep_module
from evorate.sweep import (
    CSV_COLUMNS,
    sweep_points,
    write_rows_csv,
    write_rows_json,
)


def _config(n=2, N=10, incentive=None, mu=0.1, landscape=None):
    return ProcessConfig(
        n=n,
        N=N,
        incentive=incentive or Incentive.neutral(),
        mutation=MutationModel.uniform(mu),
        landscape=landscape or Landscape.neutral(),
    )


class TestEvaluateProcess:
    def test_neutral_takes_closed_form(self):
        result = evaluate_process(_config())
        assert result.stationary.method == "closed_form"
        assert result.stationary.residual < 1e-12

    def test_fermi_beta_zero_takes_closed_form(self):
        result = evaluate_process(
            _config(incentive=Incentive.fermi(beta=0.0), landscape=Landscape.moran(r=2.0))
        )
        assert result.stationary.method == "closed_form"

    def test_replicator_on_flat_landscape_takes_closed_form(self):
        result = evaluate_process(_config(incentive=Incentive.replicator()))
        assert result.stationary.method == "closed_form"

    def test_replicator_q_not_one_is_not_closed_form(self):
        result = evaluate_process(_config(incentive=Incentive.replicator(q=2.0)))
        assert result.stationary.method != "closed_form"

    def test_two_type_selection_takes_reversible_solver(self):
        result = evaluate_process(
            _config(incentive=Incentive.fermi(beta=1.0), landscape=Landscape.moran(r=2.0))
        )
        assert result.stationary.method == "reversible_exact"
        assert result.stationary.residual < 1e-12

    def test_three_type_selection_takes_power_iteration(self):
        result = evaluate_process(
            _config(
                n=3,
                N=9,
                incentive=Incentive.fermi(beta=1.0),
                landscape=Landscape.rsp(a=1.0, b=1.0),
                mu=0.1,
            )
        )
        assert result.stationary.method == "iterative"

    def test_uniform_reproduction_rate_is_closed_form_for_any_incentive(self):
        # at mu = (n-1)/n every offspring type is equally likely no matter
        # who reproduces, so the neutral formula applies even under rsp
        config = _config(
            n=3,
            N=9,
            incentive=Incentive.fermi(beta=2.0),
            landscape=Landscape.rsp(a=1.0, b=2.0),
            mu=2.0 / 3.0,
        )
        result = evaluate_process(config)
        assert result.stationary.method == "closed_form"
        direct = solve_stationary(result.kernel)
        gap = np.max(np.abs(result.stationary.probabilities - direct.probabilities))
        assert gap < 1e-10

    def test_mutation_free_best_reply_lives_on_central_band(self):
        config = _config(
            N=30,
            incentive=Incentive.best_reply(),
            landscape=Landscape.hawk_dove(),
            mu=0.0,
        )
        result = evaluate_process(config)
        assert result.kernel.num_states == 3
        assert sorted(result.kernel.states[:, 0].tolist()) == [14, 15, 16]
        assert result.report.entropy_rate == pytest.approx(0.8709, abs=5e-4)

    def test_mutation_free_neutral_has_no_unique_distribution(self):
        with pytest.raises(ReducibleChainError, match="recurrent classes"):
            evaluate_process(_config(mu=0.0))

    def test_one_way_mutation_matrix_keeps_its_one_recurrent_class(self):
        # type 1 never mutates and type 2 mutates into it: all-type-1 absorbs
        config = ProcessConfig(
            n=2,
            N=8,
            incentive=Incentive.fermi(beta=1.0),
            mutation=MutationModel.from_matrix([[1.0, 0.0], [0.3, 0.7]]),
            landscape=Landscape.moran(r=2.0),
        )
        result = evaluate_process(config)
        assert result.kernel.num_states == 1
        assert result.kernel.states.tolist() == [[8, 0]]
        assert result.report.entropy_rate == 0.0

    def test_mutation_matrix_with_two_recurrent_classes_is_refused(self):
        config = ProcessConfig(
            n=2,
            N=8,
            incentive=Incentive.fermi(beta=1.0),
            mutation=MutationModel.from_matrix([[1.0, 0.0], [0.0, 1.0]]),
            landscape=Landscape.moran(r=2.0),
        )
        with pytest.raises(
            ReducibleChainError,
            match=r"leaves 2 recurrent classes .*no unique stationary distribution",
        ):
            evaluate_process(config)

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            _config(n=1, N=10)
        with pytest.raises(ValidationError):
            _config(n=3, N=3)


class TestAxesAndDerivedMu:
    def test_axis_rejects_unknown_name(self):
        with pytest.raises(ValidationError, match="unknown axis"):
            SweepAxis("gamma", (0.1,))

    def test_axis_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValidationError, match="no values"):
            SweepAxis("mu", ())
        with pytest.raises(ValidationError, match="non-finite"):
            SweepAxis("beta", (0.1, math.inf))

    def test_scaling_rule_values(self):
        rule = DerivedMu("scaling_k")
        assert rule.mu_at(2, 9, 1.0) == pytest.approx(0.5 / 10, abs=1e-15)
        assert rule.mu_at(3, 9, 0.0) == pytest.approx(2 / 3, abs=1e-15)
        assert rule.mu_at(2, 9, 2.0) == pytest.approx(0.5 / 100, abs=1e-15)

    def test_scaling_rule_alternate_base(self):
        rule = DerivedMu("scaling_k", base="N")
        assert rule.mu_at(2, 10, 1.0) == pytest.approx(0.05, abs=1e-15)

    def test_c_over_N_rule(self):
        assert DerivedMu("c_over_N").mu_at(2, 20, None) == pytest.approx(0.05, abs=1e-15)
        assert DerivedMu("c_over_N", c=2.0).mu_at(3, 40, None) == pytest.approx(0.05, abs=1e-15)

    def test_derived_mu_validation(self):
        with pytest.raises(ValidationError, match="rule"):
            DerivedMu("linear")
        with pytest.raises(ValidationError, match="base"):
            DerivedMu("scaling_k", base="N+2")
        with pytest.raises(ValidationError, match="k value"):
            DerivedMu("scaling_k").mu_at(2, 10, None)


class TestSweepSpecValidation:
    def _spec(self, **overrides):
        base = dict(
            n=2,
            N=10,
            incentive=Incentive.neutral(),
            landscape=Landscape.neutral(),
            mutation=MutationModel.uniform(0.1),
        )
        base.update(overrides)
        return SweepSpec(**base)

    def test_minimal_spec(self):
        spec = self._spec()
        assert sweep_points(spec) == [{}]

    def test_rejects_three_axes(self):
        axes = (SweepAxis("beta", (0.1,)), SweepAxis("q", (1.0,)), SweepAxis("N", (12,)))
        with pytest.raises(ValidationError, match="at most 2"):
            self._spec(incentive=Incentive.fermi(beta=1.0), N=None, axes=axes)

    def test_rejects_duplicate_axes(self):
        axes = (SweepAxis("beta", (0.1,)), SweepAxis("beta", (0.2,)))
        with pytest.raises(ValidationError, match="duplicate"):
            self._spec(incentive=Incentive.fermi(beta=1.0), axes=axes)

    def test_axis_range_checks(self):
        with pytest.raises(ValidationError, match="mu"):
            self._spec(mutation=None, axes=(SweepAxis("mu", (0.5, 1.5)),))
        with pytest.raises(ValidationError, match="integers greater"):
            self._spec(N=None, axes=(SweepAxis("N", (10.5,)),))
        with pytest.raises(ValidationError, match="integers greater"):
            self._spec(N=None, axes=(SweepAxis("N", (2,)),))
        with pytest.raises(ValidationError, match="nonnegative"):
            self._spec(
                incentive=Incentive.fermi(beta=1.0), axes=(SweepAxis("beta", (-0.5,)),)
            )
        with pytest.raises(ValidationError, match="positive"):
            self._spec(landscape=Landscape.moran(r=2.0), axes=(SweepAxis("r", (0.0,)),))

    def test_population_size_fixed_xor_swept(self):
        with pytest.raises(ValidationError, match="fixed or swept"):
            self._spec(N=None)
        with pytest.raises(ValidationError, match="both fixed"):
            self._spec(axes=(SweepAxis("N", (12, 14)),))

    def test_exactly_one_mutation_source(self):
        with pytest.raises(ValidationError, match="exactly one way"):
            self._spec(mutation=None)
        with pytest.raises(ValidationError, match="exactly one way"):
            self._spec(axes=(SweepAxis("mu", (0.1, 0.2)),))
        with pytest.raises(ValidationError, match="exactly one way"):
            self._spec(derived_mu=DerivedMu("c_over_N"))

    def test_k_axis_needs_scaling_rule(self):
        with pytest.raises(ValidationError, match="'k' axis requires"):
            self._spec(mutation=None, derived_mu=DerivedMu("c_over_N"), axes=(SweepAxis("k", (1.0,)),))
        with pytest.raises(ValidationError, match="both fixed"):
            self._spec(
                mutation=None,
                derived_mu=DerivedMu("scaling_k", k=1.0),
                axes=(SweepAxis("k", (1.0,)),),
            )
        with pytest.raises(ValidationError, match="k fixed or swept"):
            self._spec(mutation=None, derived_mu=DerivedMu("scaling_k"))

    def test_axes_must_fit_incentive_and_landscape(self):
        with pytest.raises(ValidationError, match="fermi"):
            self._spec(axes=(SweepAxis("beta", (0.5,)),))
        with pytest.raises(ValidationError, match="fermi or replicator"):
            self._spec(axes=(SweepAxis("q", (0.5,)),))
        with pytest.raises(ValidationError, match="moran"):
            self._spec(axes=(SweepAxis("r", (0.5,)),))
        with pytest.raises(ValidationError, match="rsp"):
            self._spec(axes=(SweepAxis("a", (0.5,)),))

    def test_output_format_checked(self):
        with pytest.raises(ValidationError, match="output format"):
            self._spec(output_format="yaml")


class TestGridAndRows:
    def test_grid_order_first_axis_outermost(self):
        spec = SweepSpec(
            n=2,
            incentive=Incentive.replicator(),
            landscape=Landscape.neutral(),
            mutation=MutationModel.uniform(0.1),
            axes=(SweepAxis("N", (10, 12)), SweepAxis("q", (0.0, 1.0))),
            N=None,
        )
        points = sweep_points(spec)
        assert points == [
            {"N": 10.0, "q": 0.0},
            {"N": 10.0, "q": 1.0},
            {"N": 12.0, "q": 0.0},
            {"N": 12.0, "q": 1.0},
        ]

    def test_beta_sweep_rows(self):
        spec = SweepSpec(
            n=2,
            N=10,
            incentive=Incentive.fermi(beta=1.0),
            landscape=Landscape.moran(r=2.0),
            mutation=MutationModel.uniform(0.1),
            axes=(SweepAxis("beta", (0.0, 0.5, 1.0)),),
        )
        rows = run_sweep(spec)
        assert [row.beta for row in rows] == [0.0, 0.5, 1.0]
        assert rows[0].method == "closed_form"
        assert rows[1].method == "reversible_exact"
        rates = [row.entropy_rate for row in rows]
        assert rates[0] > rates[1] > rates[2]
        for row in rows:
            assert row.error is None
            assert row.mu == 0.1
            assert row.r == 2.0
            assert row.landscape == "moran"
            assert row.entropy_rate < row.bound

    def test_failed_point_lands_in_error_column(self):
        spec = SweepSpec(
            n=2,
            N=8,
            incentive=Incentive.neutral(),
            landscape=Landscape.neutral(),
            axes=(SweepAxis("mu", (0.0, 0.1)),),
        )
        rows = run_sweep(spec)
        assert rows[0].error is not None and "recurrent" in rows[0].error
        assert rows[0].entropy_rate is None
        assert rows[1].error is None
        assert rows[1].entropy_rate is not None

    def test_derived_mu_column(self):
        spec = SweepSpec(
            n=2,
            N=9,
            incentive=Incentive.neutral(),
            landscape=Landscape.neutral(),
            derived_mu=DerivedMu("scaling_k"),
            axes=(SweepAxis("k", (0.0, 1.0, 2.0)),),
        )
        rows = run_sweep(spec)
        assert [row.k for row in rows] == [0.0, 1.0, 2.0]
        assert rows[0].mu == pytest.approx(0.5, abs=1e-15)
        assert rows[1].mu == pytest.approx(0.05, abs=1e-15)
        assert rows[2].mu == pytest.approx(0.005, abs=1e-15)
        rates = [row.entropy_rate for row in rows]
        assert rates[0] > rates[1] > rates[2]

    def test_thread_pool_matches_sequential(self, monkeypatch):
        spec = SweepSpec(
            n=2,
            N=12,
            incentive=Incentive.fermi(beta=1.0),
            landscape=Landscape.moran(r=2.0),
            mutation=None,
            axes=(SweepAxis("beta", (0.0, 0.5)), SweepAxis("mu", (0.05, 0.2))),
        )
        monkeypatch.setattr(sweep_module, "worker_count", lambda: 1)
        sequential = run_sweep(spec)
        monkeypatch.setattr(sweep_module, "worker_count", lambda: 4)
        pooled = run_sweep(spec)
        assert pooled == sequential

    def test_pooled_lu_solves_take_turns(self, monkeypatch):
        # n=3, N=45 has 1,081 states, so every point takes the sparse LU.
        spec = SweepSpec(
            n=3,
            N=45,
            incentive=Incentive.fermi(beta=1.0),
            landscape=Landscape.rsp(a=1.0, b=1.0),
            mutation=None,
            axes=(SweepAxis("beta", (0.5, 1.0)), SweepAxis("mu", (0.05, 0.2))),
        )
        monkeypatch.setattr(sweep_module, "worker_count", lambda: 1)
        sequential = run_sweep(spec)
        assert {row.method for row in sequential} == {"direct"}
        live, most = [0], [0]
        factor = stationary_module.splu

        def counting_splu(*args, **kwargs):
            live[0] += 1
            most[0] = max(most[0], live[0])
            try:
                time.sleep(0.01)
                return factor(*args, **kwargs)
            finally:
                live[0] -= 1

        monkeypatch.setattr(stationary_module, "splu", counting_splu)
        monkeypatch.setattr(sweep_module, "worker_count", lambda: 4)
        pooled = run_sweep(spec)
        assert pooled == sequential
        assert most[0] == 1

    def test_bound_violation_aborts_the_sweep(self, monkeypatch):
        spec = SweepSpec(
            n=2,
            N=8,
            incentive=Incentive.neutral(),
            landscape=Landscape.neutral(),
            axes=(SweepAxis("mu", (0.1, 0.2)),),
        )

        def explode(config, tol):
            raise NumericalConsistencyError("entropy rate exceeds its bound")

        monkeypatch.setattr(sweep_module, "evaluate_process", explode)
        with pytest.raises(NumericalConsistencyError):
            run_sweep(spec)


@pytest.fixture(scope="module")
def rows():
    spec = SweepSpec(
        n=2,
        N=8,
        incentive=Incentive.neutral(),
        landscape=Landscape.neutral(),
        axes=(SweepAxis("mu", (0.0, 0.1)),),
    )
    return run_sweep(spec)


class TestWriters:
    def test_csv_header_is_pinned(self):
        buf = io.StringIO()
        write_rows_csv([], buf)
        assert buf.getvalue() == (
            "n,N,mu,q,beta,landscape,param_a,param_b,r,k,"
            "entropy_rate,bound,residual,method,error\n"
        )

    def test_csv_shape(self, rows):
        buf = io.StringIO()
        write_rows_csv(rows, buf)
        parsed = list(csv.reader(io.StringIO(buf.getvalue())))
        assert parsed[0] == list(CSV_COLUMNS)
        assert len(parsed) == 1 + len(rows)
        for record in parsed[1:]:
            assert len(record) == len(CSV_COLUMNS)
        header = parsed[0]
        ok_row = dict(zip(header, parsed[2]))
        assert ok_row["error"] == ""
        assert float(ok_row["entropy_rate"]) == rows[1].entropy_rate
        assert float(ok_row["mu"]) == 0.1
        failed_row = dict(zip(header, parsed[1]))
        assert "recurrent" in failed_row["error"]
        assert failed_row["entropy_rate"] == ""

    def test_csv_floats_round_trip(self, rows):
        buf = io.StringIO()
        write_rows_csv(rows, buf)
        record = list(csv.reader(io.StringIO(buf.getvalue())))[2]
        value = dict(zip(CSV_COLUMNS, record))["entropy_rate"]
        assert float(value) == rows[1].entropy_rate  # repr keeps every bit

    def test_json_shape(self, rows):
        buf = io.StringIO()
        write_rows_json(rows, buf)
        docs = json.loads(buf.getvalue())
        assert len(docs) == len(rows)
        for doc in docs:
            assert set(doc) == set(CSV_COLUMNS)
        assert docs[1]["entropy_rate"] == rows[1].entropy_rate


class TestSpecLoading:
    def _doc(self):
        return {
            "n": 2,
            "N": 10,
            "incentive": {"kind": "fermi", "beta": 1.0},
            "landscape": {"name": "moran", "r": 2.0},
            "mutation": {"mu": 0.1},
            "axes": [{"name": "beta", "values": [0.0, 1.0]}],
            "output": {"path": "out.csv", "format": "csv"},
        }

    def test_round_trip(self):
        spec = load_sweep_spec(self._doc())
        assert spec.n == 2 and spec.N == 10
        assert spec.incentive == Incentive.fermi(beta=1.0)
        assert spec.landscape.name == "moran" and spec.landscape.r == 2.0
        assert spec.mutation.mu == 0.1
        assert spec.axes == (SweepAxis("beta", (0.0, 1.0)),)
        assert spec.output_path == "out.csv"
        assert spec.output_format == "csv"

    def test_landscape_defaults_to_neutral(self):
        doc = self._doc()
        del doc["landscape"], doc["axes"], doc["output"]
        doc["incentive"] = {"kind": "neutral"}
        assert load_sweep_spec(doc).landscape.name == "neutral"

    def test_derived_mu_block(self):
        doc = self._doc()
        del doc["mutation"], doc["axes"]
        doc["derived_mu"] = {"rule": "scaling_k", "k": 1.0}
        spec = load_sweep_spec(doc)
        assert spec.derived_mu == DerivedMu("scaling_k", k=1.0)

    def test_hyphenated_incentive_kind(self):
        doc = self._doc()
        del doc["axes"]
        doc["incentive"] = {"kind": "best-reply"}
        assert load_sweep_spec(doc).incentive.kind == "best_reply"

    def test_unknown_keys_rejected(self):
        doc = self._doc()
        doc["temperature"] = 300
        with pytest.raises(ValidationError, match="unknown keys"):
            load_sweep_spec(doc)
        doc = self._doc()
        doc["incentive"]["strength"] = 2
        with pytest.raises(ValidationError, match="unknown keys"):
            load_sweep_spec(doc)
        doc = self._doc()
        doc["output"]["compression"] = "gzip"
        with pytest.raises(ValidationError, match="unknown keys"):
            load_sweep_spec(doc)

    def test_missing_required_keys(self):
        doc = self._doc()
        del doc["n"]
        with pytest.raises(ValidationError, match="missing 'n'"):
            load_sweep_spec(doc)
        doc = self._doc()
        del doc["incentive"]
        with pytest.raises(ValidationError, match="missing 'incentive'"):
            load_sweep_spec(doc)

    def test_malformed_axes(self):
        doc = self._doc()
        doc["axes"] = [{"name": "beta"}]
        with pytest.raises(ValidationError, match="axis 0"):
            load_sweep_spec(doc)
        doc["axes"] = [{"name": "beta", "values": 0.5}]
        with pytest.raises(ValidationError, match="must be a list"):
            load_sweep_spec(doc)

    @pytest.mark.parametrize(
        "key,value,match",
        [
            ("incentive", {"kind": "fermi", "beta": "strong"}, "incentive 'beta' must be a number"),
            ("incentive", {"kind": "fermi", "beta": 1, "q": [1]}, "incentive 'q' must be a number"),
            ("mutation", {"mu": "0.1"}, "mutation 'mu' must be a number"),
            ("axes", [{"name": "beta", "values": ["a", 0.1]}], "axis 0 value must be a number"),
            ("derived_mu", {"rule": "scaling_k", "k": "1"}, "derived_mu 'k' must be a number"),
            ("derived_mu", {"rule": "c_over_N", "c": True}, "derived_mu 'c' must be a number"),
            ("landscape", {"name": "rsp", "a": 1, "b": 1, "matrix": [[1, 2], [3, 4]]}, "'matrix'"),
            ("mutation", {"matrix": [[0.9, 0.1], [0.2]]}, "mutation matrix row 1 must be a list"),
            ("mutation", {"matrix": "abc"}, "mutation 'matrix' must be a non-empty list"),
            ("mutation", {"matrix": [["0.9", 0.1], [0.2, 0.8]]},
             r"mutation matrix entry \[0\]\[0\] must be a number"),
            ("mutation", {"matrix": [[True, False], [0.2, 0.8]]},
             r"mutation matrix entry \[0\]\[0\] must be a number"),
        ],
        ids=[
            "beta", "q", "mu", "axis_value", "k", "c", "matrix_on_named_landscape",
            "ragged_mutation_matrix", "string_mutation_matrix", "string_mutation_entry",
            "bool_mutation_entry",
        ],
    )
    def test_wrong_typed_fields_rejected(self, key, value, match):
        doc = self._doc()
        if key == "derived_mu":
            del doc["mutation"]
        doc[key] = value
        with pytest.raises(ValidationError, match=match):
            load_sweep_spec(doc)

    @pytest.mark.parametrize("path", [2, 1.5, ["out.csv"], {"file": "out.csv"}, True])
    def test_output_path_must_be_a_string(self, path):
        doc = self._doc()
        doc["output"]["path"] = path
        with pytest.raises(ValidationError, match="output 'path' must be a string"):
            load_sweep_spec(doc)

    def test_mutation_needs_one_of_mu_or_matrix(self):
        doc = self._doc()
        doc["mutation"] = {"mu": 0.1, "matrix": [[1.0, 0.0], [0.0, 1.0]]}
        with pytest.raises(ValidationError, match="exactly one"):
            load_sweep_spec(doc)
