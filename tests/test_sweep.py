import csv
import io
import json
import math
import re

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
        with pytest.raises(ValidationError, match="landscape 'rsp' requires n=3, got n=2"):
            _config(n=2, landscape=Landscape.rsp(1, 1))
        with pytest.raises(ValidationError, match="mutation matrix is 3x3, process has n=2 types"):
            ProcessConfig(
                n=2, N=10, incentive=Incentive.neutral(), landscape=Landscape.neutral(),
                mutation=MutationModel.from_matrix(np.full((3, 3), 1 / 3)),
            )
        with pytest.raises(ValidationError, match="best_reply is only defined for two types"):
            _config(n=3, incentive=Incentive.best_reply())


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
        with pytest.raises(ValidationError, match=r"mutation rate must lie in \[0, 1\], got 1.5"):
            self._spec(mutation=None, axes=(SweepAxis("mu", (0.5, 1.5)),))
        with pytest.raises(ValidationError, match="'N' axis values must be integers"):
            self._spec(N=None, axes=(SweepAxis("N", (10.5,)),))
        with pytest.raises(ValidationError, match="population must exceed the number of types"):
            self._spec(N=None, axes=(SweepAxis("N", (2,)),))
        with pytest.raises(ValidationError, match="beta must be finite and >= 0"):
            self._spec(
                incentive=Incentive.fermi(beta=1.0), axes=(SweepAxis("beta", (-0.5,)),)
            )
        with pytest.raises(ValidationError, match="r must be finite and positive"):
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
        with pytest.raises(ValidationError, match="the neutral incentive takes no beta"):
            self._spec(axes=(SweepAxis("beta", (0.5,)),))
        with pytest.raises(ValidationError, match="the neutral incentive takes no exponent q"):
            self._spec(axes=(SweepAxis("q", (0.5,)),))
        with pytest.raises(ValidationError, match="the neutral landscape takes no parameter 'r'"):
            self._spec(axes=(SweepAxis("r", (0.5,)),))
        with pytest.raises(ValidationError, match="the neutral landscape takes no parameter 'a'"):
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

    def test_pooled_lu_solves_match_sequential(self, monkeypatch):
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
        monkeypatch.setattr(sweep_module, "worker_count", lambda: 4)
        pooled = run_sweep(spec)
        assert pooled == sequential

    def test_bound_violation_aborts_the_sweep(self, monkeypatch):
        spec = SweepSpec(
            n=2,
            N=8,
            incentive=Incentive.neutral(),
            landscape=Landscape.neutral(),
            axes=(SweepAxis("mu", (0.1, 0.2)),),
        )

        def explode(config):
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

    def test_csv_writes_integer_landscape_parameters_as_floats(self):
        built = SweepSpec(
            n=2, N=8, incentive=Incentive.fermi(beta=1.0), landscape=Landscape.moran(2),
            mutation=MutationModel.uniform(0.1),
        )
        loaded = load_sweep_spec({
            "n": 2, "N": 8, "incentive": {"kind": "fermi", "beta": 1.0},
            "landscape": {"name": "moran", "r": 2.0}, "mutation": {"mu": 0.1},
        })
        outputs = []
        for spec in (built, loaded):
            buf = io.StringIO()
            write_rows_csv(run_sweep(spec), buf)
            outputs.append(buf.getvalue())
        assert outputs[0] == outputs[1]
        assert dict(zip(CSV_COLUMNS, outputs[0].splitlines()[1].split(",")))["r"] == "2.0"

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
        doc = self._doc()
        doc["mutation"] = {"mu": 0.1, "zap": 1}
        with pytest.raises(ValidationError, match=r"mutation has unknown keys \['zap'\]"):
            load_sweep_spec(doc)
        for key, value, extra in [
            ("landscape", {"name": "custom", "matrix": [[0, 1], [1, 0]], "r": 2}, "r"),
            ("landscape", {"matrix": [[0, 1], [1, 0]], "beta": 5}, "beta"),
            ("axes", [{"name": "beta", "values": [1, 2], "vals": [3]}], "vals"),
        ]:
            doc = {**self._doc(), key: value}
            with pytest.raises(ValidationError, match=rf"unknown keys \['{extra}'\]"):
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
            ("axes", [{"name": "beta", "values": ["a", 0.1]}], "axis 'beta' value must be a number"),
            ("derived_mu", {"rule": "scaling_k", "k": "1"}, "derived_mu 'k' must be a number"),
            ("derived_mu", {"rule": "c_over_N", "c": True}, "derived_mu 'c' must be a number"),
            ("landscape", {"name": "rsp", "a": 1, "b": 1, "matrix": [[1, 2], [3, 4]]}, "'matrix'"),
            ("mutation", {"matrix": [[0.9, 0.1], [0.2]]}, "mutation matrix row 1 must be a list"),
            ("mutation", {"matrix": "abc"}, "mutation 'matrix' must be a non-empty list"),
            ("mutation", {"matrix": [["0.9", 0.1], [0.2, 0.8]]},
             r"mutation matrix entry \[0\]\[0\] must be a number"),
            ("mutation", {"matrix": [[True, False], [0.2, 0.8]]},
             r"mutation matrix entry \[0\]\[0\] must be a number"),
            ("N", "30", "'N' must be an integer greater than n=2"),
            ("N", 30.5, "'N' must be an integer greater than n=2"),
            ("N", True, "'N' must be an integer greater than n=2"),
            ("N", 2, "'N' must be an integer greater than n=2"),
            ("incentive", {"kind": "neutral", "q": -5, "beta": -3}, "takes no exponent q"),
            ("incentive", {"kind": "replicator", "beta": 1}, "takes no beta"),
            ("landscape", {"name": "moran", "r": -2}, "r must be finite and positive"),
            ("landscape", {"name": "moran", "r": math.nan}, "r must be finite and positive"),
            ("landscape", {"name": "rsp", "a": 1, "b": math.nan}, "rsp parameters must be finite"),
            ("landscape", {"name": "hawk_dove", "r": 2}, "takes no parameter 'r'"),
            ("landscape", {"name": "moran", "r": 2, "a": 1}, "takes no parameter 'a'"),
            ("derived_mu", {"rule": "scaling_k", "k": -1}, "'k' must be finite and >= 0"),
            ("derived_mu", {"rule": "scaling_k", "k": math.nan}, "'k' must be finite and >= 0"),
            ("derived_mu", {"rule": "c_over_N", "c": -2}, "'c' must be finite and >= 0"),
            ("derived_mu", {"rule": "c_over_N", "k": 1}, "takes no 'k'"),
            ("derived_mu", {"rule": "scaling_k", "k": 1, "c": 1}, "takes no 'c'"),
            ("derived_mu", {"rule": "c_over_N", "base": "N"}, "takes no 'base'"),
            ("axes", {"name": "beta", "values": [0.0]}, "'axes' must be a list"),
            ("axes", 5, "'axes' must be a list"),
            ("incentive", {"kind": "fermi", "beta": 10**400}, "incentive 'beta' is too large"),
            # The types read None as "not given", so a null must not get through as one.
            ("incentive", {"kind": "fermi", "beta": 1, "q": None}, "incentive 'q' must not be null"),
            ("mutation", {"mu": None, "matrix": [[0.9, 0.1], [0.2, 0.8]]},
             "mutation 'mu' must not be null"),
        ],
        ids=[
            "beta", "q", "mu", "axis_value", "k", "c", "matrix_on_named_landscape",
            "ragged_mutation_matrix", "string_mutation_matrix", "string_mutation_entry",
            "bool_mutation_entry", "string_N", "fractional_N", "bool_N", "N_not_above_n",
            "q_beta_on_neutral", "beta_on_replicator", "negative_r", "nan_r", "nan_b",
            "r_on_hawk_dove", "a_on_moran", "negative_k", "nan_k", "negative_c",
            "k_on_c_over_N", "c_on_scaling_k", "base_on_c_over_N", "axes_object", "axes_number",
            "huge_int_beta", "null_q", "null_mu_with_matrix",
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

    @pytest.mark.parametrize(
        "construct,field",
        [
            (lambda: Incentive.fermi(beta="x"), "incentive 'beta'"),
            (lambda: Incentive.replicator(q="2"), "incentive 'q'"),
            (lambda: MutationModel.uniform("0.1"), "mutation 'mu'"),
            (lambda: DerivedMu("c_over_N", c="1"), "derived_mu 'c'"),
            (lambda: SweepAxis("mu", 0.1), "axis 'mu' values"),
            (lambda: Incentive.fermi(beta=True), "incentive 'beta'"),
            (lambda: MutationModel.uniform(True), "mutation 'mu'"),
            (lambda: Landscape.moran("2"), "landscape 'r'"),
            (lambda: Landscape.moran(True), "landscape 'r'"),
            (lambda: Landscape.rsp("1", 1), "landscape 'a'"),
            (lambda: DerivedMu("scaling_k", k=True), "derived_mu 'k'"),
            (lambda: SweepAxis("mu", ("0.1",)), "axis 'mu' value"),
            (lambda: SweepAxis("mu", (True,)), "axis 'mu' value"),
        ],
        ids=[
            "str_beta", "str_q", "str_mu", "str_c", "bare_axis_value", "bool_beta", "bool_mu",
            "str_r", "bool_r", "str_a", "bool_k", "str_axis_value", "bool_axis_value",
        ],
    )
    def test_constructors_refuse_non_numbers(self, construct, field):
        with pytest.raises(ValidationError, match=re.escape(field)):
            construct()

    def test_constructors_store_numpy_numbers_as_float(self):
        half, two = np.float64(0.5), np.int64(2)
        stored = [
            *(getattr(Incentive.fermi(beta=half, q=two), key) for key in ("beta", "q")),
            MutationModel.uniform(half).mu,
            *(getattr(Landscape.rsp(half, two), key) for key in ("a", "b")),
            Landscape.moran(two).r,
            DerivedMu("scaling_k", k=two).k,
            DerivedMu("c_over_N", c=half).c,
            *SweepAxis("beta", (half, two)).values,
        ]
        assert [type(value) for value in stored] == [float] * len(stored)
        assert stored == [0.5, 2.0, 0.5, 0.5, 2.0, 2.0, 2.0, 0.5, 0.5, 2.0]

    def test_mutation_needs_one_of_mu_or_matrix(self):
        doc = self._doc()
        doc["mutation"] = {"mu": 0.1, "matrix": [[1.0, 0.0], [0.0, 1.0]]}
        with pytest.raises(ValidationError, match="exactly one"):
            load_sweep_spec(doc)
