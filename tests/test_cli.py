import csv
import io
import json
import math

import numpy as np
import pytest

from evorate import (
    Incentive,
    Landscape,
    MutationModel,
    ProcessConfig,
    evaluate_process,
    num_states,
)
from evorate import stationary as stationary_module
from evorate.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "entropy-rate" in out


def test_no_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == 1
    assert "usage" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "states", "--n", "2", "--N", "10", "--frobnicate")
    assert code == 1
    assert "error" in err


def test_states_summary(capsys):
    code, out, _ = run_cli(capsys, "states", "--n", "3", "--N", "30")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"n": 3, "N": 30, "num_states": num_states(3, 30)}


def test_states_list(capsys):
    code, out, _ = run_cli(capsys, "states", "--n", "2", "--N", "3", "--list")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == ["0,3,0", "1,2,1", "2,1,2", "3,0,3"]


def test_entropy_rate_report(capsys):
    code, out, _ = run_cli(
        capsys,
        "entropy-rate", "--n", "2", "--N", "10", "--mu", "0.1",
    )
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"entropy_rate", "bound", "n", "N", "residual"}
    expected = evaluate_process(
        ProcessConfig(
            n=2, N=10,
            incentive=Incentive.neutral(),
            mutation=MutationModel.uniform(0.1),
            landscape=Landscape.neutral(),
        )
    ).report
    assert doc["entropy_rate"] == expected.entropy_rate
    assert doc["bound"] == pytest.approx(1.5 * math.log(2), abs=1e-15)


def test_entropy_rate_with_landscape_flags(capsys):
    code, out, _ = run_cli(
        capsys,
        "entropy-rate", "--n", "2", "--N", "10", "--mu", "0.1",
        "--incentive", "fermi", "--beta", "0.7",
        "--landscape", "moran", "--r", "2",
    )
    assert code == 0
    doc = json.loads(out)
    expected = evaluate_process(
        ProcessConfig(
            n=2, N=10,
            incentive=Incentive.fermi(beta=0.7),
            mutation=MutationModel.uniform(0.1),
            landscape=Landscape.moran(r=2.0),
        )
    ).report
    assert doc["entropy_rate"] == expected.entropy_rate


def test_kernel_dump_rows_are_stochastic(capsys):
    code, out, _ = run_cli(capsys, "kernel", "--n", "2", "--N", "6", "--mu", "0.2")
    assert code == 0
    lines = out.strip().splitlines()
    header = lines[0].split()
    assert header == ["2", "6", "7"]
    sums = np.zeros(7)
    for line in lines[1:]:
        row, _col, prob = line.split()
        sums[int(row)] += float(prob)
    assert np.allclose(sums, 1.0, atol=1e-12)


def test_stationary_csv_matches_library(capsys):
    code, out, _ = run_cli(capsys, "stationary", "--n", "2", "--N", "6", "--mu", "0.2")
    assert code == 0
    records = list(csv.DictReader(io.StringIO(out)))
    assert len(records) == 7
    result = evaluate_process(
        ProcessConfig(
            n=2, N=6,
            incentive=Incentive.neutral(),
            mutation=MutationModel.uniform(0.2),
            landscape=Landscape.neutral(),
        )
    )
    for rank, record in enumerate(records):
        assert int(record["rank"]) == rank
        assert float(record["probability"]) == result.stationary.probabilities[rank]


def test_sample_then_estimate_round_trip(tmp_path, capsys):
    walk = tmp_path / "walk.txt"
    code, _, _ = run_cli(
        capsys,
        "sample", "--n", "2", "--N", "8", "--mu", "0.2",
        "--length", "5000", "--seed", "9", "--out", str(walk),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "estimate", "--trajectory", str(walk))
    assert code == 0
    doc = json.loads(out)
    assert doc["observations"] == 5000
    # a 5000-step walk on 9 states should estimate the rate to ~1e-2
    exact = evaluate_process(
        ProcessConfig(
            n=2, N=8,
            incentive=Incentive.neutral(),
            mutation=MutationModel.uniform(0.2),
            landscape=Landscape.neutral(),
        )
    ).report.entropy_rate
    assert doc["plug_in_entropy_rate"] == pytest.approx(exact, abs=0.05)


def test_sample_start_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "sample", "--n", "2", "--N", "8", "--mu", "0.2",
        "--length", "1", "--seed", "0", "--start", "2,6",
    )
    assert code == 0
    states = [line for line in out.splitlines() if not line.startswith("#")]
    assert states == ["6"]  # (2,6) is the 7th state in descending-lex order


def test_sweep_end_to_end(tmp_path, capsys):
    out_path = tmp_path / "rows.csv"
    config = {
        "n": 2,
        "N": 10,
        "incentive": {"kind": "fermi", "beta": 1.0},
        "landscape": {"name": "moran", "r": 2.0},
        "mutation": {"mu": 0.1},
        "axes": [{"name": "beta", "values": [0.0, 1.0]}],
        "output": {"path": str(out_path)},
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", "--config", str(config_path))
    assert code == 0
    assert out == "" and err == ""
    records = list(csv.DictReader(out_path.read_text().splitlines()))
    assert len(records) == 2
    assert [r["beta"] for r in records] == ["0.0", "1.0"]
    assert float(records[0]["entropy_rate"]) > float(records[1]["entropy_rate"])


def test_sweep_out_flag_overrides_config_path(tmp_path, capsys):
    configured = tmp_path / "ignored.csv"
    override = tmp_path / "used.json"
    config = {
        "n": 2,
        "N": 8,
        "incentive": {"kind": "neutral"},
        "mutation": {"mu": 0.1},
        "output": {"path": str(configured), "format": "json"},
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    code, _, _ = run_cli(capsys, "sweep", "--config", str(config_path), "--out", str(override))
    assert code == 0
    assert not configured.exists()
    docs = json.loads(override.read_text())
    assert len(docs) == 1
    assert docs[0]["error"] is None


def test_sweep_reports_failed_rows_on_stderr(tmp_path, capsys):
    config = {
        "n": 2,
        "N": 8,
        "incentive": {"kind": "neutral"},
        "axes": [{"name": "mu", "values": [0.0, 0.1]}],
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    out_path = tmp_path / "rows.csv"
    code, _, err = run_cli(capsys, "sweep", "--config", str(config_path), "--out", str(out_path))
    assert code == 0
    assert "1 of 2 rows failed" in err


def test_sweep_invalid_json_exits_one(tmp_path, capsys):
    config_path = tmp_path / "sweep.json"
    config_path.write_text("{not json")
    code, _, err = run_cli(capsys, "sweep", "--config", str(config_path))
    assert code == 1
    assert "invalid JSON" in err


def test_sweep_wrong_typed_number_exits_one(tmp_path, capsys):
    config = {
        "n": 2,
        "N": 8,
        "incentive": {"kind": "fermi", "beta": "strong"},
        "mutation": {"mu": 0.1},
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "sweep", "--config", str(config_path))
    assert code == 1
    assert "must be a number" in err
    assert "Traceback" not in err


def test_sweep_ragged_mutation_matrix_exits_one(tmp_path, capsys):
    config = {
        "n": 2,
        "N": 8,
        "incentive": {"kind": "neutral"},
        "mutation": {"matrix": [[0.9, 0.1], [0.2]]},
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "sweep", "--config", str(config_path))
    assert code == 1
    assert "mutation matrix row 1 must be a list of length 2" in err
    assert "Traceback" not in err


def test_sweep_non_string_output_path_exits_one(tmp_path, capsys):
    # an integer path would otherwise be opened as a file descriptor (2 is stderr)
    config = {"n": 2, "N": 8, "incentive": {"kind": "neutral"}, "mutation": {"mu": 0.1}}
    config["output"] = {"path": 2}
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", "--config", str(config_path))
    assert code == 1
    assert "output 'path' must be a string" in err
    assert out == ""


def test_sweep_missing_config_exits_one(tmp_path, capsys):
    code, _, err = run_cli(capsys, "sweep", "--config", str(tmp_path / "none.json"))
    assert code == 1


def test_mutation_free_neutral_exits_one(capsys):
    code, _, err = run_cli(capsys, "entropy-rate", "--n", "2", "--N", "8", "--mu", "0.0")
    assert code == 1
    assert "recurrent" in err


def test_custom_landscape_requires_matrix_file(capsys):
    code, _, err = run_cli(
        capsys,
        "entropy-rate", "--n", "2", "--N", "8", "--mu", "0.1", "--landscape", "custom",
    )
    assert code == 1
    assert "--matrix-file" in err


def test_custom_landscape_from_file(tmp_path, capsys):
    matrix_path = tmp_path / "game.json"
    matrix_path.write_text(json.dumps({"n": 2, "matrix": [[1.0, 2.0], [2.0, 1.0]]}))
    code, out, _ = run_cli(
        capsys,
        "entropy-rate", "--n", "2", "--N", "10", "--mu", "0.1",
        "--incentive", "fermi", "--beta", "1.0",
        "--landscape", "custom", "--matrix-file", str(matrix_path),
    )
    assert code == 0
    expected = evaluate_process(
        ProcessConfig(
            n=2, N=10,
            incentive=Incentive.fermi(beta=1.0),
            mutation=MutationModel.uniform(0.1),
            landscape=Landscape.hawk_dove(),
        )
    ).report
    assert json.loads(out)["entropy_rate"] == expected.entropy_rate


def test_moran_requires_r(capsys):
    code, _, err = run_cli(
        capsys,
        "entropy-rate", "--n", "2", "--N", "8", "--mu", "0.1", "--landscape", "moran",
    )
    assert code == 1
    assert "--r" in err


def test_estimate_missing_file_exits_one(tmp_path, capsys):
    code, _, err = run_cli(capsys, "estimate", "--trajectory", str(tmp_path / "none.txt"))
    assert code == 1


def test_exhausted_iteration_budget_exits_two(capsys, monkeypatch):
    monkeypatch.setattr(stationary_module, "_MAX_ITERS", 1)
    code, _, err = run_cli(
        capsys,
        "entropy-rate", "--n", "3", "--N", "6", "--mu", "0.1",
        "--incentive", "fermi", "--beta", "1.0",
        "--landscape", "rsp", "--a", "1", "--b", "1",
    )
    assert code == 2
    assert "numerical failure" in err


def test_max_iters_flag_is_unknown(capsys):
    code, _, err = run_cli(
        capsys, "entropy-rate", "--n", "2", "--N", "8", "--mu", "0.1", "--max-iters", "5"
    )
    assert code == 1
    assert "unrecognized arguments: --max-iters" in err


@pytest.mark.parametrize("solver_flag", [("--tol", "-1")])
@pytest.mark.parametrize(
    "process",
    [
        ("--n", "2", "--N", "10", "--mu", "0.1"),  # closed form
        ("--n", "2", "--N", "10", "--mu", "0.1",
         "--incentive", "fermi", "--landscape", "moran", "--r", "2"),  # reversible
    ],
    ids=["closed_form", "reversible"],
)
def test_bad_solver_settings_exit_one_on_every_route(capsys, process, solver_flag):
    code, _, err = run_cli(capsys, "entropy-rate", *process, *solver_flag)
    assert code == 1
    assert "must be positive" in err


def test_output_file_flag(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "entropy-rate", "--n", "2", "--N", "8", "--mu", "0.1", "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert "entropy_rate" in json.loads(out_path.read_text())
