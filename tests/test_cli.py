import csv
import io
import json
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from evorate import (
    Incentive,
    Landscape,
    MutationModel,
    ProcessConfig,
    ValidationError,
    build_kernel,
    central_states,
    evaluate_process,
    load_sweep_spec,
    num_states,
)
from evorate import stationary as stationary_module
from evorate.cli import build_parser, main
from evorate.kernel import dump_kernel

README = Path(__file__).resolve().parent.parent / "README.md"

# Best-reply is undefined at some lattice corners; at mu = 0 it runs on
# the three states reachable from (5, 5).
BEST_REPLY_MU0 = (
    "--n", "2", "--N", "10", "--mu", "0", "--incentive", "best-reply", "--landscape", "hawk-dove",
)


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


def test_kernel_dump_at_positive_mu_covers_the_whole_lattice(capsys):
    code, out, _ = run_cli(
        capsys,
        "kernel", "--n", "3", "--N", "8", "--mu", "0.05",
        "--incentive", "fermi", "--landscape", "rsp", "--a", "2", "--b", "1",
    )
    assert code == 0
    expected = io.StringIO()
    kern = build_kernel(
        3, 8, Incentive.fermi(beta=1.0), Landscape.rsp(a=2.0, b=1.0).build(3),
        MutationModel.uniform(0.05),
    )
    dump_kernel(kern, expected)
    assert kern.num_states == num_states(3, 8)
    assert out == expected.getvalue()


def test_kernel_at_mu_zero_covers_the_states_reachable_from_the_center(capsys):
    code, out, err = run_cli(capsys, "kernel", *BEST_REPLY_MU0)
    assert code == 0, err
    assert out.splitlines()[0] == "2 10 3"


def test_sample_at_mu_zero_starts_from_the_central_state(capsys):
    code, out, err = run_cli(capsys, "sample", *BEST_REPLY_MU0, "--length", "4", "--seed", "0")
    assert code == 0, err
    kern = build_kernel(
        2, 10, Incentive.best_reply(), Landscape.hawk_dove().build(2), MutationModel.uniform(0.0),
        reachable_from=central_states(2, 10),
    )
    states = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(states) == 4
    assert states[0] == str(kern.states.tolist().index([5, 5]))


@pytest.mark.parametrize(
    "command", [("kernel",), ("sample", "--length", "4", "--seed", "0")], ids=["kernel", "sample"]
)
def test_reachable_from_center_flag_is_unknown(capsys, command):
    code, _, err = run_cli(capsys, *command, *BEST_REPLY_MU0, "--reachable-from-center")
    assert code == 1
    assert "unrecognized arguments: --reachable-from-center" in err


def test_every_flag_named_in_readme_is_accepted():
    subcommands = next(a for a in build_parser()._actions if a.dest == "command").choices
    accepted = {
        flag
        for sub in subcommands.values()
        for action in sub._actions
        for flag in action.option_strings
    }
    named = {
        flag
        for line in README.read_text().splitlines()
        if "pip install" not in line  # pip's own flags
        for flag in re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", line)
    }
    assert {"--mu", "--matrix-file", "--trajectory"} <= named
    assert sorted(named - accepted) == []


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    text = README.read_text()
    block = re.search(r"## CLI\n\n```sh\n(.*?)```", text, re.S).group(1)
    sweep = re.search(r"## Sweep configs\n\n```json\n(.*?)```", text, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweep.json").write_text(sweep)
    commands = []  # [argv, the JSON comment on the line or the next one]
    for line in block.splitlines():
        command, _, comment = (part.strip() for part in line.partition("#"))
        if command.startswith("evorate "):
            commands.append([shlex.split(command)[1:], comment])
        elif comment.startswith("{"):
            commands[-1][1] = comment
    assert len(commands) == 8
    for argv, comment in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
        if argv == ["states", "--n", "3", "--N", "30"]:
            assert json.loads(out) == json.loads(comment)
        elif comment.startswith("{"):
            assert set(re.findall(r'"(\w+)":', comment)) <= set(json.loads(out)), argv
    assert (tmp_path / "beta_sweep.csv").exists()


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


@pytest.mark.parametrize(
    "start,message",
    [
        ("40,-5,-5", "state has negative counts: [40, -5, -5]"),
        ("1,2", "state has 2 coordinates, expected n=3"),
        ("10,10,11", "state sums to 31, expected N=30"),
        ("10,x,10", "--start must be comma-separated counts, got '10,x,10'"),
    ],
    ids=["negative", "too-few-counts", "wrong-total", "not-a-number"],
)
def test_sample_bad_start_exits_one(capsys, start, message):
    code, out, err = run_cli(
        capsys,
        "sample", "--n", "3", "--N", "30", "--mu", "0.1",
        "--length", "5", "--seed", "1", "--start", start,
    )
    assert code == 1
    assert out == ""
    assert message in err
    assert "Traceback" not in err


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


def test_sweep_unknown_key_exits_one(tmp_path, capsys):
    config = {
        "n": 2,
        "N": 8,
        "incentive": {"kind": "neutral"},
        "axes": [{"name": "mu", "values": [0.1], "vals": [0.2]}],
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", "--config", str(config_path))
    assert code == 1
    assert out == ""
    assert "axis 0 has unknown keys ['vals']" in err
    assert "Traceback" not in err


def test_sweep_fractional_fixed_N_exits_one(tmp_path, capsys):
    config = {"n": 2, "N": 30.5, "incentive": {"kind": "neutral"}, "mutation": {"mu": 0.1}}
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", "--config", str(config_path))
    assert code == 1
    assert out == ""
    assert "'N' must be an integer greater than n=2" in err
    assert "Traceback" not in err


def test_sweep_negative_fixed_fitness_exits_one(tmp_path, capsys):
    config = {
        "n": 2,
        "N": 8,
        "incentive": {"kind": "fermi", "beta": 1.0},
        "landscape": {"name": "moran", "r": -2},
        "axes": [{"name": "mu", "values": [0.1, 0.2]}],
    }
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", "--config", str(config_path))
    assert code == 1
    assert out == ""
    assert "relative fitness r must be finite and positive" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "beta,landscape",
    [("1e308", ["--landscape", "moran", "--r", "2"]), ("10", ["--landscape", "custom"])],
    ids=["huge-beta", "huge-payoffs"],
)
def test_fermi_logit_overflow_exits_one(tmp_path, capsys, beta, landscape):
    matrix = tmp_path / "game.json"
    matrix.write_text(json.dumps({"matrix": [[1e308, 0], [0, 1e308]]}))
    if landscape[-1] == "custom":
        landscape = landscape + ["--matrix-file", str(matrix)]
    code, out, err = run_cli(
        capsys, "entropy-rate", "--n", "2", "--N", "5", "--mu", "0.5",
        "--incentive", "fermi", "--beta", beta, *landscape,
    )
    assert code == 1
    assert out == ""
    assert "incentive is ill-defined at state [5, 0]: fermi logits beta * f overflow" in err
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


SWEEP_BASE = {"n": 2, "N": 8, "incentive": {"kind": "fermi", "beta": 1.0}, "mutation": {"mu": 0.1}}


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"landscape": {"name": "rsp", "a": 1, "b": 1}}, "landscape 'rsp' requires n=3, got n=2"),
        (
            {"n": 3, "mutation": {"matrix": [[0.9, 0.1], [0.2, 0.8]]}},
            "mutation matrix is 2x2, process has n=3 types",
        ),
        (
            {
                "landscape": {"name": "moran", "r": 2},
                "derived_mu": {"rule": "c_over_N", "c": 20},
                "axes": [{"name": "N", "values": [10, 30]}],
            },
            "mutation rate must lie in [0, 1], got 2.0",  # at N=10; N=30 gives 2/3
        ),
        (
            {"n": 3, "incentive": {"kind": "best_reply"}},
            "best_reply is only defined for two types",
        ),
    ],
    ids=["rsp-game-for-two-types", "two-type-mutation-matrix-for-three", "derived-mu-above-one",
         "best-reply-for-three-types"],
)
def test_sweep_description_error_anywhere_in_the_grid_exits_one(tmp_path, capsys, fields, message):
    config = {**SWEEP_BASE, **fields}
    if "derived_mu" in config:
        del config["N"], config["mutation"]
    with pytest.raises(ValidationError, match=re.escape(message)):
        load_sweep_spec(config)
    config_path = tmp_path / "sweep.json"
    config_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", "--config", str(config_path))
    assert code == 1
    assert out == ""
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "construct,fixed,axis,flags,message",
    [
        (
            lambda: Landscape.moran(r=-2.0),
            {"landscape": {"name": "moran", "r": -2}},
            {"landscape": {"name": "moran", "r": 2}, "axes": [{"name": "r", "values": [-2]}]},
            ("--landscape", "moran", "--r", "-2"),
            "relative fitness r must be finite and positive",
        ),
        (
            lambda: Landscape.rsp(a=1.0, b=math.nan),
            {"n": 3, "landscape": {"name": "rsp", "a": 1, "b": math.nan}},
            None,  # SweepAxis refuses every non-finite value itself
            ("--n", "3", "--landscape", "rsp", "--a", "1", "--b", "nan"),
            "rsp parameters must be finite",
        ),
        (
            lambda: Incentive("neutral", beta=1.0),
            {"incentive": {"kind": "neutral", "beta": 1}},
            {"incentive": {"kind": "neutral"}, "axes": [{"name": "beta", "values": [1]}]},
            ("--incentive", "neutral", "--beta", "1"),
            "the neutral incentive takes no beta",
        ),
        (
            lambda: Incentive("best_reply", q=1.0),
            {"incentive": {"kind": "best-reply", "q": 1}},
            {"incentive": {"kind": "best-reply"}, "axes": [{"name": "q", "values": [1]}]},
            ("--incentive", "best-reply", "--q", "1"),
            "the best_reply incentive takes no exponent q",
        ),
        (
            lambda: Landscape("moran"),
            {"landscape": {"name": "moran"}},
            None,  # an 'r' axis cannot rescue a landscape that is refused without it
            ("--landscape", "moran"),
            "the moran landscape requires parameter 'r'",
        ),
        (
            lambda: Incentive.fermi(beta=-0.5),
            {"incentive": {"kind": "fermi", "beta": -0.5}},
            {"axes": [{"name": "beta", "values": [1.0, -0.5]}]},
            ("--incentive", "fermi", "--beta", "-0.5"),
            "beta must be finite and >= 0",
        ),
    ],
    ids=["moran-negative-r", "rsp-nan-b", "beta-on-neutral", "q-on-best-reply", "moran-without-r",
         "negative-beta"],
)
def test_one_bad_description_one_message(capsys, construct, fixed, axis, flags, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        construct()
    for fields in (fixed, axis):
        if fields is not None:
            with pytest.raises(ValidationError, match=re.escape(message)):
                load_sweep_spec({**SWEEP_BASE, **fields})
    code, out, err = run_cli(capsys, "entropy-rate", "--N", "8", "--mu", "0.1", *flags)
    assert code == 1
    assert out == ""
    assert message in err


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


def test_fermi_strong_selection_toward_an_absent_type(tmp_path, capsys):
    # At beta = 100 the corner (10, 0) underflows its only present term;
    # the rate must match beta = 70, where it does not and selection is
    # already saturated.
    matrix_path = tmp_path / "m.json"
    matrix_path.write_text(json.dumps({"matrix": [[0, 0], [10, 10]]}))
    rates = []
    for beta in ("100", "70"):
        code, out, err = run_cli(
            capsys,
            "entropy-rate", "--n", "2", "--N", "10", "--mu", "0.01",
            "--incentive", "fermi", "--beta", beta,
            "--landscape", "custom", "--matrix-file", str(matrix_path),
        )
        assert code == 0, err
        rates.append(json.loads(out)["entropy_rate"])
    assert rates[0] == pytest.approx(rates[1], abs=1e-12)
    assert rates[1] == pytest.approx(0.08707384745835388, abs=1e-12)


def test_matrix_file_unknown_key_exits_one(tmp_path, capsys):
    matrix_path = tmp_path / "game.json"
    matrix_path.write_text(json.dumps({"n": 2, "matrix": [[1.0, 2.0], [2.0, 1.0]], "beta": 5}))
    code, out, err = run_cli(
        capsys,
        "entropy-rate", "--n", "2", "--N", "10", "--mu", "0.1",
        "--landscape", "custom", "--matrix-file", str(matrix_path),
    )
    assert code == 1
    assert out == ""
    assert "game matrix document has unknown keys ['beta']" in err
    assert "Traceback" not in err


def test_moran_requires_r(capsys):
    code, _, err = run_cli(
        capsys,
        "entropy-rate", "--n", "2", "--N", "8", "--mu", "0.1", "--landscape", "moran",
    )
    assert code == 1
    assert "the moran landscape requires parameter 'r'" in err


@pytest.mark.parametrize(
    "flags,message",
    [
        (
            ("--landscape", "neutral", "--r", "-2", "--a", "nan", "--q", "-5", "--beta", "-3"),
            "takes no exponent q",
        ),
        (("--incentive", "neutral", "--beta", "2"), "takes no beta"),
        (("--incentive", "replicator", "--beta", "2"), "takes no beta"),
        (("--landscape", "hawk-dove", "--r", "2"), "takes no parameter 'r'"),
        (("--landscape", "moran", "--r", "2", "--a", "1"), "takes no parameter 'a'"),
        (("--landscape", "moran", "--r", "2", "--matrix-file", "game.json"), "--landscape custom"),
    ],
    ids=["all-unused", "neutral-beta", "replicator-beta", "hawk-dove-r", "moran-a", "matrix-file"],
)
def test_process_flags_the_kind_does_not_use_exit_one(capsys, flags, message):
    code, out, err = run_cli(capsys, "entropy-rate", "--n", "2", "--N", "8", "--mu", "0.1", *flags)
    assert code == 1
    assert message in err
    assert "Traceback" not in err
    assert out == ""


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


@pytest.mark.parametrize(
    "argv",
    [
        ("stationary", "--n", "2", "--N", "8", "--mu", "0.1"),
        ("entropy-rate", "--n", "2", "--N", "8", "--mu", "0.1"),
        ("sweep", "--config", "sweep.json"),
    ],
    ids=["stationary", "entropy-rate", "sweep"],
)
def test_tol_flag_is_unknown(capsys, argv):
    code, _, err = run_cli(capsys, *argv, "--tol", "1e-10")
    assert code == 1
    assert "unrecognized arguments: --tol" in err


def test_output_file_flag(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys,
        "entropy-rate", "--n", "2", "--N", "8", "--mu", "0.1", "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert "entropy_rate" in json.loads(out_path.read_text())
