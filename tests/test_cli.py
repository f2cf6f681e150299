import contextlib
import csv
import hashlib
import io
import json
import math
import os
import pathlib
import re
import shlex
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import json_text_by_dumps
from stochorder import cli
from stochorder.cli import build_parser, main
from stochorder.distributions import MASS_TOL

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"
README = pathlib.Path(__file__).parents[1] / "README.md"

GOLDEN_CASES = {
    "check_lr_holds": (["check-lr", "--q1", "q_low.csv", "--q2", "q_high.csv"], 0),
    "check_st_fails": (["check-st", "--q1", "q_high.csv", "--q2", "q_low.csv"], 3),
    "tp2_check_antidiag": (["tp2", "check", "--r", "r_antidiag.csv"], 3),
    "kuiper_dist": (["kuiper", "dist", "--a", "r_antidiag.csv", "--b", "r_diag2.csv"], 0),
    "sample_seeded": (["sample", "--r", "r_diag3.csv", "--n", "5", "--seed", "42"], 0),
    "quantiles_west": (["quantiles", "--r", "r_band5.csv", "--beta", "0.5", "--flavor", "w"], 0),
    "boundaries_diag3": (["boundaries", "--r", "r_diag3.csv"], 0),
    "kernel_new_diag3": (["kernel", "--r", "r_diag3.csv", "--flavor", "new"], 0),
    "roc_verdict": (["roc", "--q1", "q_low.csv", "--q2", "q_high.csv", "--verdict"], 0),
    "odc_verdict": (["odc", "--q1", "q_low.csv", "--q2", "q_high.csv", "--verdict"], 0),
    "converge_bracket": (
        ["converge", "bracket", "--r", "r_band5.csv", "--beta", "0.5",
         "--ns", "100,1000", "--seeds", "1..3", "--x1", "2", "--x2", "4"], 0),
    "converge_uniform": (
        ["converge", "uniform", "--r", "r_diag3.csv", "--beta", "0.5",
         "--ns", "100,1000", "--seeds", "1,2", "--a", "1", "--b", "3"], 0),
    "tp2_project_antidiag": (
        ["tp2", "project", "--r", "r_antidiag.csv", "--seed", "42", "--restarts", "2"], 0),
    "check_lr_exact": (
        ["check-lr", "--q1", "q_low.csv", "--q2", "q_high.csv", "--exact",
         "--method", "intervals"], 0),
}


def run_cli(argv, cwd=None):
    buf = io.StringIO()
    old = os.getcwd()
    try:
        if cwd is not None:
            os.chdir(cwd)
        with contextlib.redirect_stdout(buf):
            code = main(argv)
    finally:
        os.chdir(old)
    return code, buf.getvalue()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_reports_are_byte_stable(name):
    argv, expected_code = GOLDEN_CASES[name]
    code, text = run_cli(argv, cwd=DATA)
    assert code == expected_code
    golden = (GOLDEN / f"{name}.json").read_text()
    assert text == golden
    # and the report is valid JSON with the expected envelope
    payload = json.loads(text)
    assert set(payload) == {"command", "version", "inputs", "result"}


def test_check_st_witness_follows_the_mode():
    # float mode reports the largest violating threshold, exact mode the smallest
    argv = ["check-st", "--q1", "q_high.csv", "--q2", "q_low.csv"]
    for flags, witness in (([], [2.0]), (["--exact"], [1.0])):
        code, text = run_cli(argv + flags, cwd=DATA)
        assert code == 3
        assert json.loads(text)["result"]["witness"] == witness


def test_golden_fixture_report(tmp_path):
    code, text = run_cli(["fixture", "antidiag", "--dir", "."], cwd=tmp_path)
    assert code == 0
    assert text == (GOLDEN / "fixture_antidiag.json").read_text()


def test_module_entry_point_in_subprocess():
    import subprocess
    import sys

    import stochorder

    # The child runs in tests/data, where a relative PYTHONPATH entry (such as
    # the `src` of `PYTHONPATH=src pytest`) names nothing. Put the directory of
    # the package this process imported first, so the child runs the same tree.
    src = str(pathlib.Path(stochorder.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "stochorder.cli", "check-lr",
         "--q1", "q_low.csv", "--q2", "q_high.csv"],
        cwd=DATA, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["result"]["holds"] is True


def readme_commands() -> list[str]:
    """The ``stochorder`` lines of README's "Command line" sh block, with
    backslash continuations joined."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("stochorder ")]


def test_readme_command_examples_parse():
    commands = readme_commands()
    assert len(commands) == 14
    parser = build_parser()
    for line in commands:
        parser.parse_args(shlex.split(line)[1:])


def run_captured(argv):
    """``main(argv)`` with stdout and stderr captured: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_cached_parser_matches_a_fresh_parser_per_call(tmp_path, monkeypatch):
    """``main`` reuses one parser; each call must read as if it had built its own."""
    monkeypatch.chdir(DATA)
    # the golden commands, a failing verdict (3), a precondition error (4),
    # usage errors (2), and help and version (0)
    calls = [argv for argv, _ in GOLDEN_CASES.values()] + [
        ["fixture", "antidiag", "--dir", str(tmp_path)],
        ["check-st", "--q1", "q_high.csv", "--q2", "q_low.csv", "--exact"],
        ["kernel", "--r", "r_antidiag.csv", "--flavor", "new"],
        ["frobnicate"],
        ["check-lr", "--q1", "q_low.csv"],
        ["check-lr", "--q1", "q_low.csv", "--q2", "q_low.csv", "--tolerance", "-1"],
        ["--version"],
        ["--help"],
        ["tp2", "check", "--help"],
        ["check-lr", "--q1", "q_low.csv", "--q2", "q_high.csv", "--method", "intervals"],
    ]
    cached = [[run_captured(argv) for argv in calls] for _ in range(2)]
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", build_parser)  # the oracle: a new parser per call
    fresh = [run_captured(argv) for argv in calls]
    assert cached == [fresh, fresh]
    assert {code for code, _, _ in fresh} == {0, 2, 3, 4}
    assert build_parser() is not build_parser()
    # each call wrote to the streams redirected for it: a report, help or
    # version to stdout, or a message to stderr
    for code, out, err in cached[1]:
        assert (bool(out), bool(err)) == (code in (0, 3), code in (2, 4))


def test_input_digest_hashes_the_bytes_parsed(tmp_path):
    """A FIFO yields its bytes to one read: the report's digest must hash that read."""
    fifo = tmp_path / "q_fifo.csv"
    os.mkfifo(fifo)
    data = (DATA / "q_low.csv").read_bytes()

    def write():
        with contextlib.suppress(OSError), open(fifo, "wb") as fh:
            fh.write(data)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    found = []
    run = threading.Thread(daemon=True, target=lambda: found.append(
        run_captured(["check-lr", "--q1", str(fifo), "--q2", str(DATA / "q_high.csv")])))
    run.start()
    for _ in range(12):
        run.join(timeout=5)
        if not run.is_alive():
            break
        # a second open of the FIFO waits for a writer: give it one that writes nothing
        with contextlib.suppress(OSError):
            os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
    writer.join(timeout=5)
    assert not run.is_alive() and not writer.is_alive()
    code, out, err = found[0]
    assert (code, err) == (0, "")
    assert json.loads(out)["inputs"] == {
        "q1": "sha256:" + hashlib.sha256(data).hexdigest(),
        "q2": "sha256:" + hashlib.sha256((DATA / "q_high.csv").read_bytes()).hexdigest(),
    }
    _, regular = run_cli(["check-lr", "--q1", "q_low.csv", "--q2", "q_high.csv"], cwd=DATA)
    assert out == regular


@pytest.mark.parametrize("name, data", [
    ("bad.csv", b"value,prob\n" + b"1,0.5\n" * 2000 + b"2,0.5\xff\n"),
    ("bad.json", b'{"support": [1, 2], "probs": [0.5, 0.5]}\xff\n'),
])
def test_undecodable_input_keeps_its_message(tmp_path, name, data):
    """Parsing the bytes read for the digest decodes them as reading the file as text did."""
    path = tmp_path / name
    path.write_bytes(data)
    with pytest.raises(UnicodeDecodeError) as exc:
        with open(path, newline="" if name.endswith(".csv") else None, encoding="utf-8") as fh:
            list(csv.reader(fh)) if name.endswith(".csv") else json.load(fh)
    assert run_captured(["check-st", "--q1", str(path), "--q2", str(path)]) == (
        2, "", f"input error: {exc.value}\n")


class TestExitCodes:
    def test_reflexive_lr_exits_zero(self):
        code, _ = run_cli(["check-lr", "--q1", "q_low.csv", "--q2", "q_low.csv"], cwd=DATA)
        assert code == 0

    def test_verdict_failure_exits_three(self):
        code, text = run_cli(["tp2", "check", "--r", "r_antidiag.csv"], cwd=DATA)
        assert code == 3
        assert json.loads(text)["result"]["witness"] == [1.0, 2.0, 1.0, 2.0]

    def test_missing_file_exits_two(self):
        code, _ = run_cli(["check-lr", "--q1", "nope.csv", "--q2", "nope.csv"], cwd=DATA)
        assert code == 2

    def test_unknown_subcommand_exits_two(self):
        code, _ = run_cli(["frobnicate"])
        assert code == 2

    def test_precondition_error_exits_four(self):
        # band-truncated kernel on a non-TP2 input
        code, _ = run_cli(["kernel", "--r", "r_antidiag.csv", "--flavor", "new"], cwd=DATA)
        assert code == 4

    def test_kuiper_self_distance_zero(self):
        code, text = run_cli(
            ["kuiper", "dist", "--a", "r_diag2.csv", "--b", "r_diag2.csv"], cwd=DATA)
        assert code == 0
        assert json.loads(text)["result"]["distance"] == 0.0


class TestInputErrors:
    """Bad inputs end in exit 2 with a message, never a traceback or a verdict."""

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_bad_tolerance_exits_two(self, tol):
        code, text = run_cli(
            ["check-lr", "--q1", "q_low.csv", "--q2", "q_low.csv", "--tolerance", tol], cwd=DATA)
        assert code == 2
        assert text == ""

    def test_zero_tolerance_keeps_reflexivity(self):
        code, _ = run_cli(
            ["check-lr", "--q1", "q_low.csv", "--q2", "q_low.csv", "--tolerance", "0"], cwd=DATA)
        assert code == 0

    @pytest.mark.parametrize("ns, seeds", [("", "1..3"), ("100", "5..1"), ("100", "")])
    def test_converge_bracket_empty_lists_exit_two(self, ns, seeds):
        code, _ = run_cli(
            ["converge", "bracket", "--r", "r_band5.csv", "--beta", "0.5", "--ns", ns,
             "--seeds", seeds, "--x1", "2", "--x2", "4"], cwd=DATA)
        assert code == 2

    @pytest.mark.parametrize("ns, seeds", [("", "1,2"), ("100", "")])
    def test_converge_uniform_empty_lists_exit_two(self, ns, seeds):
        code, _ = run_cli(
            ["converge", "uniform", "--r", "r_diag3.csv", "--beta", "0.5", "--ns", ns,
             "--seeds", seeds, "--a", "1", "--b", "3"], cwd=DATA)
        assert code == 2

    def test_negative_restarts_exits_two(self):
        code, text = run_cli(
            ["tp2", "project", "--r", "r_antidiag.csv", "--seed", "1", "--restarts", "-3"],
            cwd=DATA)
        assert code == 2
        assert text == ""

    @pytest.mark.parametrize("argv", [
        ["check-st", "--q1", "q_low.csv", "--q2", "q_high.csv"],
        ["check-lr", "--q1", "q_low.csv", "--q2", "q_high.csv"],
        ["tp2", "check", "--r", "r_band5.csv"],
        ["kuiper", "dist", "--a", "r_antidiag.csv", "--b", "r_diag2.csv"],
        ["quantiles", "--r", "r_band5.csv", "--beta", "0.5", "--flavor", "w"],
    ])
    def test_unwritable_report_copy_prints_no_report(self, tmp_path, capsys, argv):
        code, text = run_cli([*argv, "--out", str(tmp_path / "missing" / "x.json")], cwd=DATA)
        assert (code, text) == (2, "")
        assert "input error" in capsys.readouterr().err

    def test_project_rejects_exact(self, capsys):
        code, text = run_cli(
            ["tp2", "project", "--r", "r_antidiag.csv", "--seed", "1", "--exact"], cwd=DATA)
        assert code == 2
        assert text == ""
        assert "--exact" in capsys.readouterr().err

    def test_project_applies_tolerance(self):
        # with this much slack the antidiagonal passes the TP2 check, so it projects to itself
        argv = ["--r", "r_antidiag.csv", "--tolerance", "1e9"]
        code, text = run_cli(["tp2", "check", *argv], cwd=DATA)
        assert code == 0 and json.loads(text)["result"]["holds"] is True
        code, text = run_cli(["tp2", "project", *argv, "--seed", "1", "--restarts", "2"], cwd=DATA)
        assert code == 0
        result = json.loads(text)["result"]
        assert result["trace"]["source"] == "input-tp2"
        assert result["distance"] == 0.0

    def test_negative_seed_exits_two(self, capsys):
        # the input is TP2, so the search that would use the seed never runs
        code, text = run_cli(["tp2", "project", "--r", "r_diag3.csv", "--seed", "-1"], cwd=DATA)
        assert code == 2
        assert text == ""
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("payload", [
        {"support": [1, 2]},
        {"support": [1, 2], "probs": None, "weights": None},
        {"probs": [0.5, 0.5]},
        [0.5, 0.5],
    ])
    def test_univariate_json_missing_keys_exits_two(self, tmp_path, payload):
        bad = tmp_path / "q.json"
        bad.write_text(json.dumps(payload))
        code, _ = run_cli(["check-lr", "--q1", str(bad), "--q2", str(DATA / "q_low.csv")])
        assert code == 2

    @pytest.mark.parametrize("payload", [
        {"x_support": [1], "pmf": [[1.0]]},
        {"y_support": [1], "weights": [[1]]},
        {"x_support": [1], "y_support": [1]},
    ])
    def test_bivariate_json_missing_keys_exits_two(self, tmp_path, payload):
        bad = tmp_path / "r.json"
        bad.write_text(json.dumps(payload))
        code, _ = run_cli(["tp2", "check", "--r", str(bad)])
        assert code == 2

    @pytest.mark.parametrize("payload", [
        {"support": [1, 2], "probs": 5},
        {"support": [1, 2], "weights": 5},
        {"support": 3, "probs": [1]},
    ])
    def test_univariate_json_value_types_exit_two(self, tmp_path, payload):
        bad = tmp_path / "q.json"
        bad.write_text(json.dumps(payload))
        code, _ = run_cli(["check-lr", "--q1", str(bad), "--q2", str(DATA / "q_low.csv")])
        assert code == 2

    @pytest.mark.parametrize("payload, flags", [
        ({"x_support": [1, 2], "y_support": [1], "weights": 3}, []),
        ({"x_support": [1], "y_support": [1, 2], "pmf": [0.5, 0.5]}, ["--exact"]),
    ])
    def test_bivariate_json_value_types_exit_two(self, tmp_path, payload, flags):
        bad = tmp_path / "r.json"
        bad.write_text(json.dumps(payload))
        code, _ = run_cli(["tp2", "check", "--r", str(bad), *flags])
        assert code == 2

    @pytest.mark.parametrize("name, text, argv", [
        ("q.json", '{"support": [1, 2], "probs": [[1], [2]]}', ["check-lr", "--q1"]),
        ("q.json", '{"support": [1, 2], "weights": [1.5, 2.5]}', ["check-lr", "--q1"]),
        ("q.json", '{"support": [1, 2], "weights": [1, 1, 5]}', ["check-lr", "--q1"]),
        ("q.csv", "value,prob\n1\n2,0.5\n", ["check-lr", "--q1"]),
        ("r.csv", "x,y,prob\n1,1,0.5,9\n2,1,0.5\n", ["tp2", "check", "--r"]),
        ("q.csv", "value,prob\n1,abc\n2,0.5\n", ["check-lr", "--exact", "--q1"]),
        ("q.json", '{"support": [1, 2], "probs": ["abc", 0.5]}', ["check-lr", "--exact", "--q1"]),
        ("q.csv", "value,prob\n1,Infinity\n2,0.5\n", ["check-lr", "--exact", "--q1"]),
        ("q.json", '{"support": [1, 2], "probs": [Infinity, 0.5]}', ["check-lr", "--exact", "--q1"]),
        ("r.json", '{"x_support": [1, 2], "y_support": [1, 2], "weights": [[1, 0.5], [0, 1]]}',
         ["tp2", "check", "--exact", "--r"]),
        ("r.json", '{"x_support": [1, 2], "y_support": [1], "pmf": [[1], [2, 3]]}',
         ["tp2", "check", "--exact", "--r"]),
    ], ids=["nested-probs", "fractional-weights", "extra-weight", "short-csv-row", "extra-csv-field",
            "exact-csv-text", "exact-json-text", "exact-csv-infinity", "exact-json-infinity",
            "exact-bivariate-fractional-weights", "exact-ragged-pmf-rows"])
    def test_malformed_masses_exit_two(self, tmp_path, name, text, argv):
        bad = tmp_path / name
        bad.write_text(text)
        extra = [] if argv[0] == "tp2" else ["--q2", str(DATA / "q_low.csv")]
        code, out = run_cli([*argv, str(bad), *extra])
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("masses", [
        {"probs": [0.25, 0.25, 0.25, 0.25]},
        {"weights": [1, 1, 1, 1]},
        {"probs": [0.5, 0.5]},
    ], ids=["probs-per-entry", "weights-per-entry", "probs-per-row"])
    def test_nested_univariate_support_exits_two(self, tmp_path, capsys, masses):
        # a 2x2 support is not flattened into four atoms, nor indexed as one
        bad = tmp_path / "q.json"
        bad.write_text(json.dumps({"support": [[1, 2], [3, 4]], **masses}))
        ok = tmp_path / "ok.json"
        ok.write_text(json.dumps({"support": [1, 2], "probs": [0.5, 0.5]}))
        code, out = run_cli(["check-st", "--q1", str(bad), "--q2", str(ok)])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert "Traceback" not in err

    def test_gamma_pair_below_zero_exits_two(self, tmp_path):
        # exits before numpy evaluates sqrt on a negative grid (no RuntimeWarning)
        code, _ = run_cli(["fixture", "gamma-pair", "--lo", "-15", "--dir", str(tmp_path)])
        assert code == 2
        assert not list(tmp_path.iterdir())

    def test_fixture_bad_size_exits_two(self, tmp_path):
        code, _ = run_cli(["fixture", "unif-delta-kernel", "--size", "7", "--dir", str(tmp_path)])
        assert code == 2
        assert not (tmp_path / "unif-delta-kernel.csv").exists()

    @pytest.mark.parametrize("exact, code", [(True, 4), (False, 0)])
    def test_converge_bracket_precondition_follows_mode(self, tmp_path, exact, code):
        # rows (1e13, 1e13 + 1) and (1e13 + 1, 1e13 + 1): the upper conditional
        # mass falls by about 2.5e-14 relative, inside the float slack only
        r = tmp_path / "r.json"
        big = 10 ** 13
        r.write_text(json.dumps({"x_support": [1, 2], "y_support": [1, 2],
                                 "weights": [[big, big + 1], [big + 1, big + 1]]}))
        argv = ["converge", "bracket", "--r", str(r), "--beta", "0.5", "--ns", "10",
                "--seeds", "1", "--x1", "1.2", "--x2", "1.8"]
        assert run_cli(argv + ["--exact"] * exact)[0] == code

    @pytest.mark.parametrize("argv", [
        ["kernel", "--flavor", "e", "--x", "nan"],
        ["kernel", "--flavor", "w", "--x", "nan"],
        ["kernel", "--flavor", "new", "--x", "nan"],
        ["boundaries", "--x", "nan"],
        ["quantiles", "--beta", "0.5", "--flavor", "w", "--x", "nan"],
        ["boundaries", "--x", ","],
        ["kernel", "--flavor", "w", "--x", ","],
    ], ids=["kernel-e-nan", "kernel-w-nan", "kernel-new-nan", "boundaries-nan", "quantiles-w-nan",
            "boundaries-empty", "kernel-empty"])
    def test_bad_evaluation_points_exit_two(self, capsys, argv):
        code, out = run_cli([*argv, "--r", "r_band5.csv"], cwd=DATA)
        assert code == 2
        assert out == ""
        assert "evaluation point" in capsys.readouterr().err

    def test_infinite_evaluation_points_lie_outside_the_range(self):
        def strict(text):
            def reject(constant):
                raise ValueError(f"non-standard JSON constant {constant}")
            return json.loads(text, parse_constant=reject)

        code, out = run_cli(["kernel", "--r", "r_band5.csv", "--flavor", "w", "--x=-inf,inf"],
                            cwd=DATA)
        assert code == 0
        result = strict(out)["result"]
        assert result["eval_points"] == ["-inf", "inf"]
        low, high = result["rows"]
        # both rows are the second marginal
        assert [p[1:] for p in low] == [p[1:] for p in high]
        code, out = run_cli(["boundaries", "--r", "r_band5.csv", "--x=-inf,inf"], cwd=DATA)
        assert code == 0
        records = strict(out)["result"]["records"]
        assert [rec["in_range"] for rec in records] == [False, False]
        assert [rec["x"] for rec in records] == ["-inf", "inf"]

    @pytest.mark.parametrize("step", ["0", "-0.1", "nan", "inf"])
    def test_fixture_bad_step_exits_two(self, tmp_path, capsys, step):
        code, _ = run_cli(["fixture", "gauss-pair", "--step", step, "--dir", str(tmp_path)])
        assert code == 2
        assert "grid step must be finite and positive" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_complete_json_inputs_load(self, tmp_path):
        q = tmp_path / "q.json"
        q.write_text(json.dumps({"support": [1, 2], "probs": [0.5, 0.5]}))
        r = tmp_path / "r.json"
        r.write_text(json.dumps({"x_support": [1], "y_support": [1], "weights": [[1]]}))
        assert run_cli(["check-lr", "--q1", str(q), "--q2", str(q)])[0] == 0
        assert run_cli(["tp2", "check", "--r", str(r)])[0] == 0


class TestKernelNew:
    def test_tiny_band_mass_keeps_rows_normalized(self, tmp_path):
        # Row x=0 keeps the band [1, 2], which holds about 1.3e-9 of its
        # conditional mass.  Taken as a difference of cumulative sums near 1,
        # that mass cancels badly, and the row summed to 1.00000002, outside
        # MASS_TOL; summed over the band, it is exact to rounding.
        r = tmp_path / "r.csv"
        r.write_text("x,y,prob\n0,0,0.4999999993495\n0,1,6.5e-10\n0,2,5e-13\n"
                     "1,1,0.35\n1,2,0.15\n")
        assert run_cli(["tp2", "check", "--r", str(r)])[0] == 0
        code, out = run_cli(["kernel", "--r", str(r), "--flavor", "new"])
        assert code == 0
        rows = json.loads(out)["result"]["rows"]
        assert rows
        for row in rows:
            assert abs(sum(p for _, _, p in row) - 1.0) <= MASS_TOL


class TestAtomsNearTheFloatLimit:
    """The midpoint between atoms whose sum overflows is taken half by half, so
    this diagonal pmf reports as it does on the atoms 1 and 2."""

    CSV = "x,y,prob\n1e308,1e308,0.5\n1.7e308,1.7e308,0.5\n"

    def test_boundaries(self, tmp_path):
        r = tmp_path / "r.csv"
        r.write_text(self.CSV)
        code, out = run_cli(["boundaries", "--r", str(r)])
        assert code == 0
        records = json.loads(out)["result"]["records"]
        assert [rec["x"] for rec in records] == [1e308, 1.35e308, 1.7e308]
        assert [(rec["s_nw"], rec["s_se"]) for rec in records] == [
            (1e308, 1e308), (1e308, 1.7e308), (1.7e308, 1.7e308)]

    def test_kernel_new(self, tmp_path):
        r = tmp_path / "r.csv"
        r.write_text(self.CSV)
        code, out = run_cli(["kernel", "--r", str(r), "--flavor", "new"])
        assert code == 0
        result = json.loads(out)["result"]
        assert result["eval_points"] == [1e308, 1.35e308, 1.7e308]
        assert result["rows"] == [[[1e308, 1e308, 1.0]], [[1.35e308, 1.35e308, 1.0]],
                                  [[1.7e308, 1.7e308, 1.0]]]


class TestAtomsBeyondTwoToThe53:
    """Beyond 2^53, one unit past an end atom rounds back to the atom, so the
    outer cuts are the next floats past it: the refined grid stays strictly
    increasing, and a witness interval (x, y] holds the atoms it claims."""

    def test_tp2_project(self, tmp_path):
        r = tmp_path / "r.csv"
        r.write_text("x,y,prob\n1e17,1e17,0.5\n2e17,2e17,0.5\n")
        code, out = run_cli(["tp2", "project", "--r", str(r), "--seed", "1", "--restarts", "1"])
        assert code == 0
        assert json.loads(out)["result"]["tp2_certified"] is True

    @pytest.mark.parametrize("method", ["intervals", "conditional-st"])
    def test_interval_witness_cuts_outside_the_end_atoms(self, tmp_path, method):
        q1, q2 = tmp_path / "q1.csv", tmp_path / "q2.csv"
        q1.write_text("value,prob\n1e17,0.2\n2e17,0.8\n")
        q2.write_text("value,prob\n1e17,0.8\n2e17,0.2\n")
        code, out = run_cli(["check-lr", "--q1", str(q1), "--q2", str(q2), "--method", method])
        assert code == 3
        cuts = sorted(json.loads(out)["result"]["witness"])
        assert cuts == [np.nextafter(1e17, -np.inf), 1.5e17, np.nextafter(2e17, np.inf)]


def write_tilted_pair(tmp_path, n: int, width: float, tilt: float) -> None:
    """q1.csv and q2.csv: q1 ∝ exp(-width (s - n/2)^2) on s = 0, ..., n - 1 and
    q2 ∝ q1 exp(tilt s), an LR-ordered pair whose tails reach far below 1."""
    s = np.arange(float(n))
    q1 = np.exp(-width * (s - n / 2) ** 2)
    q2 = q1 * np.exp(tilt * s)
    for name, q in (("q1", q1 / q1.sum()), ("q2", q2 / q2.sum())):
        (tmp_path / f"{name}.csv").write_text(
            "value,prob\n" + "".join(f"{v!r},{p!r}\n" for v, p in zip(s.tolist(), q.tolist())))


class TestAdjacentFloatAtoms:
    def test_tp2_project_names_the_atoms_without_a_cut(self, tmp_path, capsys):
        # no float lies between the two atoms, so the refined grid has no cut there
        atoms = ("1.0", "1.0000000000000002")
        r = tmp_path / "r.csv"
        r.write_text("x,y,prob\n" + "".join(f"{x},{y},0.25\n" for x in atoms for y in atoms))
        code, out = run_cli(["tp2", "project", "--r", str(r), "--seed", "1", "--restarts", "1"])
        assert (code, out) == (4, "")
        assert "atoms 1.0 and 1.0000000000000002" in capsys.readouterr().err


class TestTinyMassesKeepTheirDigits:
    """LR-ordered and TP2 inputs whose interval masses reach far below the
    total; differences of cumulative sums or of rounded curve points flipped
    these float verdicts."""

    def test_check_lr_on_120_atoms(self, tmp_path):
        write_tilted_pair(tmp_path, 120, 0.01, 0.01)
        for method in ("intervals", "conditional-st"):
            code, _ = run_cli(["check-lr", "--q1", "q1.csv", "--q2", "q2.csv", "--method", method],
                              cwd=tmp_path)
            assert code == 0, method

    @pytest.mark.parametrize("n", [20, 30])
    def test_tp2_check_on_gaussian_kernels(self, tmp_path, n):
        x = np.arange(float(n))
        pmf = np.exp(-0.2 * (x[:, None] - x[None, :]) ** 2)
        rows = (pmf / pmf.sum()).tolist()
        (tmp_path / "r.csv").write_text("x,y,prob\n" + "".join(
            f"{a!r},{b!r},{rows[i][j]!r}\n" for i, a in enumerate(x.tolist())
            for j, b in enumerate(x.tolist())))
        code, _ = run_cli(["tp2", "check", "--r", "r.csv", "--method", "intervals"], cwd=tmp_path)
        assert code == 0

    @pytest.mark.parametrize("command, n, width", [("roc", 120, 0.01), ("odc", 30, 0.2)])
    def test_curve_verdicts_on_tilted_pairs(self, tmp_path, command, n, width):
        write_tilted_pair(tmp_path, n, width, 0.01)
        code, _ = run_cli([command, "--q1", "q1.csv", "--q2", "q2.csv", "--verdict"], cwd=tmp_path)
        assert code == 0


class TestFileArtifacts:
    def test_roc_points_csv(self, tmp_path):
        out = tmp_path / "points.csv"
        code, _ = run_cli(
            ["roc", "--q1", str(DATA / "q_low.csv"), "--q2", str(DATA / "q_high.csv"),
             "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "u,v"
        assert len(lines) == 5  # corners + three thresholds, deduplicated

    def test_sample_csv(self, tmp_path):
        out = tmp_path / "samples.csv"
        code, _ = run_cli(
            ["sample", "--r", str(DATA / "r_diag3.csv"), "--n", "7", "--seed", "1",
             "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y" and len(lines) == 8

    def test_boundaries_csv(self, tmp_path):
        out = tmp_path / "b.csv"
        code, _ = run_cli(["boundaries", "--r", str(DATA / "r_diag3.csv"), "--out", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[0] == "x,s_nw,s_se,crossing,in_range"

    def test_projection_json(self, tmp_path):
        out = tmp_path / "proj.json"
        code, _ = run_cli(
            ["tp2", "project", "--r", str(DATA / "r_antidiag.csv"), "--seed", "7",
             "--restarts", "2", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["tp2_certified"] is True
        assert payload["distance"] <= 0.25 + 1e-12

    def test_fixture_writes_files(self, tmp_path):
        code, text = run_cli(["fixture", "gamma-pair", "--dir", str(tmp_path)])
        assert code == 0
        files = json.loads(text)["result"]["files"]
        assert len(files) == 2
        for f in files:
            assert os.path.exists(f)

    @pytest.mark.parametrize("flag", [["--out", "x.json"], ["--exact"], ["--tolerance", "0"]])
    def test_fixture_takes_no_global_flags(self, tmp_path, flag):
        code, text = run_cli(["fixture", "antidiag", "--dir", ".", *flag], cwd=tmp_path)
        assert (code, text, os.listdir(tmp_path)) == (2, "", [])

    def test_fixture_options_default_to_the_fixture_functions(self, tmp_path):
        assert run_cli(["fixture", "unif-delta-kernel", "--dir", str(tmp_path)])[0] == 0
        rows = (tmp_path / "unif-delta-kernel.csv").read_text().splitlines()[1:]
        assert len({row.split(",")[0] for row in rows}) == 30
        # a grid bound that equals another fixture's default is still used as given
        assert run_cli(["fixture", "gamma-pair", "--hi", "15", "--dir", str(tmp_path)])[0] == 0
        rows = (tmp_path / "gamma-pair-q1.csv").read_text().splitlines()
        assert rows[1].split(",")[0] == "0.05" and rows[-1].split(",")[0] == "15.0"

    def test_fixture_roundtrip_preserves_verdicts(self, tmp_path):
        run_cli(["fixture", "gauss-pair", "--dir", str(tmp_path)])
        code, _ = run_cli(
            ["check-lr", "--q1", str(tmp_path / "gauss-pair-q1.csv"),
             "--q2", str(tmp_path / "gauss-pair-q2.csv")])
        assert code == 3

    def test_gamma_fixture_is_lr_ordered(self, tmp_path):
        run_cli(["fixture", "gamma-pair", "--dir", str(tmp_path)])
        code, _ = run_cli(
            ["check-lr", "--q1", str(tmp_path / "gamma-pair-q1.csv"),
             "--q2", str(tmp_path / "gamma-pair-q2.csv")])
        assert code == 0

    def test_odc_counterexample_fixture_flags(self, tmp_path):
        run_cli(["fixture", "odc-counterexample", "--dir", str(tmp_path)])
        q1 = str(tmp_path / "odc-counterexample-q1.csv")
        q2 = str(tmp_path / "odc-counterexample-q2.csv")
        code_odc, text = run_cli(["odc", "--q1", q1, "--q2", q2, "--verdict"])
        assert code_odc == 0
        payload = json.loads(text)["result"]
        assert payload["convex"]["holds"] and not payload["dominated"]
        code_roc, text = run_cli(["roc", "--q1", q1, "--q2", q2, "--verdict"])
        assert code_roc == 3
        assert not json.loads(text)["result"]["concave"]["holds"]

    def test_kernel_rows_csv(self, tmp_path):
        out = tmp_path / "rows.csv"
        code, _ = run_cli(
            ["kernel", "--r", str(DATA / "r_band5.csv"), "--flavor", "w", "--x", "1.5,2.5",
             "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "x,y,prob"
        assert all(line.split(",")[0] in ("1.5", "2.5") for line in lines[1:])


FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e16, 1e-7, 0.1, math.inf, -math.inf, math.nan]),
                   st.floats())
INTS = st.one_of(st.sampled_from([2**63, -2**63 - 1, 2**64 + 1]), st.integers())
NUMBERS = st.one_of(FLOATS, INTS)
TEXTS = st.one_of(st.sampled_from(['"', "\\", 'a"b\\c', "\x00\x1f\n\t", "caf\u00e9", "\u96ea\U0001f600"]),
                  st.text(max_size=6))
SCALARS = st.one_of(NUMBERS, st.booleans(), st.none(), TEXTS, st.builds(np.float64, FLOATS),
                    st.builds(np.int64, st.integers(-2**63, 2**63 - 1)))
KEYS = st.one_of(TEXTS, NUMBERS, st.booleans(), st.none(), st.builds(np.float64, FLOATS),
                 st.just(()))
#: lists of equal-width rows of plain numbers, as ROC points and kernel triples are
ROWS = st.integers(1, 3).flatmap(lambda k: st.lists(
    st.lists(NUMBERS, min_size=k, max_size=k).flatmap(lambda row: st.sampled_from([row, tuple(row)])),
    max_size=4))


def payloads(depth: int):
    """Nested dicts, lists and tuples up to ``depth`` levels, empty ones included."""
    if depth == 0:
        return SCALARS
    inner = payloads(depth - 1)
    return st.one_of(SCALARS, st.lists(NUMBERS, max_size=4), ROWS, st.lists(inner, max_size=3),
                     st.lists(inner, max_size=3).map(tuple), st.dictionaries(KEYS, inner, max_size=3))


def written_by(write, payload):
    """The text ``write`` gives, or the type and message of what it raises."""
    try:
        return write(payload)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestReportWriter:
    @settings(max_examples=500, deadline=None)
    @given(payloads(4))
    @example([math.nan, 10**5000])  # json reaches the NaN before the over-long int
    @example([[1.0, math.inf], (2, -math.inf)])
    @example({"a": [[0.5, 1e16]], 1: None})
    def test_matches_json_dumps(self, payload):
        assert written_by(cli._json_text, payload) == written_by(json_text_by_dumps, payload)

    def test_infinite_kernel_points_print_the_dumps_bytes(self, monkeypatch):
        argv = ["kernel", "--r", "r_band5.csv", "--flavor", "w", "--x=-inf,inf"]
        code, text = run_cli(argv, cwd=DATA)
        assert '[\n          "-inf",\n          1.0,' in text  # ±inf inside the nested triples
        monkeypatch.setattr(cli, "_json_text", json_text_by_dumps)
        assert run_cli(argv, cwd=DATA) == (code, text)

    def test_nan_payload_exits_two(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "kuiper_norm", lambda *args: math.nan)
        code, out = run_cli(["kuiper", "dist", "--a", "r_antidiag.csv", "--b", "r_diag2.csv"], cwd=DATA)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == "input error: Out of range float values are not JSON compliant: nan\n"
