import contextlib
import csv
import importlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entrate.cli import main
from entrate.simulate import ReparamPoint, reparam_to_abcd
from entrate.study import _load_plan

PLANS = Path(__file__).parents[1] / "plans"

TABLE_STRING = "13131213232331313332"
TABLE_PARSING = "1 | 3 | 131 | 2 | 132 | 323 | 31313 | 332"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCommand:
    def test_table_string(self, capsys):
        code, out, _ = run(capsys, "parse", "--text", TABLE_STRING)
        assert code == 0
        assert out.strip() == TABLE_PARSING

    def test_json_report(self, capsys, tmp_path):
        out_path = tmp_path / "parse.json"
        code, _, _ = run(capsys, "parse", "--text", TABLE_STRING, "--json", str(out_path))
        assert code == 0
        report = json.loads(out_path.read_text())
        assert report["rendered"] == TABLE_PARSING
        assert report["phrases"][0] == {"start": 0, "length": 1}
        assert report["last_capped"] is False

    def test_file_input(self, capsys, tmp_path):
        path = write(tmp_path, "seq.txt", " ".join(TABLE_STRING))
        code, out, _ = run(capsys, "parse", path)
        assert code == 0
        assert out.strip() == TABLE_PARSING


class TestEstimateCommand:
    def test_alternating_file(self, capsys, tmp_path):
        path = write(tmp_path, "alt.txt", " ".join(["L", "R"] * 500))
        out_json = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "estimate",
            path,
            "--method",
            "empirical",
            "--method",
            "swlz",
            "--json",
            str(out_json),
        )
        assert code == 0
        report = json.loads(out_json.read_text())
        values = {r["method"]: r["value_bits"] for r in report["estimates"]}
        assert values["direct_empirical"] == 0.0
        assert 0.0 < values["swlz"] < 0.1
        assert report["schema_version"] == 1
        assert report["input"]["kappa"] == 2

    def test_report_round_trips(self, capsys, tmp_path):
        path = write(tmp_path, "alt.txt", " ".join(["L", "R"] * 20))
        out_json = tmp_path / "report.json"
        run(capsys, "estimate", path, "--json", str(out_json))
        report = json.loads(out_json.read_text())
        assert json.loads(json.dumps(report)) == report

    def test_short_data_warning_surfaces(self, capsys, tmp_path):
        rng = np.random.default_rng(3)
        actions = ["a", "b", "c", "d", "e", "f", "g"]
        toks = []
        while len(toks) < 301:
            t = rng.choice(actions)
            if not toks or toks[-1] != t:
                toks.append(t)
        path = write(tmp_path, "behav.txt", " ".join(toks))
        out_json = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "estimate", path, "--collapse-repeats", "--order", "3",
            "--json", str(out_json),
        )
        assert code == 0
        report = json.loads(out_json.read_text())
        assert any("343" in w for w in report["estimates"][0]["warnings"])

    def test_bootstrap_attached_and_deterministic(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        path = write(tmp_path, "s.txt", " ".join(str(x) for x in rng.integers(0, 3, 300)))
        j1, j2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out_json in (j1, j2):
            code, _, _ = run(
                capsys, "estimate", path, "--replicates", "25", "--seed", "9",
                "--json", str(out_json),
            )
            assert code == 0
        assert j1.read_text() == j2.read_text()
        record = json.loads(j1.read_text())["estimates"][0]
        assert record["se"] is not None and record["se"] > 0
        assert record["p_used"] is not None
        assert record["replicates"] == 25

    def test_p_override(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        path = write(tmp_path, "s.txt", " ".join(str(x) for x in rng.integers(0, 3, 200)))
        out_json = tmp_path / "r.json"
        run(
            capsys, "estimate", path, "--replicates", "10", "--p", "0.5",
            "--json", str(out_json),
        )
        assert json.loads(out_json.read_text())["estimates"][0]["p_used"] == 0.5

    def test_csv_mirror(self, capsys, tmp_path):
        path = write(tmp_path, "alt.txt", " ".join(["L", "R"] * 20))
        out_csv = tmp_path / "report.csv"
        run(capsys, "estimate", path, "--csv", str(out_csv))
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "method,order,value_bits,se,p_used,replicates,warnings"
        assert lines[1].startswith("direct_empirical,1,0.0")

    def test_exclude_boundaries(self, capsys, tmp_path):
        p1 = write(tmp_path, "one.txt", "a b a b\n")
        p2 = write(tmp_path, "two.txt", "b b b a\n")
        ji, je = tmp_path / "inc.json", tmp_path / "exc.json"
        run(capsys, "estimate", p1, p2, "--json", str(ji))
        run(capsys, "estimate", p1, p2, "--exclude-boundaries", "--json", str(je))
        vi = json.loads(ji.read_text())["estimates"][0]["value_bits"]
        ve = json.loads(je.read_text())["estimates"][0]["value_bits"]
        assert vi != ve

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "estimate", str(tmp_path / "nope.txt"))
        assert code == 1
        assert json.loads(err)["error"]["type"] == "input"

    @pytest.mark.parametrize(
        "command, both",
        [("estimate", True), ("parse", True), ("estimate", False), ("parse", False)],
        ids=["estimate", "parse", "estimate-neither", "parse-neither"],
    )
    def test_files_with_text_is_input_error(self, capsys, tmp_path, command, both):
        # FILE(s) and --text together, or neither of them.
        path = write(tmp_path, "s.txt", "a b a b\n")
        code, out, err = run(capsys, command, *([path, "--text", "AAAB"] if both else []))
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "input"
        assert ("not both" if both else "no input") in error["message"]

    def test_reducible_eigen_is_numeric_error(self, capsys, tmp_path):
        path = write(tmp_path, "s.txt", " ".join(["0"] * 50 + ["1"]))
        code, _, err = run(capsys, "estimate", path, "--method", "eigen")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "numeric"

    def test_dense_limit_is_numeric_error(self, capsys, tmp_path):
        # 65 symbols at order 2: 4225 states, above the 4096-state dense limit
        # that eigen (and limit) need; the empirical estimate has no such limit.
        symbols = np.random.default_rng(3).integers(0, 65, 2000)
        path = write(tmp_path, "s.txt", " ".join(f"s{x}" for x in symbols))
        code, _, err = run(capsys, "estimate", path, "--method", "eigen", "--order", "2")
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "numeric"
        assert "4225 x 4225" in error["message"]
        assert "4096 states" in error["message"]
        code, out, _ = run(capsys, "estimate", path, "--method", "empirical", "--order", "2")
        assert code == 0 and "direct_empirical" in out

    def test_paper_zero_mode_rescues(self, capsys, tmp_path):
        path = write(tmp_path, "s.txt", " ".join(["0"] * 50 + ["1"]))
        out_json = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "estimate", path, "--method", "eigen", "--paper-zero-mode",
            "--json", str(out_json),
        )
        assert code == 0
        record = json.loads(out_json.read_text())["estimates"][0]
        assert record["value_bits"] == 0.0
        assert any("reducible" in w for w in record["warnings"])


    def test_paper_zero_mode_with_replicates(self, capsys, tmp_path):
        # The point estimate is 0 under zero mode; the bootstrap must use the
        # same estimator rather than recompute a failing one.
        out_json = tmp_path / "r.json"
        code, _, err = run(
            capsys, "estimate", "--text", "AAAAABABABAABBBBC", "--method", "eigen",
            "--paper-zero-mode", "--replicates", "20", "--json", str(out_json),
        )
        assert code == 0, err
        record = json.loads(out_json.read_text())["estimates"][0]
        assert record["value_bits"] == 0.0
        assert record["replicates"] == 20
        assert any("forced to 0" in w for w in record["warnings"])

    def test_exclude_boundaries_with_replicates(self, capsys, tmp_path):
        # The bootstrap resamples each file within itself, so its point is the
        # pooled estimate that --exclude-boundaries gives without replicates.
        p1 = write(tmp_path, "one.txt", "A B A B A A B\n")
        p2 = write(tmp_path, "two.txt", "C D C C D D C\n")
        records = []
        for extra in ([], ["--replicates", "200"]):
            out_json = tmp_path / f"r{len(records)}.json"
            code, _, err = run(
                capsys, "estimate", p1, p2, "--exclude-boundaries", *extra,
                "--json", str(out_json),
            )
            assert code == 0, err
            records.append(json.loads(out_json.read_text())["estimates"][0])
        plain, boot = records
        assert boot["value_bits"] == plain["value_bits"] == pytest.approx(0.7296, abs=1e-4)
        assert boot["se"] == pytest.approx(0.1513, abs=1e-4)
        assert "transitions across file boundaries excluded" in boot["warnings"]
        # So does the bootstrap command at order 2, the limit solve included.
        p3 = write(tmp_path, "three.txt", "A B B A A B A B B B A A B A A A B B A B\n")
        p4 = write(tmp_path, "four.txt", "B A A B B A B A A A B B A B B B A A B A\n")
        runs = []
        for command, extra in (("estimate", []), ("bootstrap", ["--replicates", "20"])):
            out_json = tmp_path / f"{command}.json"
            code, _, err = run(
                capsys, command, p3, p4, "--exclude-boundaries", "--method", "empirical",
                "--method", "limit", "--order", "2", *extra, "--json", str(out_json),
            )
            assert code == 0, err
            runs.append(json.loads(out_json.read_text())["estimates"])
        plain, boot = runs
        assert [r["value_bits"] for r in boot] == [r["value_bits"] for r in plain]
        assert [r["replicates"] for r in boot] == [20, 20]
        assert all("transitions across file boundaries excluded" in r["warnings"] for r in boot)

    def test_exclude_boundaries_warns_for_swlz(self, capsys, tmp_path):
        # swlz matches across the concatenated files whether or not the flag
        # is given; the record has to say so.
        p1 = write(tmp_path, "one.txt", "A B A B A A B\n")
        p2 = write(tmp_path, "two.txt", "C D C C D D C\n")
        ji, je = tmp_path / "inc.json", tmp_path / "exc.json"
        run(capsys, "estimate", p1, p2, "--method", "swlz", "--json", str(ji))
        code, out, _ = run(
            capsys, "estimate", p1, p2, "--method", "swlz", "--exclude-boundaries",
            "--json", str(je),
        )
        assert code == 0
        plain = json.loads(ji.read_text())["estimates"][0]
        record = json.loads(je.read_text())["estimates"][0]
        assert record["value_bits"] == plain["value_bits"] == pytest.approx(1.7677, abs=1e-4)
        assert not any("concatenated" in w for w in plain["warnings"])
        assert any("concatenated" in w for w in record["warnings"])
        assert "swlz: the files were concatenated" in out

    @pytest.mark.parametrize("source", ["text", "one-file", "two-files"])
    def test_exclude_boundaries_notes_only_several_sources(self, capsys, tmp_path, source):
        # One source has no boundary: the flag then changes nothing, and says nothing.
        p1 = write(tmp_path, "one.txt", "A B A B A A B\n")
        p2 = write(tmp_path, "two.txt", "C D C C D D C\n")
        inputs = {"text": ["--text", "A B A B A A B"], "one-file": [p1], "two-files": [p1, p2]}
        records = []
        for flag in ([], ["--exclude-boundaries"]):
            out_json = tmp_path / f"r{len(records)}.json"
            code, _, err = run(
                capsys, "estimate", *inputs[source], "--method", "empirical", "--method", "swlz",
                *flag, "--json", str(out_json),
            )
            assert code == 0, err
            records.append(json.loads(out_json.read_text())["estimates"])
        plain, excluded = records
        if source != "two-files":
            assert excluded == plain
            return
        empirical, swlz = excluded
        assert empirical["warnings"] == plain[0]["warnings"] + [
            "transitions across file boundaries excluded"
        ]
        assert swlz == plain[1] | {
            "warnings": plain[1]["warnings"]
            + ["--exclude-boundaries does not apply to swlz: the files were concatenated"]
        }

    @pytest.mark.parametrize("count", ["1", "0", "-3"])
    def test_fewer_than_two_replicates_is_input_error(self, capsys, tmp_path, count):
        path = write(tmp_path, "s.txt", "a b a b a a b\n")
        code, _, err = run(capsys, "estimate", path, "--replicates", count)
        assert code == 1
        error = json.loads(err)["error"]
        assert error["type"] == "input"
        assert "--replicates" in error["message"]

    @pytest.mark.parametrize("order", ["0", "-1"])
    def test_order_below_one_is_input_error(self, capsys, tmp_path, order):
        path = write(tmp_path, "s.txt", "a b a b a a b\n")
        code, out, err = run(capsys, "estimate", path, "--order", order)
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "input"
        assert "--order" in error["message"] and ">= 1" in error["message"]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["estimate", "--method", "swlz", "--order", "3"], "--order"),
            (["estimate", "--method", "swlz", "--order", "1"], "--order"),
            (["bootstrap", "--method", "swlz", "--order", "2", "--replicates", "3"], "--order"),
            (["estimate", "--method", "empirical", "--paper-zero-mode"], "--paper-zero-mode"),
            (["estimate", "--paper-zero-mode"], "--paper-zero-mode"),
            (["estimate", "--method", "swlz", "--method", "empirical", "--paper-zero-mode"],
             "--paper-zero-mode"),
        ],
        ids=["swlz-order", "swlz-order-1", "bootstrap-swlz-order", "empirical-zero-mode",
             "default-zero-mode", "swlz-empirical-zero-mode"],
    )
    def test_option_no_listed_method_uses_is_input_error(self, capsys, argv, flag):
        code, out, err = run(capsys, *argv, "--text", "A B A B A A B B A")
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "input"
        assert flag in error["message"]

    @pytest.mark.parametrize("p", ["1.5", "0", "nan"])
    def test_p_outside_unit_interval_is_input_error(self, capsys, tmp_path, p):
        path = write(tmp_path, "s.txt", "a b a b a a b\n")
        code, out, err = run(capsys, "bootstrap", path, "--replicates", "3", "--p", p)
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "input"
        assert "--p" in error["message"] and "(0, 1]" in error["message"]

    def test_repeated_alphabet_token_is_input_error(self, capsys, tmp_path):
        path = write(tmp_path, "s.txt", "a b a b a a b\n")
        alphabet = write(tmp_path, "alphabet.txt", "a b c\nb\n")
        code, out, err = run(capsys, "estimate", path, "--alphabet", alphabet)
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "input"
        assert alphabet in error["message"] and "repeats token(s): b" in error["message"]

    def test_alphabet_file_follows_format(self, capsys, tmp_path):
        # Under --format lines a declared token may contain spaces.
        path = write(tmp_path, "s.txt", "eat food\nsleep\neat food\neat food\nsleep\n")
        alphabet = write(tmp_path, "al.txt", "eat food\nsleep\nnap time\n")
        out_json = tmp_path / "r.json"
        code, _, err = run(
            capsys, "estimate", path, "--format", "lines", "--alphabet", alphabet,
            "--json", str(out_json),
        )
        assert code == 0, err
        report = json.loads(out_json.read_text())
        assert report["input"]["alphabet"] == ["eat food", "sleep", "nap time"]

    def test_p_without_replicates_is_input_error(self, capsys, tmp_path):
        path = write(tmp_path, "s.txt", "a b a b a a b\n")
        code, out, err = run(capsys, "estimate", path, "--p", "0.5")
        assert code == 1
        assert out == ""
        message = json.loads(err)["error"]["message"]
        assert "--p" in message and "--replicates" in message

    @pytest.mark.parametrize("command", ["estimate", "bootstrap"])
    def test_duplicate_method_is_input_error(self, capsys, command):
        code, out, err = run(
            capsys, command, "--text", "A B A B A A B", "--method", "swlz",
            "--method", "empirical", "--method", "swlz", "--replicates", "2",
        )
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error == {"type": "input", "message": "--method: swlz listed twice"}

    def test_seed_without_replicates_is_input_error(self, capsys):
        code, out, err = run(capsys, "estimate", "--text", "A B A B A A B", "--seed", "5")
        assert code == 1
        assert out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "input"
        assert "--seed" in error["message"] and "--replicates" in error["message"]

    def test_bootstrap_seed_defaults_to_zero(self, capsys, tmp_path):
        path = write(tmp_path, "s.txt", "a b a b a a b b a b a a a b\n")
        reports = []
        for seed_args in ([], ["--seed", "0"]):
            out_json = tmp_path / f"r{len(reports)}.json"
            code, _, _ = run(
                capsys, "estimate", path, "--replicates", "10", *seed_args,
                "--json", str(out_json),
            )
            assert code == 0
            reports.append(out_json.read_text())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["seed"] == 0


class TestBootstrapCommand:
    def test_one_point_estimate_per_method(self, capsys, tmp_path, monkeypatch):
        import entrate.bootstrap
        import entrate.cli

        calls = []
        for module in (entrate.cli, entrate.bootstrap):
            real = module.run_estimator

            def counted(*args, _real=real, **kwargs):
                calls.append(args[1].method)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "run_estimator", counted)
        path = write(tmp_path, "s.txt", " ".join("abcab" * 20))
        code, _, _ = run(
            capsys, "bootstrap", path, "--method", "empirical", "--method", "swlz",
            "--replicates", "6",
        )
        assert code == 0
        assert calls.count("empirical") == calls.count("swlz") == 1 + 6

    def test_requires_replicates(self, capsys, tmp_path):
        path = write(tmp_path, "s.txt", "a b a b\n")
        code, _, err = run(capsys, "bootstrap", path)
        assert code == 1
        assert "replicates" in json.loads(err)["error"]["message"]

    def test_constant_sequence_zero_se(self, capsys, tmp_path):
        path = write(tmp_path, "s.txt", "a a a a a a\n")
        out_json = tmp_path / "r.json"
        code, _, _ = run(
            capsys, "bootstrap", path, "--replicates", "10", "--json", str(out_json)
        )
        assert code == 0
        record = json.loads(out_json.read_text())["estimates"][0]
        assert record["se"] == 0.0

    def test_unconverged_cesaro_note_in_report(self, capsys, tmp_path):
        from entrate import benchmark_matrix, simulate_chain

        seq = simulate_chain(benchmark_matrix("medium"), 10_000, rng=5)
        path = write(tmp_path, "medium.txt", " ".join(seq.tokens()))
        out_json = tmp_path / "r.json"
        code, out, _ = run(
            capsys, "bootstrap", path, "--method", "limit", "--order", "2",
            "--replicates", "3", "--json", str(out_json),
        )
        assert code == 0
        record = json.loads(out_json.read_text())["estimates"][0]
        notes = [w for w in record["warnings"] if "not converged after 100000 steps" in w]
        assert len(notes) == 1 and "drift" in notes[0]
        assert notes[0] in out

    def test_all_replicates_failing_is_numeric_error(self, capsys):
        code, out, err = run(
            capsys, "bootstrap", "--text", "AABBABAA", "--method", "limit", "--order", "2",
            "--replicates", "10", "--seed", "1", "--p", "0.5",
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "numeric"
        assert error["message"] == "10 of 10 bootstrap replicates failed; an SE needs 2"

    @pytest.mark.parametrize(
        "zero_mode, se, notes",
        [
            ([], 0.0576287, ["5 bootstrap replicate(s) failed and were left out of the SE"]),
            (["--paper-zero-mode"], 0.0715009, []),
        ],
        ids=["failures-left-out", "zero-mode-zeros"],
    )
    def test_failed_replicates_leave_the_se(self, capsys, tmp_path, zero_mode, se, notes):
        # 5 of the 40 resamples of a rare symbol never leave state 0.  They
        # fail and leave the SE, or under zero mode estimate 0 and stay in it.
        path = write(tmp_path, "rare.txt", " ".join("A" * 60 + "B" + "A" * 60 + "BA"))
        out_json = tmp_path / "r.json"
        code, _, err = run(
            capsys, "bootstrap", path, "--method", "eigen", "--replicates", "40",
            "--seed", "21", "--p", "0.9", *zero_mode, "--json", str(out_json),
        )
        assert code == 0, err
        record = json.loads(out_json.read_text())["estimates"][0]
        assert record["se"] == pytest.approx(se, abs=1e-7)
        assert record["replicates"] == 40
        assert record["warnings"] == notes


class TestSimulateCommand:
    def test_benchmark_deterministic(self, capsys):
        code1, out1, _ = run(capsys, "simulate", "--benchmark", "low", "--length", "25", "--seed", "4")
        code2, out2, _ = run(capsys, "simulate", "--benchmark", "low", "--length", "25", "--seed", "4")
        assert code1 == code2 == 0
        assert out1 == out2
        assert len(out1.split()) == 25

    def test_second_order_generator(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--second-order", "0.1,0.933,0.85,0.2",
            "--length", "30", "--seed", "2",
        )
        assert code == 0
        assert set(out.split()) <= {"A", "B"}

    def test_matrix_file(self, capsys, tmp_path):
        path = write(tmp_path, "m.txt", "0 1\n1 0\n")
        code, out, _ = run(
            capsys, "simulate", "--matrix", path, "--length", "6", "--seed", "0", "--init", "0"
        )
        assert code == 0
        assert out.split() == ["0", "1", "0", "1", "0", "1"]

    def test_out_file(self, capsys, tmp_path):
        dest = tmp_path / "seq.txt"
        code, _, _ = run(
            capsys, "simulate", "--benchmark", "high", "--length", "10",
            "--seed", "1", "--out", str(dest),
        )
        assert code == 0
        assert len(dest.read_text().split()) == 10

    def test_generator_required(self, capsys):
        code, _, err = run(capsys, "simulate", "--length", "5")
        assert code == 1
        assert "generator" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize(
        "flags",
        [
            ["--benchmark", "low", "--length", "10", "--init", "99"],
            ["--benchmark", "low", "--length", "0"],
            ["--benchmark", "low", "--length", "10", "--kappa", "1"],
            ["--second-order", "0.5,0.5,0.5,2", "--length", "10"],
            ["--benchmark", "medium", "--length", "10", "--kappa", "4"],
            ["--benchmark", "high", "--length", "10", "--kappa", "0"],
            ["--second-order", "0.1,0.2", "--length", "10"],
            ["--benchmark", "high", "--length", "10", "--diag", "0.5"],
            ["--benchmark", "medium", "--length", "10", "--diag", "0.95"],
            ["--second-order", "0.2,0.3,0.4,0.5", "--length", "10", "--kappa", "2"],
            ["--second-order", "0.2,0.3,0.4,0.5", "--length", "10", "--diag", "0.5"],
        ],
        ids=[
            "init", "length", "kappa", "second-order", "medium-kappa", "high-kappa",
            "second-order-arity", "high-diag", "medium-diag", "second-order-kappa",
            "second-order-diag",
        ],
    )
    def test_out_of_range_flag_is_input_error(self, capsys, flags):
        code, _, err = run(capsys, "simulate", *flags)
        assert code == 1
        assert json.loads(err)["error"]["type"] == "input"

    @pytest.mark.parametrize(
        "text",
        [
            "[[0.5, 0.5],",
            "0.5 x\n0.5 0.5\n",
            "nan 1\n0.5 0.5\n",
            '[[{"a": 1}, 1], [0.5, 0.5]]',
            '[["0.5", "0.5"], [0.5, 0.5]]',
        ],
        ids=["json", "rows", "nan", "object", "string"],
    )
    def test_malformed_matrix_file_is_input_error(self, capsys, tmp_path, text):
        path = write(tmp_path, "m.txt", text)
        code, out, err = run(capsys, "simulate", "--matrix", path, "--length", "5", "--init", "0")
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "input"
        assert error["message"].startswith(path)

    @pytest.mark.parametrize(
        "flags", [["--kappa", "3"], ["--diag", "0.1"], ["--kappa", "3", "--diag", "0.1"]]
    )
    def test_benchmark_shape_with_matrix_is_input_error(self, capsys, tmp_path, flags):
        path = write(tmp_path, "m.txt", "0.5 0.5\n0.5 0.5\n")
        code, out, err = run(capsys, "simulate", "--matrix", path, "--length", "5", *flags)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error == {"type": "input", "message": "--kappa and --diag apply to --benchmark only"}

    def test_medium_accepts_its_eight_states(self, capsys):
        outs = [
            run(capsys, "simulate", "--benchmark", "medium", "--length", "20", *extra)
            for extra in ([], ["--kappa", "8"])
        ]
        assert outs[0][0] == 0 and outs[0] == outs[1]

    def test_init_with_second_order_is_input_error(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--second-order", "0.2,0.3,0.4,0.5",
            "--length", "8", "--init", "0", "--seed", "3",
        )
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "input"
        assert "--init" in error["message"]

    def test_benchmark_above_dense_limit_is_numeric_error(self, capsys):
        # Refused before the 100000 x 100000 matrix is allocated.
        code, out, err = run(
            capsys, "simulate", "--benchmark", "high", "--kappa", "100000", "--length", "5"
        )
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "numeric"
        assert "high benchmark generator over 100000 states" in error["message"]

    def test_reducible_matrix_is_numeric_error(self, capsys, tmp_path):
        # No stationary distribution to start from: a numeric failure.
        path = write(tmp_path, "m.txt", "1 0\n0 1\n")
        code, _, err = run(capsys, "simulate", "--matrix", path, "--length", "5")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "numeric"


class TestExperimentCommand:
    @staticmethod
    def plan_dict():
        return {
            "generator": {"matrix": [[0.2, 0.8], [0.7, 0.3]]},
            "lengths": [20, 40],
            "replicates": 3,
            "estimators": [{"method": "empirical", "order": 1}, {"method": "swlz"}],
            "seed": 12,
        }

    def test_report_written_and_deterministic(self, capsys, tmp_path):
        plan_path = write(tmp_path, "plan.json", json.dumps(self.plan_dict()))
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            code, stdout, _ = run(capsys, "experiment", plan_path, "--json", str(out))
            assert code == 0
            assert "length" in stdout
        assert out1.read_text() == out2.read_text()
        report = json.loads(out1.read_text())
        assert len(report["cells"]) == 4
        assert report["plan"] == self.plan_dict()

    def test_default_report_path(self, capsys, tmp_path):
        plan_path = write(tmp_path, "plan.json", json.dumps(self.plan_dict()))
        code, _, _ = run(capsys, "experiment", plan_path)
        assert code == 0
        assert (tmp_path / "plan.report.json").exists()

    def test_single_replicate_collapses_stats(self, capsys, tmp_path):
        plan = self.plan_dict()
        plan["replicates"] = 1
        plan_path = write(tmp_path, "plan.json", json.dumps(plan))
        out = tmp_path / "r.json"
        run(capsys, "experiment", plan_path, "--json", str(out))
        for cell in json.loads(out.read_text())["cells"]:
            assert cell["min"] == cell["mean"] == cell["max"]

    def test_decreasing_lengths_rejected(self, capsys, tmp_path):
        plan = self.plan_dict()
        plan["lengths"] = [40, 20]
        plan_path = write(tmp_path, "plan.json", json.dumps(plan))
        code, _, err = run(capsys, "experiment", plan_path)
        assert code == 1
        assert "lengths" in json.loads(err)["error"]["message"]

    def test_duplicate_estimator_rejected(self, capsys, tmp_path):
        # Two identical entries would share one value list and each report
        # twice the replicates.
        plan = self.plan_dict()
        plan["estimators"].append({"method": "empirical", "order": 1})
        plan_path = write(tmp_path, "plan.json", json.dumps(plan))
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "experiment", plan_path, "--json", str(out))
        assert code == 1
        error = json.loads(err)["error"]
        assert error["type"] == "input"
        assert "direct_empirical(m=1)" in error["message"]
        assert not out.exists()

    def test_malformed_json_has_position(self, capsys, tmp_path):
        plan_path = write(tmp_path, "plan.json", "{ nope")
        code, _, err = run(capsys, "experiment", plan_path)
        assert code == 1
        assert "invalid JSON" in json.loads(err)["error"]["message"]

    def test_benchmark_generator_in_plan(self, capsys, tmp_path):
        plan = self.plan_dict()
        plan["generator"] = {"benchmark": "high"}
        plan["lengths"] = [30]
        plan_path = write(tmp_path, "plan.json", json.dumps(plan))
        out = tmp_path / "r.json"
        code, _, _ = run(capsys, "experiment", plan_path, "--json", str(out))
        assert code == 0

    @pytest.mark.parametrize(
        "edit, field",
        [
            ({"generator": {"benchmark": "low", "kappa": 1}}, "generator"),
            ({"generator": {"benchmark": "low", "diag": 2.0}}, "generator"),
            ({"generator": {"benchmark": "high", "kappa": 0}}, "generator"),
            ({"generator": {"benchmark": "low", "kappa": "x"}}, "generator.kappa"),
            ({"generator": {"benchmark": "low", "kappa": None}}, "generator.kappa"),
            ({"generator": {"benchmark": "low", "diag": True}}, "generator.diag"),
            ({"estimators": [{"method": "empirical", "order": "2"}]}, "estimators[0].order"),
            ({"estimators": [{"method": "empirical", "order": True}]}, "estimators[0].order"),
            ({"paper_zero_mode": "no"}, "paper_zero_mode"),
            ({"generator": {"matrix": [[None, 1], [0.5, 0.5]]}}, "generator.matrix"),
            ({"generator": {"matrix": [[{}, 1], [0.5, 0.5]]}}, "generator.matrix"),
            ({"generator": {"matrix": [["0.5", 0.5], [0.5, 0.5]]}}, "generator.matrix"),
            ({"generator": {"matrix": [[True, 0], [0.5, 0.5]]}}, "generator.matrix"),
            (
                {"generator": {"second_order": {"a": None, "b": 0.5, "c": 0.5, "d": 0.5}}},
                "generator.second_order.a",
            ),
            (
                {"generator": {"second_order": {"a": True, "b": 0.5, "c": 0.5, "d": 0.5}}},
                "generator.second_order.a",
            ),
            (
                {"generator": {"second_order": {"p": 0.4, "q": 0.75, "phi": "0.1", "gamma": 0}}},
                "generator.second_order.phi",
            ),
            ({"generator": {"benchmark": "nope"}}, "generator.benchmark"),
            ({"generator": {"second_order": [0.5, 0.5, 0.5, 0.5]}}, "generator.second_order"),
            ({"generator": {"second_order": {"a": 0.5, "q": 0.5}}}, "generator.second_order"),
            (
                {"generator": {"second_order": {"a": 0.5, "b": 0.5, "c": 0.5, "d": 1.5}}},
                "generator.second_order",
            ),
            ({"generator": {"chain": [[0.5, 0.5], [0.5, 0.5]]}}, "generator"),
            ({"lengths": [20, 40.5]}, "lengths"),
            ({"estimators": [{"order": 1}]}, "estimators[0]"),
            ({"estimators": [{"method": "bogus"}]}, "estimators[0]"),
            ({"seed": -1}, "seed"),
            ({"paper_zero_mod": True}, "paper_zero_mod"),
            ({"generator": {"benchmark": "high", "kapa": 4}}, "generator.kapa"),
            ({"generator": {"matrix": [[0.5, 0.5], [0.5, 0.5]], "kappa": 2}}, "generator.kappa"),
            (
                {"generator": {"second_order": dict.fromkeys("abcdp", 0.5)}},
                "generator.second_order.p",
            ),
            ({"estimators": [{"method": "eigen", "ordr": 2}]}, "estimators[0].ordr"),
            ({"generator": {"benchmark": "high", "matrix": [[1.0]]}}, "generator"),
            ({"generator": {"benchmark": "high", "diag": 0.5}}, "generator"),
            ({"generator": {"matrix": [0.5, 0.5]}}, "generator.matrix"),
            ({"estimators": [1]}, "estimators[0]"),
            ([], None),
        ],
        ids=[
            "kappa-range", "diag-range", "high-kappa-range", "kappa-str", "kappa-null",
            "diag-bool", "order-str", "order-bool", "zero-mode-str", "matrix-null", "matrix-object", "matrix-str",
            "matrix-bool", "second-order-null",
            "second-order-bool", "reparam-str", "benchmark-name", "second-order-list",
            "second-order-keys", "second-order-range", "generator-kind", "lengths-float",
            "estimator-no-method", "estimator-method", "seed-negative",
            "unknown-top", "unknown-benchmark-key", "kappa-with-matrix", "unknown-second-order-key",
            "unknown-estimator-key", "two-generator-kinds", "diag-with-high",
            "matrix-not-rows", "estimator-not-object", "plan-not-object",
        ],
    )
    def test_bad_plan_field_is_input_error(self, capsys, tmp_path, edit, field):
        # An edit that is no dict is the whole plan, and no field is to blame.
        plan = self.plan_dict() | edit if isinstance(edit, dict) else edit
        plan_path = write(tmp_path, "plan.json", json.dumps(plan))
        code, out, err = run(capsys, "experiment", plan_path)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "input"
        prefix = f"plan field '{field}'" if field else "plan must be a JSON object"
        assert error["message"].startswith(prefix)
        assert not (tmp_path / "plan.report.json").exists()

    @settings(deadline=None, max_examples=60)
    @given(
        st.sampled_from(["", "generator", "estimators[0]", "estimators[1]"]),
        st.text(min_size=1, max_size=12),
        st.sampled_from([True, 0, 2.5, "x", None, [], {}]),
    )
    def test_unknown_key_in_any_plan_object_is_refused(self, where, key, value):
        plan = self.plan_dict()
        obj = {
            "": plan, "generator": plan["generator"],
            "estimators[0]": plan["estimators"][0], "estimators[1]": plan["estimators"][1],
        }[where]
        # A key the object's table knows is no unknown key: the optional flag,
        # a second generator kind, an order for swlz.
        known = {"": {"paper_zero_mode"}, "generator": {"benchmark", "second_order"}}
        assume(key not in obj and key not in known.get(where, {"order"}))
        obj[key] = value
        path = f"{where}.{key}" if where else key
        with tempfile.TemporaryDirectory() as tmp:
            plan_path = write(Path(tmp), "plan.json", json.dumps(plan))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["experiment", plan_path])
            assert code == 1 and out.getvalue() == ""
            error = json.loads(err.getvalue())["error"]
            assert error["type"] == "input"
            assert error["message"].startswith(f"plan field '{path}': unknown key")
            assert not (Path(tmp) / "plan.report.json").exists()

    def test_second_order_abcd_form(self, capsys, tmp_path):
        # The a,b,c,d form of the shipped p,q,phi,gamma plan names the same
        # chain, so it reports the same cells.
        shipped = json.loads((PLANS / "second-order-case1.json").read_text(encoding="utf-8"))
        shipped["replicates"] = 20
        abcd = reparam_to_abcd(ReparamPoint(**shipped["generator"]["second_order"]))
        as_abcd = {"a": abcd.a, "b": abcd.b, "c": abcd.c, "d": abcd.d}
        plans = [shipped, shipped | {"generator": {"second_order": as_abcd}}]
        cells = []
        for k, plan in enumerate(plans):
            plan_path = write(tmp_path, f"plan{k}.json", json.dumps(plan))
            out = tmp_path / f"r{k}.json"
            code, _, err = run(capsys, "experiment", plan_path, "--json", str(out))
            assert code == 0, err
            cells.append(json.loads(out.read_text())["cells"])
        assert cells[0] == cells[1]

    def test_state_space_failure_costs_only_its_cells(self, capsys, tmp_path):
        # Order-5 eigen needs 8**5 = 32768 dense states, above the 4096 limit:
        # every replicate of its cell fails, and the empirical cell is filled.
        plan = {
            "generator": {"benchmark": "high", "kappa": 8},
            "lengths": [3000],
            "replicates": 3,
            "estimators": [{"method": "empirical", "order": 1}, {"method": "eigen", "order": 5}],
            "seed": 1,
        }
        plan_path = write(tmp_path, "plan.json", json.dumps(plan))
        out = tmp_path / "r.json"
        code, _, err = run(capsys, "experiment", plan_path, "--json", str(out))
        assert code == 0, err
        empirical, eigen = json.loads(out.read_text())["cells"]
        assert (empirical["n_ok"], empirical["n_failed"]) == (3, 0)
        assert empirical["mean"] > 2.0
        assert (eigen["n_ok"], eigen["n_failed"]) == (0, 3)
        assert eigen["mean"] is None

    @pytest.mark.parametrize("path", sorted(PLANS.glob("*.json")), ids=lambda p: p.stem)
    def test_shipped_plan_loads(self, path):
        plan, plan_dict = _load_plan(str(path))
        assert plan_dict == json.loads(path.read_text(encoding="utf-8"))
        assert len(plan.estimators) == len(plan_dict["estimators"])
        assert plan.lengths == tuple(plan_dict["lengths"])

    def test_csv_mirror(self, capsys, tmp_path):
        plan_path = write(tmp_path, "plan.json", json.dumps(self.plan_dict()))
        out_csv = tmp_path / "r.csv"
        run(capsys, "experiment", plan_path, "--csv", str(out_csv))
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "length,method,order,n_ok,n_failed,min,mean,max,sd"
        assert len(lines) == 5


class TestTtestCommand:
    def test_published_values(self, capsys, tmp_path):
        a = write(tmp_path, "a.txt", "1.5483 1.5107 1.5727 1.6571 1.7552 1.7864\n")
        b = write(tmp_path, "b.txt", "1.6956 1.6285 1.6797 1.6807 1.7916 1.8526\n")
        out_json = tmp_path / "t.json"
        code, out, _ = run(capsys, "ttest", a, b, "--json", str(out_json))
        assert code == 0
        report = json.loads(out_json.read_text())
        assert report["t_statistic"] == pytest.approx(-1.4425, abs=1e-3)
        assert report["df"] == 10
        assert "t = -1.44" in out

    def test_degenerate_is_numeric_error(self, capsys, tmp_path):
        a = write(tmp_path, "a.txt", "1 1 1\n")
        b = write(tmp_path, "b.txt", "1 1\n")
        code, _, err = run(capsys, "ttest", a, b)
        assert code == 2
        assert json.loads(err)["error"]["type"] == "numeric"

    def test_single_value_group_is_numeric_error(self, capsys, tmp_path):
        a = write(tmp_path, "a.txt", "1\n")
        b = write(tmp_path, "b.txt", "1 2\n")
        code, _, err = run(capsys, "ttest", a, b)
        assert code == 2
        error = json.loads(err)["error"]
        assert error["type"] == "numeric" and "at least 2 values" in error["message"]

    def test_non_numeric_is_input_error(self, capsys, tmp_path):
        a = write(tmp_path, "a.txt", "1 x\n")
        b = write(tmp_path, "b.txt", "1 2\n")
        code, _, _ = run(capsys, "ttest", a, b)
        assert code == 1

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_is_input_error(self, capsys, tmp_path, value):
        a = write(tmp_path, "a.txt", "1 2 3\n")
        b = write(tmp_path, "b.txt", f"1 {value} 2\n")
        out_json = tmp_path / "t.json"
        code, out, err = run(capsys, "ttest", a, b, "--json", str(out_json))
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "input"
        assert error["message"].startswith(b) and value in error["message"]
        assert not out_json.exists()


class TestCsvMirror:
    """Each command's CSV report holds its JSON rows: same keys, same values."""

    BASE_KEYS = ("schema_version", "tool_version", "command", "seed")

    @staticmethod
    def cell(value):
        if value is None:
            return ""
        return "; ".join(value) if isinstance(value, list) else str(value)

    @pytest.mark.parametrize(
        "argv, rows_key",
        [
            (["estimate", "{seq}", "--order", "3", "--method", "empirical",
              "--method", "eigen", "--method", "swlz", "--paper-zero-mode"], "estimates"),
            (["bootstrap", "{seq}", "--method", "empirical", "--method", "swlz",
              "--replicates", "5", "--seed", "3"], "estimates"),
            (["parse", "{seq}"], "phrases"),
            (["experiment", "{plan}"], "cells"),
            (["ttest", "{a}", "{b}"], None),
        ],
        ids=["estimate", "bootstrap", "parse", "experiment", "ttest"],
    )
    def test_csv_mirrors_json(self, capsys, tmp_path, argv, rows_key):
        paths = {
            "seq": write(tmp_path, "seq.txt", " ".join(TABLE_STRING)),
            "plan": write(tmp_path, "plan.json", json.dumps(TestExperimentCommand.plan_dict())),
            "a": write(tmp_path, "a.txt", "1.5483 1.5107 1.5727 1.6571\n"),
            "b": write(tmp_path, "b.txt", "1.6956 1.6285 1.6797\n"),
        }
        out_json, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
        argv = [arg.format(**paths) for arg in argv]
        code, _, _ = run(capsys, *argv, "--json", str(out_json), "--csv", str(out_csv))
        assert code == 0
        report = json.loads(out_json.read_text())
        if rows_key is None:
            rows = [{k: v for k, v in report.items() if k not in self.BASE_KEYS}]
        else:
            rows = report[rows_key]
        with open(out_csv, newline="", encoding="utf-8") as fh:
            header, *body = list(csv.reader(fh))
        assert all(list(row) == header for row in rows)
        assert body == [[self.cell(v) for v in row.values()] for row in rows]

    def test_csv_rows_end_in_crlf(self, capsys, tmp_path):
        out_csv = tmp_path / "r.csv"
        code, _, _ = run(capsys, "parse", "--text", TABLE_STRING, "--csv", str(out_csv))
        assert code == 0
        assert out_csv.read_bytes() == (
            b"start,length\r\n0,1\r\n1,1\r\n2,3\r\n5,1\r\n6,3\r\n9,3\r\n12,5\r\n17,3\r\n"
        )


class TestPathErrors:
    """A path the user names that cannot be read as UTF-8, or cannot be
    written, is an input error whose message names it."""

    @pytest.mark.parametrize(
        "argv, culprit",
        [
            (["estimate", "{bad}"], "bad"),
            (["parse", "{bad}"], "bad"),
            (["estimate", "--text", "AB", "--alphabet", "{bad}"], "bad"),
            (["experiment", "{bad}"], "bad"),
            (["ttest", "{bad}", "{ok}"], "bad"),
            (["simulate", "--matrix", "{bad}", "--length", "5"], "bad"),
            (["estimate", "{ok}", "--json", "{missing}"], "missing"),
            (["estimate", "{ok}", "--csv", "{missing}"], "missing"),
            (["estimate", "{ok}", "--json", "{dir}"], "dir"),
            (["simulate", "--benchmark", "low", "--length", "5", "--out", "{missing}"], "missing"),
            (["estimate", "{ok}", "--json", "{loop}"], "loop"),
        ],
        ids=[
            "estimate", "parse", "alphabet", "experiment", "ttest", "matrix",
            "json-missing-dir", "csv-missing-dir", "json-is-dir", "simulate-out",
            "json-symlink-loop",
        ],
    )
    def test_is_input_error_naming_the_path(self, capsys, tmp_path, argv, culprit):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"1 0 \xff\xfe 1\n")
        paths = {
            "bad": str(bad),
            "ok": write(tmp_path, "ok.txt", "1 2 1 2 2 1\n"),
            "missing": str(tmp_path / "missing" / "out.txt"),
            "dir": str(tmp_path),
            "loop": str(tmp_path / "loop"),
        }
        (tmp_path / "loop").symlink_to(tmp_path / "loop")
        code, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
        assert code == 1 and out == ""
        [line] = err.splitlines()
        report = json.loads(line)
        assert list(report) == ["error"] and list(report["error"]) == ["type", "message"]
        assert report["error"]["type"] == "input"
        assert paths[culprit] in report["error"]["message"]

    @pytest.mark.parametrize(
        "argv",
        [["estimate", "{ok}"], ["bootstrap", "{ok}", "--replicates", "2"], ["parse", "{ok}"],
         ["ttest", "{ok}", "{ok}"]],
        ids=lambda argv: argv[0],
    )
    def test_no_report_unless_both_can_be_written(self, capsys, tmp_path, argv):
        ok = write(tmp_path, "ok.txt", "1 2 1 2 2 1\n")
        part, missing = tmp_path / "part.json", str(tmp_path / "missing" / "x.csv")
        argv = [arg.format(ok=ok) for arg in argv]
        code, out, err = run(capsys, *argv, "--json", str(part), "--csv", missing)
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["message"].startswith(f"cannot write {missing}: ")
        assert not part.exists()

    @pytest.mark.parametrize(
        "flags, culprit",
        [
            (["--json", "{missing}"], "missing"),
            (["--json", "{out}", "--csv", "{missing}"], "missing"),
            ([], "default"),
        ],
        ids=["json", "csv", "default-report"],
    )
    def test_experiment_checks_report_paths_before_it_runs(
        self, capsys, tmp_path, monkeypatch, flags, culprit
    ):
        def run_experiment(plan):
            pytest.fail("the plan ran before its report paths were checked")

        monkeypatch.setattr("entrate.cli.run_experiment", run_experiment)
        plan = write(tmp_path, "plan.json", json.dumps(TestExperimentCommand.plan_dict()))
        paths = {
            "missing": str(tmp_path / "missing" / "r.json"),
            "out": str(tmp_path / "r.json"),
            "default": tmp_path / "plan.report.json",
        }
        paths["default"].mkdir()  # the default report path is taken by a directory
        code, out, err = run(capsys, "experiment", plan, *[f.format(**paths) for f in flags])
        assert code == 1 and out == ""
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "input"
        assert error["message"].startswith(f"cannot write {paths[culprit]}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json", "plan.report.json"]


    @pytest.mark.parametrize(
        "argv, culprit",
        [
            (["estimate", "{seq}", "--json", "{seq}"], "seq"),
            (["estimate", "{seq}", "--csv", "{seq_respelt}"], "seq_respelt"),
            (["estimate", "{seq}", "--json", "{seq_link}"], "seq_link"),
            (["estimate", "{seq}", "--json", "{seq_hard}"], "seq_hard"),
            (["bootstrap", "{seq}", "--replicates", "2", "--csv", "{seq}"], "seq"),
            (["estimate", "{seq}", "--alphabet", "{alphabet}", "--json", "{alphabet}"], "alphabet"),
            (["parse", "{seq}", "--json", "{seq}"], "seq"),
            (["estimate", "{seq}", "--json", "{report}", "--csv", "{report}"], "report"),
            (["experiment", "{plan}", "--json", "{plan}"], "plan"),
            (["experiment", "{plan}", "--csv", "{plan}"], "plan"),
            (["ttest", "{seq}", "{group}", "--json", "{group}"], "group"),
            (["simulate", "--matrix", "{matrix}", "--length", "5", "--out", "{matrix}"], "matrix"),
        ],
        ids=[
            "estimate-json", "estimate-respelt", "estimate-symlink", "hard-link", "bootstrap-csv",
            "alphabet", "parse", "json-is-csv", "experiment-json", "experiment-csv", "ttest",
            "simulate-out",
        ],
    )
    def test_report_path_that_is_an_input_is_refused(self, capsys, tmp_path, argv, culprit):
        (tmp_path / "sub").mkdir()
        paths = {
            "seq": write(tmp_path, "s.txt", "1 2 1 2 2 1\n"),
            "alphabet": write(tmp_path, "a.txt", "1 2\n"),
            "plan": write(tmp_path, "p.json", json.dumps(TestExperimentCommand.plan_dict())),
            "group": write(tmp_path, "g.txt", "3 4 5 3\n"),
            "matrix": write(tmp_path, "m.txt", "0.5 0.5\n0.5 0.5\n"),
            "seq_respelt": str(tmp_path / "sub" / ".." / "s.txt"),
            "seq_link": str(tmp_path / "link.txt"),
            "seq_hard": str(tmp_path / "h.txt"),
            "report": str(tmp_path / "r.out"),
        }
        (tmp_path / "link.txt").symlink_to(tmp_path / "s.txt")
        os.link(tmp_path / "s.txt", tmp_path / "h.txt")
        before = {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}
        code, out, err = run(capsys, *[arg.format(**paths) for arg in argv])
        assert code == 1 and out == ""
        [line] = err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "input"
        assert error["message"].startswith(f"cannot write {paths[culprit]}: it is ")
        assert {p: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()} == before

    def test_symlink_loop_is_refused_before_the_estimates(self, capsys, tmp_path, monkeypatch):
        def bootstrap_se(*args, **kwargs):
            pytest.fail("the estimates ran before the report path was checked")

        monkeypatch.setattr("entrate.cli.bootstrap_se", bootstrap_se)
        ok = write(tmp_path, "ok.txt", "1 2 1 2 2 1\n")
        loop = tmp_path / "loop"
        loop.symlink_to(loop)
        code, out, err = run(capsys, "bootstrap", ok, "--replicates", "2", "--json", str(loop))
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["message"].startswith(f"cannot write {loop}: ")


class TestEndToEnd:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "entrate", "parse", "--text", TABLE_STRING],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == TABLE_PARSING

    @pytest.mark.parametrize(
        "argv, code, out",
        [
            (["estimate", "--text", "A B A B A A B B A"], 0,
             "n = 9 observations over 2 symbols"),
            (["estimate", "--text", "A B", "--order", "0"], 1, None),
            (["bootstrap", "--text", "AABBABAA", "--method", "limit", "--order", "2",
              "--replicates", "10", "--seed", "1", "--p", "0.5"], 2, None),
            (["bootstrap", "--help"], 0, "usage: entrate bootstrap"),
        ],
        ids=["success", "input-error", "numeric-error", "help"],
    )
    def test_program_reads_its_arguments_and_exits_with_its_code(self, argv, code, out):
        # The package run as a program: __main__ hands main() no argv, so it
        # reads sys.argv, and its return value becomes the exit status.
        src = str(Path(__file__).parents[1] / "src")
        env = os.environ | {
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        }
        proc = subprocess.run(
            [sys.executable, "-m", "entrate", *argv], capture_output=True, text=True, env=env
        )
        assert proc.returncode == code, proc.stderr
        if code == 0:
            assert proc.stderr == ""
            assert out in proc.stdout
            return
        assert proc.stdout == ""
        [line] = proc.stderr.splitlines()
        assert json.loads(line)["error"]["type"] == {1: "input", 2: "numeric"}[code]

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--text", "A B A B A A B", "--replicates", "3", "--seed", "-1"],
            ["bootstrap", "--text", "A B A B A A B", "--replicates", "3", "--seed", "-1"],
            ["simulate", "--benchmark", "low", "--length", "10", "--seed", "-1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_input_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "input"
        assert "--seed" in error["message"] and "seed must be >= 0" in error["message"]

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--replicates", "x", "argument --replicates: expected int, got 'x'"),
            ("--p", "half", "argument --p: expected float, got 'half'"),
        ],
        ids=["replicates", "p"],
    )
    def test_unparsable_flag_value_is_input_error(self, capsys, flag, value, message):
        argv = ["bootstrap", "--text", "A B A B A A B", "--replicates", "3", flag, value]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert json.loads(err) == {"error": {"type": "input", "message": message}}

    def test_unknown_command_is_input_error(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_plain_value_error_is_a_bug_not_an_exit_code(self, capsys, monkeypatch):
        # Only EstimationError maps to exit 2; any other ValueError is a bug
        # and must surface as a traceback.
        import entrate.cli

        def broken(*args, **kwargs):
            raise ValueError("bug")

        monkeypatch.setattr(entrate.cli, "run_estimator", broken)
        with pytest.raises(ValueError, match="^bug$"):
            main(["estimate", "--text", "A B A B A A B"])
        assert capsys.readouterr().err == ""


COMMANDS = ("estimate", "bootstrap", "parse", "simulate", "experiment", "ttest")
# Modules that importing the CLI and running a bootstrap leave unloaded.
NOT_AT_START = {"dataclasses", "entrate.simulate", "entrate.stats", "entrate.study", "statistics"}


class TestStartUp:
    """An invocation builds only its own command's parser and loads only the
    modules that command runs, and nothing of that shows to the user."""

    @pytest.mark.parametrize(
        "argv",
        [[c, "--help"] for c in COMMANDS]
        + [["bootstrap", "--text", "A B"], ["--help"], [], ["bogus"], ["-h", "estimate"]],
        ids=[*COMMANDS, "bootstrap-error", "help", "no-arguments", "unknown", "h-then-command"],
    )
    def test_output_is_that_of_the_parser_of_every_command(self, capsys, monkeypatch, argv):
        import entrate.cli

        monkeypatch.setenv("COLUMNS", "80")
        build = entrate.cli.build_parser
        built = []

        def outcome(build_parser):
            monkeypatch.setattr(entrate.cli, "build_parser", build_parser)
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
            return code, *capsys.readouterr()

        def spy(command=None):
            built.append(command)
            return build(command)

        one = outcome(spy)
        assert built == [argv[0] if argv and argv[0] in COMMANDS else None]
        assert one == outcome(lambda command=None: build())
        assert one[1] or one[2]

    def test_bootstrap_loads_neither_simulate_nor_stats(self):
        # Nor dataclasses, nor the simulate, experiment and ttest commands.
        script = (
            "import contextlib, io, sys, entrate.cli\n"
            f"unloaded = {sorted(NOT_AT_START)!r}\n"
            "print(sorted(set(unloaded) & set(sys.modules)))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    entrate.cli.main(['bootstrap', '--text', 'ABABAABBA', '--replicates', '2'])\n"
            "print(sorted(set(unloaded) & set(sys.modules)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        )
        assert proc.stdout == "[]\n[]\n"

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        commands = out[out.index("{") + 1 : out.index("}")]
        assert commands.split(",") == list(COMMANDS)

    def test_help_describes_the_tool_not_its_code(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "entrate.study" not in out
        description = " ".join(out[out.index("\n\n") : out.index("positional arguments")].split())
        assert all(command in description for command in COMMANDS)
        assert "--json" in description and "Exit codes: 0 success; 1 input error" in description

    def test_every_public_name_is_its_modules_object(self):
        import entrate
        import entrate.cli
        import entrate.simulate

        for name in entrate.__all__:
            value = getattr(entrate, name)
            assert getattr(sys.modules[value.__module__], name) is value, name
        assert set(entrate.__all__) <= set(dir(entrate))
        for module, names in entrate._MODULES.items():
            public = importlib.import_module(f"entrate.{module}").__all__
            assert sorted(public) == sorted(names.split()), module
        assert entrate.cli.run_experiment is entrate.simulate.run_experiment
        with pytest.raises(AttributeError):
            entrate.no_such_name
