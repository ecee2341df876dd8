import json
import subprocess
import sys

import pytest


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "polyconnect", *args],
        capture_output=True,
        text=True,
    )


class TestPoly:
    def test_hermite_json(self):
        proc = run_cli("poly", "--family", "hermite", "--n", "3", "--format", "json")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout) == ["0", "-12", "0", "8"]

    def test_laguerre_json(self):
        proc = run_cli("poly", "--family", "laguerre", "--n", "2")
        assert json.loads(proc.stdout) == ["1", "-2", "1/2"]

    def test_jacobi_requires_params(self):
        proc = run_cli("poly", "--family", "shifted-jacobi", "--n", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.strip().startswith("error:")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_jacobi_with_params(self):
        proc = run_cli(
            "poly", "--family", "shifted-jacobi", "--n", "1", "--alpha", "0", "--beta", "0"
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == ["-1", "2"]

    def test_csv(self):
        proc = run_cli("poly", "--family", "hermite", "--n", "2", "--format", "csv")
        assert proc.stdout.splitlines() == ["degree,coefficient", "0,-2", "1,0", "2,4"]


class TestConnect:
    def test_both_agree(self):
        proc = run_cli(
            "connect", "--source", "hermite", "--target", "laguerre", "--n", "2",
            "--method", "both",
        )
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["closed"] == data["oracle"] == ["6", "-16", "8"]
        assert data["agree"] is True
        assert data["provenance"] == "Thm3.2"

    def test_closed_only(self):
        proc = run_cli(
            "connect", "--source", "laguerre", "--target", "hermite", "--n", "2",
            "--method", "closed",
        )
        data = json.loads(proc.stdout)
        assert data["coefficients"] == ["5/4", "-1", "1/8"]
        assert data["provenance"] == "Thm3.1"

    def test_oracle_accepts_any_target(self):
        proc = run_cli(
            "connect", "--source", "laguerre", "--target", "monomial", "--n", "2",
            "--method", "oracle",
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["coefficients"] == ["1", "-2", "1/2"]

    def test_unsupported_pair_is_invalid_input(self):
        proc = run_cli(
            "connect", "--source", "laguerre", "--target", "shifted-jacobi", "--n", "2",
            "--alpha", "0", "--beta", "0", "--method", "closed",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "no closed form" in proc.stderr

    @pytest.mark.parametrize("command, degree", [("connect", "--n"), ("table", "--n-max")])
    @pytest.mark.parametrize("source, target", [("hermite", "laguerre"), ("monomial", "hermite")])
    def test_alpha_rejected_for_parameterless_families(self, command, degree, source, target):
        proc = run_cli(
            command, "--source", source, "--target", target, degree, "2",
            "--alpha", "1", "--beta", "1", "--method", "oracle",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert f"do not apply to {source} -> {target}" in proc.stderr


class TestVerify:
    def test_theorem_pass(self):
        proc = run_cli("verify", "--theorem", "3.1", "--n-max", "6")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["verdict"] == "pass"
        assert {"theorem", "params", "entries", "verdict"} == set(data)

    def test_interpreted_theorem_low_degrees_pass(self):
        proc = run_cli(
            "verify", "--theorem", "3.3", "--n-max", "0", "--alpha", "0", "--beta", "0"
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "pass"

    def test_interpreted_theorem_mismatch_reports_and_exits_one(self):
        proc = run_cli("verify", "--theorem", "3.3", "--n-max", "2")
        assert proc.returncode == 1
        data = json.loads(proc.stdout)
        assert data["verdict"] == "fail"
        bad = [e for e in data["entries"] if not e["match"]]
        assert bad and bad[0]["n"] == 2 and bad[0]["first_mismatch"] == 0

    def test_lemma_sweep(self):
        proc = run_cli("verify", "--theorem", "2.3", "--cases", "30", "--seed", "9")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        assert data["verdict"] == "pass"
        assert len(data["entries"]) == 30

    @pytest.mark.parametrize(
        "args",
        [
            ("3.1", "--n-max", "2"),
            ("3.2", "--n-max", "2"),
            ("2.1", "--cases", "2"),
            ("2.2", "--cases", "2"),
            ("2.3", "--cases", "2"),
        ],
        ids=lambda a: a[0],
    )
    def test_alpha_rejected_for_parameterless_theorem(self, args):
        theorem, *rest = args
        proc = run_cli("verify", "--theorem", theorem, *rest, "--alpha", "1", "--beta", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "do not apply to theorem" in proc.stderr


class TestTable:
    def test_csv_shape(self):
        proc = run_cli(
            "table", "--source", "laguerre", "--target", "hermite", "--n-max", "3"
        )
        lines = proc.stdout.splitlines()
        assert lines[0] == "n,k,coefficient,provenance"
        assert len(lines) == 1 + 4 + 3 + 2 + 1  # header + rows for n = 0..3
        assert lines[1] == "0,0,1,Thm3.1"

    def test_json_rows(self):
        proc = run_cli(
            "table", "--source", "hermite", "--target", "laguerre", "--n-max", "1",
            "--format", "json",
        )
        data = json.loads(proc.stdout)
        assert data[-1] == {"n": 1, "k": 1, "coefficient": "-2", "provenance": "Thm3.2"}


class TestContract:
    def test_invalid_choice_exit_two(self):
        proc = run_cli("poly", "--family", "bogus", "--n", "1")
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_vanishing_prefactor_exit_two(self):
        proc = run_cli(
            "connect", "--source", "shifted-jacobi", "--target", "hermite",
            "--alpha=-6", "--beta=-1", "--n", "1", "--method", "closed",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")

    def test_ungraded_source_is_a_report_entry_error(self):
        proc = run_cli("verify", "--theorem", "3.4", "--n-max", "3", "--alpha=-6", "--beta=0")
        assert proc.returncode == 2  # errored entries and no mismatch: verdict "error"
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error:")
        data = json.loads(proc.stdout)
        assert data["verdict"] == "error"
        assert "not graded at degree 3" in data["entries"][3]["error"]

    def test_mismatch_beside_errors_exit_one(self):
        proc = run_cli("verify", "--theorem", "3.3", "--n-max", "3", "--alpha=-6", "--beta=0")
        assert proc.returncode == 1
        data = json.loads(proc.stdout)
        assert data["verdict"] == "fail"
        assert "error" in data["entries"][3]

    @pytest.mark.parametrize(
        "args",
        [
            ("poly", "--family", "shifted-jacobi", "--n", "3", "--alpha=-6", "--beta=0"),
            ("connect", "--source", "shifted-jacobi", "--target", "hermite",
             "--alpha=-6", "--beta=0", "--n", "3", "--method", "both"),
            ("connect", "--source", "shifted-jacobi", "--target", "hermite",
             "--alpha=-6", "--beta=0", "--n", "3", "--method", "closed"),
        ],
        ids=["poly", "connect", "connect-closed"],
    )
    def test_ungraded_member_exit_two(self, args):
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "shifted-jacobi family is not graded at degree 3" in proc.stderr

    @pytest.mark.parametrize(
        "args, value",
        [
            (("poly", "--family", "shifted-jacobi", "--n", "2", "--alpha", "-3/2",
              "--beta", "1"), ["3", "-15/2", "35/8"]),
            (("poly", "--family", "jacobi-1mx", "--n", "1", "--alpha", "1",
              "--beta", "-1/2"), ["2", "-5/4"]),
            (("poly", "--family", "jacobi-1mx", "--n", "1", "--alpha=-3/2",
              "--beta", "-1"), ["-1/2", "1/4"]),
            (("connect", "--source", "shifted-jacobi", "--target", "hermite", "--n", "2",
              "--alpha", "-3/2", "--beta", "-1/3", "--method", "closed"),
             ["19/16", "-35/36", "91/288"]),
        ],
        ids=["poly-alpha", "poly-beta", "poly-integer-beta", "connect"],
    )
    def test_negative_fraction_after_space(self, args, value):
        proc = run_cli(*args)
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert (data if args[0] == "poly" else data["coefficients"]) == value
        joined, rest = [], iter(args)
        for arg in rest:
            joined.append(f"{arg}={next(rest)}" if arg in ("--alpha", "--beta") else arg)
        assert run_cli(*joined).stdout == proc.stdout

    def test_negative_degree_exit_two(self):
        proc = run_cli("poly", "--family", "hermite", "--n", "-1")
        assert proc.returncode == 2

    def test_closed_form_negative_degree_exit_two(self):
        proc = run_cli(
            "connect", "--source", "hermite", "--target", "laguerre", "--n", "-1",
            "--method", "closed",
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "n must be a nonnegative integer" in proc.stderr

    @pytest.mark.parametrize(
        "args",
        [
            ("poly", "--family", "hermite", "--n", "12"),
            ("connect", "--source", "hermite", "--target", "laguerre", "--n", "5"),
            ("verify", "--theorem", "3.4", "--n-max", "4"),
            ("verify", "--theorem", "2.1", "--cases", "20", "--seed", "4"),
            ("table", "--source", "laguerre", "--target", "hermite", "--n-max", "4"),
        ],
        ids=lambda a: a[0],
    )
    def test_reruns_are_byte_identical(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode
        assert first.stderr == ""

    def test_seed_changes_lemma_cases(self):
        a = run_cli("verify", "--theorem", "2.3", "--cases", "10", "--seed", "0")
        b = run_cli("verify", "--theorem", "2.3", "--cases", "10", "--seed", "1")
        assert a.returncode == b.returncode == 0
        assert a.stdout != b.stdout
