import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from polyconnect import cli


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "polyconnect", *args],
        capture_output=True,
        text=True,
    )


#: Serve argv once into a string, then once more through cli.main, from the
#: response memo, to the real stdout.
_SERVE_TWICE = """import contextlib, io, sys
from polyconnect import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.run(sys.argv[1:])
if code != 0 or not cli._RESPONSES:
    sys.exit(3)
cli.main()
"""


def _closed_pipe_outcome(form, env, size=26, program=("-m", "polyconnect")):
    """The first size bytes, exit code and stderr of a table far larger than
    a pipe buffer whose reader closes the pipe after those bytes."""
    proc = subprocess.Popen(
        [sys.executable, *program, "table", "--source", "laguerre",
         "--target", "hermite", "--n-max", "150", "--method", "oracle", "--format", form],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, **env},
    )
    head = proc.stdout.read(size)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    return head, proc.wait(timeout=60), err


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

    @pytest.mark.parametrize(
        "params, source",
        [
            ((), {"family": "hermite"}),
            (("--alpha", "1/2", "--beta", "-1/3"),
             {"family": "shifted-jacobi", "alpha": "1/2", "beta": "-1/3"}),
        ],
    )
    def test_oracle_names_the_requested_source(self, params, source):
        proc = run_cli(
            "connect", "--source", source["family"], "--target", "laguerre", "--n", "2",
            "--method", "oracle", *params,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["source"] == source

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

    @pytest.mark.parametrize("theorem, code", [("3.3c", 0), ("3.3", 1)])
    def test_lam_zero_is_not_an_error(self, theorem, code):
        # alpha + beta = -1: the m = 0 prefactor (2m+lam)/(lam+m)_{n+1} of both
        # Thm3.3 forms is a removable 0/0; the interpreted form still fails from n = 2
        proc = run_cli(
            "verify", "--theorem", theorem, "--n-max", "3", "--alpha=-1/2", "--beta=-1/2"
        )
        assert proc.returncode == code
        assert proc.stderr == ""
        entries = json.loads(proc.stdout)["entries"]
        assert [e["match"] for e in entries] == [True, True, code == 0, code == 0]

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

    def test_closed_stdout_exit_two_without_traceback(self):
        # the table is far larger than a pipe buffer, so the writer meets the
        # closed pipe mid-table, not only in the flush at exit
        buffered = {"PYTHONUNBUFFERED": ""}
        assert _closed_pipe_outcome("csv", buffered) == (b"n,k,coefficient,provenance", 2, b"")

    @pytest.mark.parametrize("form", ["csv", "json"])
    def test_closed_unbuffered_stdout_exit_two(self, form):
        """Unbuffered, a write the closed pipe cuts short raises nothing; a
        later write meets the closed pipe, so the exit is 2 all the same."""
        head = b"n,k,coefficient,provenance" if form == "csv" else b'[\n  {\n    "n": 0,\n    "k":'
        assert _closed_pipe_outcome(form, {"PYTHONUNBUFFERED": "1"}) == (head, 2, b"")

    @pytest.mark.parametrize("size", [0, 26])
    @pytest.mark.parametrize("form", ["csv", "json"])
    def test_closed_unbuffered_stdout_on_a_repeat_exit_two(self, form, size):
        """A repeated request is written from the response memo in the same
        write calls as the first time, so a pipe closed before or during
        that write ends the process with exit 2 all the same."""
        head = b"n,k,coefficient,provenance" if form == "csv" else b'[\n  {\n    "n": 0,\n    "k":'
        outcome = _closed_pipe_outcome(form, {"PYTHONUNBUFFERED": "1"}, size, ("-c", _SERVE_TWICE))
        assert outcome == (head[:size], 2, b"")

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


def test_one_process_serving_many_requests_matches_fresh_processes(capsys):
    """One process serves invalid requests, then every command, and then the
    connect and table requests again, which the response memo serves; each
    outcome equals that of a process serving the request alone."""
    from polyconnect import cli

    degenerate = ["connect", "--source", "shifted-jacobi", "--target", "hermite",
                  "--alpha=-6", "--beta=-1", "--n", "3", "--method", "closed"]
    connect = ["connect", "--source", "hermite", "--target", "laguerre", "--n", "3"]
    tables = [
        ["table", "--source", "laguerre", "--target", "hermite", "--n-max", "3",
         "--method", "oracle", "--format", "json"],
        ["table", "--source", "laguerre", "--target", "hermite", "--n-max", "3"],
    ]
    requests = [
        ["table", "--source", "laguerre", "--n-max", "2", "--method", "both"],
        ["connect", "--source", "hermite", "--target", "laguerre", "--n", "x"],
        ["poly", "--family", "shifted-jacobi", "--n", "2", "--alpha", "-3/2"],
        ["poly", "--family", "shifted-jacobi", "--n", "2", "--alpha", "-3/2", "--beta", "1"],
        degenerate,
        connect,
        ["verify", "--theorem", "3.3", "--n-max", "2", "--format", "csv"],
        ["verify", "--theorem", "2.1", "--cases", "3", "--seed", "2"],
        *tables,
        ["poly", "--family", "hermite", "--n", "3"],
        ["verify", "-h"],
        connect,
        *tables,
        degenerate,
    ]
    shared = []
    for argv in requests:
        rc = cli.run(argv)
        captured = capsys.readouterr()
        shared.append((rc, captured.out, captured.err))
    assert [rc for rc, _, _ in shared] == [2, 2, 2, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 2]
    fresh = [run_cli(*argv) for argv in requests]
    assert shared == [(p.returncode, p.stdout, p.stderr) for p in fresh]


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "--family", "jacobi-1mx", "--n", "6", "--alpha", "1/2", "--beta", "-1/3"],
        ["connect", "--source", "shifted-jacobi", "--target", "hermite", "--n", "5",
         "--alpha", "1/2", "--beta", "1/3", "--method", "both"],
        ["table", "--source", "hermite", "--target", "jacobi-1mx", "--n-max", "4",
         "--alpha", "-1/2", "--beta", "1/3", "--method", "both"],
        ["table", "--source", "laguerre", "--target", "monomial", "--n-max", "4",
         "--method", "oracle"],
        ["verify", "--theorem", "3.1", "--n-max", "4"],
        ["verify", "--theorem", "3.3", "--n-max", "4", "--alpha", "1", "--beta", "2"],
        ["verify", "--theorem", "3.4", "--n-max", "3", "--alpha", "-3/2", "--beta", "-1"],
        ["verify", "--theorem", "2.2", "--cases", "4"],
        ["verify", "--theorem", "2.3", "--cases", "4"],
    ],
    ids=lambda argv: "-".join(argv[:3]),
)
def test_no_csv_field_needs_quoting(argv, capsys):
    """The CSV is fields joined by commas; the csv module writes the same
    fields to the same bytes, so none needed quoting."""
    import csv
    import io

    from polyconnect import cli

    assert cli.run([*argv, "--format", "csv"]) in (0, 1, 2)
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.split("\n")[:-1]]
    assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)
    reference = io.StringIO()
    csv.writer(reference, lineterminator="\n").writerows(rows)
    assert reference.getvalue() == out


_texts = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\xe9\u2028\U0001f600'),
                           st.characters()))
_scalars = st.one_of(_texts, st.integers(), st.integers(-(10**400), 10**400), st.booleans(),
                     st.none())
_payloads = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(_texts, max_size=4),
        st.dictionaries(_texts, inner, max_size=4),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_json_writer_equals_json_dumps(value):
    """The CLI's JSON writer gives the bytes of json.dumps, indented by 2 and
    on one line, on this Python's json module."""
    assert cli._json(value, "\n") == json.dumps(value, indent=2)
    assert cli._json(value) == json.dumps(value)


@pytest.mark.parametrize(
    "value",
    [1.5, Fraction(1, 2), {"x"}, {1: "x"}, {"a": [None, 2.0]}, ["x", Fraction(1)]],
    ids=["float", "fraction", "set", "int-key", "nested-float", "after-a-string"],
)
@pytest.mark.parametrize("newline", ["\n", ""], ids=["indented", "one-line"])
def test_json_writer_refuses_other_types(value, newline):
    with pytest.raises(TypeError):
        cli._json(value, newline)


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "--family", "shifted-jacobi", "--n", "6"],
        ["connect", "--source", "shifted-jacobi", "--target", "hermite", "--n", "6",
         "--method", "both"],
        ["connect", "--source", "hermite", "--target", "jacobi-1mx", "--n", "6",
         "--method", "both"],
        ["table", "--source", "shifted-jacobi", "--target", "hermite", "--n-max", "5",
         "--method", "both"],
        ["verify", "--theorem", "3.4", "--n-max", "5"],
    ],
    ids=lambda argv: "-".join(argv[:3]),
)
@pytest.mark.parametrize(
    "spellings",
    [
        (["--alpha=1/2", "--beta=-1/3"], ["--alpha=2/4", "--beta=-2/6"]),
        # alpha a negative integer: the degenerate path, exit 2 or error entries
        (["--alpha=-2", "--beta=1/2"], ["--alpha=-6/3", "--beta=+3/6"]),
    ],
    ids=["regular", "degenerate"],
)
def test_output_does_not_depend_on_how_the_parameters_are_spelled(argv, spellings, capsys):
    """Equal parameters written reduced or not, signed or not, give the same
    exit code, stdout and stderr: the wire renders the values, not the text."""
    outcomes = []
    for spelling in spellings:
        code = cli.run([*argv, *spelling])
        captured = capsys.readouterr()
        outcomes.append((code, captured.out, captured.err))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] or outcomes[0][0] == 2
