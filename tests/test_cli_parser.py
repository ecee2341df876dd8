"""The CLI's table-driven argv parser against the argparse parser it replaced.

``_Parser`` and ``_build_parser`` below are the CLI's parser before it was
table-driven, kept verbatim as the reference.  A Hypothesis differential test
draws argv and requires the same outcome from both: the same namespace, an
error from both, or help from both.  Where argparse itself changed after
CPython 3.11 (prefixes that match two options, letters after "-h", "--"
before the command), the drawn grammar leaves the token out and an example
test pins the 3.11 outcome, which the CLI keeps on every version.
"""

import argparse
import contextlib
import functools
import io
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from polyconnect import cli
from polyconnect.connection import FAMILIES, THEOREMS
from polyconnect.errors import InvalidInputError
from polyconnect.sweeps import LEMMA_SWEEPS

_VERIFY_IDS = (*THEOREMS, *LEMMA_SWEEPS)


class _Parser(argparse.ArgumentParser):
    """Raises InvalidInputError instead of exiting, and reads "-p/q" as a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse sets the matcher per instance; the default one has no "/".
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):  # exit 2 with a one-line reason, never sys.exit here
        raise InvalidInputError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first request and reused by later ones; a
    parse keeps its state in the namespace it returns, not in the parser."""
    parser = _Parser(prog="polyconnect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    poly = sub.add_parser("poly", help="construct a polynomial family member")
    connect = sub.add_parser("connect", help="connection coefficients for one degree")
    verify = sub.add_parser("verify", help="verify a closed form or identity sweep")
    table = sub.add_parser("table", help="full lower-triangular connection matrix")

    poly.add_argument("--family", required=True, choices=FAMILIES)
    poly.add_argument("--n", required=True, type=int)
    verify.add_argument("--theorem", required=True, choices=_VERIFY_IDS)
    verify.add_argument("--n-max", type=int, default=0)
    for command, degree in ((connect, "--n"), (table, "--n-max")):
        command.add_argument("--source", required=True, choices=FAMILIES)
        command.add_argument("--target", required=True, choices=FAMILIES)
        command.add_argument(degree, required=True, type=int)
    for command in (poly, connect, verify, table):
        command.add_argument("--alpha")
        command.add_argument("--beta")
    verify.add_argument("--cases", type=int, default=200)
    verify.add_argument("--seed", type=int, default=0)
    for command, method in ((connect, "both"), (table, "closed")):
        command.add_argument("--method", choices=("closed", "oracle", "both"), default=method)
    for command, fmt in ((poly, "json"), (connect, "json"), (verify, "json"), (table, "csv")):
        command.add_argument("--format", choices=("json", "csv"), default=fmt)
    return parser


def reference(argv):
    """("namespace", its attributes), ("help", None) or ("error", None)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return "namespace", vars(_build_parser().parse_args(argv))
    except SystemExit as exit:
        assert exit.code == 0
        return "help", None
    except InvalidInputError:
        return "error", None


def table_driven(argv):
    try:
        ns = cli._parse(argv)
    except InvalidInputError:
        return "error", None
    return ("help", None) if isinstance(ns, str) else ("namespace", vars(ns))


#: Good values for the required options and some others, so that drawn argv
#: often parse.
GOOD = {
    "poly": (("--family", "hermite"), ("--n", "3"), ("--format", "csv")),
    "connect": (("--source", "laguerre"), ("--target", "hermite"), ("--n", "2"),
                ("--method", "oracle")),
    "verify": (("--theorem", "3.1"), ("--n-max", "4"), ("--cases", "3"), ("--seed", "-2")),
    "table": (("--source", "hermite"), ("--target", "jacobi-1mx"), ("--n-max", "2"),
              ("--alpha", "-1/2"), ("--beta", "1")),
}
OPTIONS = ("--family", "--n", "--source", "--target", "--n-max", "--theorem", "--alpha",
           "--beta", "--cases", "--seed", "--method", "--format", "--foo")
VALUES = (
    *FAMILIES, *_VERIFY_IDS, "closed", "oracle", "both", "json", "csv", "bogus",
    "0", "3", "12", "007", " 4", "+2", "1_0", "٣", "5\n", "-1", "x", "", "1.5",
    "1/2", "3/2", "-3/2", "-.5", "-1.5", "-1/", "-1 2", "-", "-x", "--foo", "-h",
)
# every prefix of at least three characters, except "--f": it matches both
# --family and --format of poly, which argparse reports at different points
# since CPython 3.12
option_names = st.sampled_from(OPTIONS).flatmap(
    lambda name: st.sampled_from([name[:k] for k in range(3, len(name) + 1) if name[:k] != "--f"])
)
values = st.sampled_from(VALUES)
pairs = st.tuples(option_names, values)
chunks = st.one_of(
    pairs,
    pairs,
    pairs.map(lambda t: (f"{t[0]}={t[1]}",)),
    st.tuples(option_names),  # its value may be missing
    st.tuples(values),  # a stray token
    st.sampled_from([("-h",), ("--help",), ("--he",), ("--help=x",), ("--",), ("--", "x")]),
)
# "--" before the command and "-h" with letters after it are out: argparse
# reads them differently since CPython 3.12
before_command = st.sampled_from(["-h", "--help", "--he", "--help=x", "--foo", "-x", "-1"])


@st.composite
def argvs(draw):
    argv = draw(st.one_of(st.just([]), st.lists(before_command, max_size=2)))
    command = draw(st.sampled_from([*GOOD, "bogus", None]))
    parts = [draw(st.sampled_from([pair, (f"{pair[0]}={pair[1]}",)]))
             for pair in GOOD.get(command, ()) if draw(st.integers(0, 9))]
    parts += draw(st.lists(chunks, max_size=4))
    argv += [] if command is None else [command]
    return argv + [token for part in draw(st.permutations(parts)) for token in part]


@settings(max_examples=1500, deadline=None)
@given(argvs())
def test_parser_matches_argparse(argv):
    assert table_driven(argv) == reference(argv)


#: The CPython 3.11 outcome of argv that later argparse versions read
#: differently; the table-driven parser keeps it everywhere.
PINNED = [
    # a prefix of two options is an error wherever it stands before "--"
    (["poly", "-h", "--f", "json"], "error"),
    (["poly", "--family", "hermite", "--n", "1", "--f=json"], "error"),
    (["table", "-h", "--=x"], "error"),
    (["poly", "-h", "--", "--f"], "help"),
    # only more "h"s may follow "-h"
    (["poly", "-hh"], "help"),
    (["poly", "-h=h"], "help"),
    (["poly", "-hx"], "error"),
    (["poly", "-h="], "error"),
    (["poly", "-hhx", "-h"], "error"),
    (["poly", "-h", "-hx"], "help"),
    (["-hx", "poly", "--family", "hermite", "--n", "1"], "error"),
    # "--" before the command stands where the command should
    (["--", "poly", "--family", "hermite", "--n", "1"], "error"),
]


@pytest.mark.parametrize("argv, outcome", PINNED, ids=[" ".join(argv) for argv, _ in PINNED])
def test_outcomes_pinned_to_cpython_311(argv, outcome):
    assert table_driven(argv)[0] == outcome
    if sys.version_info[:2] == (3, 11):
        assert reference(argv)[0] == outcome


@pytest.mark.parametrize(
    "argv",
    [
        ["poly", "--family=--", "--n", "1"],
        ["poly", "--family", "hermite", "--n=--"],
        ["poly", "--family", "hermite", "--n", "1", "--format=--"],
        ["poly", "--family", "jacobi-1mx", "--n", "1", "--alpha=--", "--beta", "0"],
        ["connect", "--source", "hermite", "--target", "laguerre", "--n", "1", "--method=--"],
        ["table", "--source=--", "--target", "hermite", "--n-max", "1", "--source=laguerre"],
        ["verify", "--theorem=--"],
        ["verify", "--theorem", "2.1", "--cases=--"],
        ["verify", "--theorem", "2.1", "--seed=--"],
    ],
    ids=lambda argv: next(t for t in argv if t.endswith("=--")),
)
def test_dashdash_attached_by_equals_is_a_value(argv, capsys):
    # argparse before CPython 3.12 dropped it and stored [], which the
    # commands then failed on with a raw TypeError (or, for --format and
    # --method, ignored); as a value it is invalid input like any other
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he", "bogus"]], ids=" ".join)
def test_program_help_lists_every_command(argv, capsys):
    assert cli.run(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: polyconnect [-h] COMMAND ...\n")
    assert captured.err == ""
    for command, (_, about, _) in cli._COMMANDS.items():
        assert f"  {command}" in captured.out and about in captured.out


@pytest.mark.parametrize("command", ["poly", "connect", "verify", "table"])
def test_command_help_lists_every_option(command, capsys):
    # help acts where it stands: later bad values, strays and missing options do not count
    assert cli.run([command, "--help", "--family", "bogus", "--n", "x", "stray"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(f"usage: polyconnect {command} [-h] OPTIONS\n")
    assert captured.err == ""
    lines = captured.out.splitlines()
    for name, (kind, default) in cli._COMMANDS[command][2].items():
        line = next(line for line in lines if line.startswith(f"  {name} "))
        if isinstance(kind, tuple):
            assert "{" + ",".join(kind) + "}" in line
        if default is not None:
            assert ("(required)" if default is cli._REQUIRED else f"(default {default})") in line


#: Modules no command but a lemma verify needs: argparse with the gettext and
#: locale it pulls in, dataclasses with inspect, and the lemma sweeps with
#: expansions and random.
_OFF_COLD_PATH = {
    "argparse", "gettext", "locale", "dataclasses", "inspect", "random", "csv",
    "polyconnect.sweeps", "polyconnect.expansions",
}
_COLD_REQUESTS = [
    ["poly", "--family", "hermite", "--n", "3"],
    ["connect", "--source", "hermite", "--target", "laguerre", "--n", "2"],
    ["table", "--source", "laguerre", "--target", "hermite", "--n-max", "3"],
    ["verify", "--theorem", "3.1", "--n-max", "3"],
]


def test_cold_path_imports_no_argparse():
    """Serving poly, connect, table or verify 3.1 in a fresh process, by
    cli.run or by python -m polyconnect, loads none of _OFF_COLD_PATH (python
    -S keeps site's own imports out); verify 2.3 then works in the same
    process, and loads the sweeps."""
    code = f"""
import contextlib, io, sys
from polyconnect import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(argv) for argv in {_COLD_REQUESTS!r}]
    loaded = sorted({_OFF_COLD_PATH!r} & set(sys.modules))
    codes.append(cli.run(["verify", "--theorem", "2.3", "--cases", "3"]))
print(codes, loaded, "polyconnect.sweeps" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.stderr == ""
    assert proc.stdout == "[0, 0, 0, 0, 0] [] True\n"
    for argv in _COLD_REQUESTS:
        proc = subprocess.run([sys.executable, "-S", "-X", "importtime", "-m", "polyconnect", *argv],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()}
        assert "polyconnect.cli" in imported
        assert not imported & _OFF_COLD_PATH, argv


def test_verify_lemma_choices_are_the_lemma_sweeps():
    """cli names the lemma ids without importing sweeps; they must be its keys."""
    assert cli._COMMANDS["verify"][2]["--theorem"][0] == (*THEOREMS, *LEMMA_SWEEPS)
