"""Command-line front end: polynomial construction, connection computation,
and formula/identity verification with machine-readable output.

Output on stdout is always valid JSON or CSV per --format; diagnostics go to
stderr only.  Exit codes: 0 success or verification pass, 1 verification
mismatch, 2 invalid input, a verification whose entries raised errors but
never mismatched (for both verification outcomes the report is still
emitted), or stdout closed before the output was written.

JSON is written by this module's own writer (_json), byte-identical to
json.dumps: json.dumps serves indent=2 only from its pure-Python encoder
(the C encoder takes indent=None alone), and the writer renders the same
text through str.join and the C string escaper json.dumps uses.
"""

import os
import re
import sys
import types
from json.encoder import encode_basestring_ascii as _quote
from typing import Optional

from .connection import (
    FAMILIES,
    JACOBI_FAMILIES,
    THEOREMS,
    _first_difference,
    _oracle_connection,
    basis,
    basis_poly,
    closed_form_connection,
    connection_table,
    verify_theorem,
)
from .errors import InvalidInputError, PolyConnectError
from .polybases import JacobiParams
from .rationals import check_index, rational_to_str, shown

#: The lemma ids of verify, the keys of sweeps.LEMMA_SWEEPS.  That module
#: (with expansions and random) is imported only when a lemma is verified.
_LEMMAS = ("2.1", "2.2", "2.3")
_CONNECTION_HEADER = ("n", "k", "coefficient", "provenance")
_VERDICT_EXIT = {"pass": 0, "fail": 1, "error": 2}


#: (--alpha, --beta) texts -> their JacobiParams: _jacobi_params' per-process
#: memo, so a repeated pair is parsed once and every family-cache key of its
#: requests holds one object.  It keeps at most _PARAMS_CAP pairs, dropping
#: the oldest first; a pair that fails to parse is never kept.
_PARAMS = {}
_PARAMS_CAP = 256


def _jacobi_params(ns, families, subject: str) -> Optional[JacobiParams]:
    """The --alpha/--beta pair, from _PARAMS or parsed and kept there; it
    applies exactly when one of the named families takes Jacobi parameters."""
    key = ns.alpha, ns.beta
    jp = _PARAMS.get(key)
    if jp is None:
        if ns.alpha is None and ns.beta is None:
            return None
        if ns.alpha is None or ns.beta is None:
            raise InvalidInputError("--alpha and --beta must be given together")
        jp = JacobiParams(*key)
        if len(_PARAMS) >= _PARAMS_CAP:
            del _PARAMS[next(iter(_PARAMS))]
        _PARAMS[key] = jp
    if not any(family in JACOBI_FAMILIES for family in families):
        raise InvalidInputError(f"--alpha/--beta do not apply to {subject}")
    return jp


def _json(value, newline: str = "") -> str:
    """The text of json.dumps(value, indent=2) where newline is "\n" plus the
    indentation value starts at, and of json.dumps(value) where it is "".
    Takes dicts with str keys, lists, tuples, strs, ints, bools and None;
    anything else, a float included, raises TypeError.  Strings are escaped
    by json's own C escaper, and a list of strings is one str.join."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline and newline + "  "
    separator = "," + inner if newline else ", "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:
            body = separator.join(map(_quote, value))
        except TypeError:  # not all strings
            body = separator.join([_json(item, inner) for item in value])
        return "[" + inner + body + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        body = separator.join([_quote(key) + ": " + _json(item, inner) for key, item in value.items()])
        return "{" + inner + body + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(ns, header, rows, payload=None, indent=True) -> list:
    """Write one result to stdout, one write call per string, and return the
    strings: the rows under header as CSV, one per row, or the payload as
    _json's JSON (by default the rows as objects keyed by header), indented
    by 2 or on one line, then its line break, which under PYTHONUNBUFFERED
    meets a pipe closed mid-text (that cuts the text's write short without
    an error).  No field is ever None or holds a comma, quote or line break
    (ints, bools, rational strings, names), so CSV needs no quoting: each
    row is str of each field joined by commas, one "%s" template per call."""
    if ns.format == "csv":
        line = ",".join(["%s"] * len(header)) + "\n"
        texts = [line % row for row in (header, *rows)]
    else:
        if payload is None:
            payload = [dict(zip(header, row)) for row in rows]
        texts = [_json(payload, "\n" if indent else ""), "\n"]
    sys.stdout.writelines(texts)
    return texts


def _cmd_poly(ns) -> list:
    jp = _jacobi_params(ns, (ns.family,), f"family {ns.family}")
    coefficients = basis_poly(basis(ns.family, jp), ns.n).to_json()
    return _emit(ns, ("degree", "coefficient"), enumerate(coefficients), coefficients, indent=False)


def _connections(ns) -> list:
    """The closed-form and/or oracle results (--method) for the degree --n of
    connect, or for each degree up to --n-max of table, whose oracle rows come
    from connection_table; both name --source as their source.  Rows are
    drawn degree by degree, after each degree's closed form, so the first
    error raised is the one converting each degree on its own would raise."""
    families = (ns.source, ns.target)
    jp = _jacobi_params(ns, families, f"{ns.source} -> {ns.target}")
    source, target = (basis(family, jp) for family in families)
    if ns.command == "connect":
        degrees = (ns.n,)
        rows = (_oracle_connection(source, target, n) for n in degrees)
    else:
        degrees = range(check_index(ns.n_max, "--n-max") + 1)
        rows = connection_table(source, target, degrees[-1])
    results = []
    for n in degrees:
        if ns.method != "oracle":
            results.append(closed_form_connection(source, target, n))
        if ns.method != "closed":
            row = next(rows)
            if isinstance(row, PolyConnectError):
                raise row
            results.append(row)
    return results


def _connection_rows(results):
    return (row for result in results for row in result.to_csv_rows())


def _cmd_connect(ns) -> list:
    results = _connections(ns)
    payload = None  # built for --format json only
    if ns.format == "json" and ns.method == "both":
        closed, oracle = results
        # agree compares the rows in integers; equal rows are rendered once
        rows = closed._row, oracle._row
        agree = len(rows[0][0]) == len(rows[1][0]) and _first_difference(*rows) is None
        texts = closed._strings()
        payload = {
            "source": closed.source.to_json(),
            "target": closed.target.to_json(),
            "degree": ns.n,
            "closed": texts,
            "oracle": texts if agree else oracle._strings(),
            "agree": agree,
            "provenance": closed.provenance,
        }
    elif ns.format == "json":
        payload = results[0].to_json()
    return _emit(ns, _CONNECTION_HEADER, _connection_rows(results), payload)


def _cmd_table(ns) -> list:
    return _emit(ns, _CONNECTION_HEADER, _connection_rows(_connections(ns)))


def _cmd_verify(ns) -> int:
    record = THEOREMS.get(ns.theorem)
    families = () if record is None else (record.source, record.target)
    jp = _jacobi_params(ns, families, f"theorem {ns.theorem}")
    if record is None:
        if ns.cases < 1:
            raise InvalidInputError("--cases must be >= 1")
        from .sweeps import LEMMA_SWEEPS

        entries = LEMMA_SWEEPS[ns.theorem](ns.cases, ns.seed)
        verdict = "pass" if all(e["match"] for e in entries) else "fail"
        header = ("theorem", "case", "match", "residual", "verdict")
        rows = (
            (ns.theorem, i, e["match"], e["residual"], verdict) for i, e in enumerate(entries)
        )
        payload = None if ns.format == "csv" else {
            "theorem": ns.theorem,
            "params": {"cases": ns.cases, "seed": ns.seed},
            "entries": [
                {"n": i, "match": e["match"], "residual": e["residual"]}
                for i, e in enumerate(entries)
            ],
            "verdict": verdict,
        }
    else:
        report = verify_theorem(ns.theorem, ns.n_max, None if jp is None else (jp,))
        verdict = report.verdict
        header = ("theorem", "n", "alpha", "beta", "match", "first_mismatch", "verdict")
        rows = (
            (
                report.theorem,
                e.n,
                "" if e.alpha is None else rational_to_str(e.alpha),
                "" if e.beta is None else rational_to_str(e.beta),
                e.match,
                "" if e.first_mismatch is None else e.first_mismatch,
                verdict,
            )
            for e in report.entries
        )
        payload = None if ns.format == "csv" else report.to_json()
    _emit(ns, header, rows, payload)
    if verdict == "error":
        print("error: some verification entries could not be built", file=sys.stderr)
    return _VERDICT_EXIT[verdict]


_REQUIRED = object()
_FAMILY = (tuple(FAMILIES), _REQUIRED)
_JACOBI = {"--alpha": (str, None), "--beta": (str, None)}
_METHODS, _FORMATS = ("closed", "oracle", "both"), ("json", "csv")

#: command -> (handler, what it does, {option: (kind, default)}): kind is int,
#: str or the tuple of accepted values; the default _REQUIRED marks an option
#: that must be given.  A handler reads each option as the namespace
#: attribute named like it without "--", "-" read as "_".  It returns the exit
#: code, or (poly, connect and table) the strings _emit wrote, exit 0.
_COMMANDS = {
    "poly": (_cmd_poly, "construct a polynomial family member", {
        "--family": _FAMILY, "--n": (int, _REQUIRED), **_JACOBI, "--format": (_FORMATS, "json")}),
    "connect": (_cmd_connect, "connection coefficients for one degree", {
        "--source": _FAMILY, "--target": _FAMILY, "--n": (int, _REQUIRED), **_JACOBI,
        "--method": (_METHODS, "both"), "--format": (_FORMATS, "json")}),
    "verify": (_cmd_verify, "verify a closed form or identity sweep", {
        "--theorem": ((*THEOREMS, *_LEMMAS), _REQUIRED), "--n-max": (int, 0), **_JACOBI,
        "--cases": (int, 200), "--seed": (int, 0), "--format": (_FORMATS, "json")}),
    "table": (_cmd_table, "full lower-triangular connection matrix", {
        "--source": _FAMILY, "--target": _FAMILY, "--n-max": (int, _REQUIRED), **_JACOBI,
        "--method": (_METHODS, "closed"), "--format": (_FORMATS, "csv")}),
}
_HELP = ("-h", "--help")
#: A token starting with "-" that is a value all the same: a negative number.
_NEGATIVE = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")
#: command -> what _parse reads of its options, built once: each name _option
#: matches (-h and --help first) with its kind, the required names, and each
#: name's namespace attribute, with the attributes' defaults.
_TABLES = {
    command: (
        {**dict.fromkeys(_HELP), **{name: kind for name, (kind, _) in options.items()}},
        [name for name, (_, default) in options.items() if default is _REQUIRED],
        {name: name[2:].replace("-", "_") for name in options},
        {name[2:].replace("-", "_"): default for name, (_, default) in options.items()},
    )
    for command, (_, _, options) in _COMMANDS.items()
}


def _option(token: str, names) -> Optional[tuple]:
    """What a token is among a parser's option names, for a token that starts
    with "-", has at least 2 characters and is not a name itself (the caller
    reads those two classes): None for a value, (None, None) for an unknown
    option, else (name, the value attached by "=", or None).  A "--" name
    may be cut to any prefix no other name shares, and letters after "-h"
    are its attached value."""
    name, eq, value = token.partition("=")
    if eq and name in names:
        return name, value
    if token[1] == "-":
        found = [full for full in names if full.startswith(name)]
        if len(found) > 1:
            raise InvalidInputError(f"ambiguous option: {name} could match {', '.join(found)}")
        if found:
            return found[0], value if eq else None
    elif token[1] == "h":
        return "-h", token[2:]
    return None if _NEGATIVE.match(token) or " " in token else (None, None)


def _help(command: Optional[str], name: str, value: Optional[str]) -> str:
    """The help text of the program or a command, read from _COMMANDS.  A
    value attached to -h/--help is an error, except more "h"s after "-h"."""
    if value is not None and not (name == "-h" and value and not value.strip("h")):
        raise InvalidInputError(f"{name} takes no value, got {value!r}")
    if command is None:
        rows = "".join(f"  {name:<8} {text}\n" for name, (_, text, _) in _COMMANDS.items())
        about = (__doc__ or "").strip()  # python -OO strips docstrings
        return f"usage: polyconnect [-h] COMMAND ...\n\n{about}\n\ncommands:\n{rows}"
    _, text, options = _COMMANDS[command]
    rows = ""
    for name, (kind, default) in options.items():
        shape = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name[2:].upper()
        note = "required" if default is _REQUIRED else f"default {default}"
        rows += f"  {name} {shape}" + ("\n" if default is None else f" ({note})\n")
    return f"usage: polyconnect {command} [-h] OPTIONS\n\n{text}\n\noptions:\n{rows}"


def _value(name: str, kind, text: str):
    """The option's value as its kind reads text."""
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise InvalidInputError(f"{name}: invalid int value {text!r}") from None
    if kind is not str and text not in kind:
        raise InvalidInputError(f"{name}: invalid choice {text!r} (choose from {', '.join(kind)})")
    return text


def _parse(argv):
    """The namespace argv asks for, or the help text; InvalidInputError where
    argparse (CPython 3.11) given these options rejects argv, and for a value
    "--" attached by "=".  Only -h may precede the command, "--" ends its
    options, and left-over tokens and missing options are errors only if no
    -h comes first.  An argv that is not an iterable of str is an
    InvalidInputError too."""
    try:
        argv, extras = list(argv), []
    except TypeError:
        raise InvalidInputError(f"argv must be an iterable of str, got {shown(argv)}") from None
    for token in argv:
        if not isinstance(token, str):
            raise InvalidInputError(f"argv must be an iterable of str, got the token {shown(token)}")
    for i, token in enumerate(argv):
        if token in _HELP:
            return _help(None, token, None)
        if token == "--" or len(token) < 2 or token[0] != "-":
            break
        found = _option(token, _HELP)
        if found is None:
            break
        if found[0] is not None:
            return _help(None, *found)
        extras.append(token)
    else:
        raise InvalidInputError(f"a command is required: {', '.join(_COMMANDS)}")
    command, args = argv[i], argv[i + 1:]
    if command not in _COMMANDS:
        raise InvalidInputError(f"invalid command {command!r} (choose from {', '.join(_COMMANDS)})")
    names, required, attributes, defaults = _TABLES[command]
    values = {}
    cut = args.index("--") if "--" in args else len(args)
    # every token before "--" is read before any is acted on, so an ambiguous
    # prefix is an error even after -h
    found = [
        (token, None) if token in names
        else None if len(token) < 2 or token[0] != "-"
        else _option(token, names)
        for token in args[:cut]
    ]
    indices = iter(range(cut))
    for i in indices:
        name, value = found[i] or (None, None)
        if name is None:
            extras.append(args[i])
        elif name in _HELP:
            return _help(command, name, value)
        else:
            if value is None:
                if i + 1 == cut or found[i + 1] is not None:
                    raise InvalidInputError(f"{name} expects a value")
                value = args[next(indices)]
            values[name] = _value(name, names[name], value)
    missing = [name for name in required if name not in values]
    if missing:
        raise InvalidInputError(f"the following options are required: {', '.join(missing)}")
    if extras or cut < len(args):
        raise InvalidInputError(f"unrecognized arguments: {' '.join(extras + args[cut:])}")
    fields = dict(defaults)
    for name, value in values.items():
        fields[attributes[name]] = value
    return types.SimpleNamespace(command=command, **fields)


#: argv -> what its poly, connect or table request wrote with exit 0: run's
#: per-process, unbounded memo.  verify and exit 2 are never kept.
_RESPONSES = {}


def run(argv) -> int:
    """Parse argv and run one command, or print the help it asks for;
    returns the process exit code.  An argv in _RESPONSES is written again
    from there before any parsing, in the same write calls as the first time;
    only a miss checks that argv is an iterable of str (_parse), as every
    kept argv is."""
    try:
        argv = key = tuple(argv)
        texts = _RESPONSES.get(key)
    except TypeError:  # argv not iterable, or a token that cannot be hashed: _parse decides
        texts = key = None
    if texts is not None:
        sys.stdout.writelines(texts)
        return 0
    try:
        ns = _parse(argv)
        if isinstance(ns, str):
            sys.stdout.write(ns)
            return 0
        code = _COMMANDS[ns.command][0](ns)
    except PolyConnectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(code, list):
        if key is not None:
            _RESPONSES[key] = code
        code = 0
    return code


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:  # stdout closed early; devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 2
    sys.exit(code)
