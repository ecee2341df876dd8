"""Mutant catalogue: each broken variant of the library must fail its tests.

Run from anywhere with ``python tests/mutants.py``; it needs pytest and
hypothesis, as the suite does, and nothing else.  pytest does not collect
this file (its name does not start with ``test_``).

For each mutant the runner copies ``src/``, ``tests/`` and ``pyproject.toml``
to a temporary directory; pyproject's ``pythonpath = ["src"]`` then imports
the copy, not this checkout.  It runs the mutant's test ids on the unmutated
copy and requires them to pass, replaces the one exact match of the snippet,
and requires every one of those ids to fail.  It exits 1 if a mutant
survives, a snippet does not match exactly once, or a test fails unmutated,
so a refactor that moves a snippet must update the catalogue on purpose.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONNECTION = "src/polyconnect/connection.py"
ROWS = ("tests/test_connection.py::TestClosedFormConnection::"
        "test_rows_are_integers_over_one_positive_denominator")
PAIR = "tests/test_contract.py::test_an_explicit_theorem_given_another_pair_names_its_own_pair"
SWEEPS = "src/polyconnect/sweeps.py"
HYPSERIES = "src/polyconnect/hypseries.py"
SPLIT = "tests/test_hypseries.py::test_split_identity_on_fixed_grid"
SPLIT_SWEEP = ("tests/test_expansions.py::test_sweeps_pass_and_are_deterministic"
               "[sweep_even_odd_split]")

#: (name, file, exact snippet, replacement, test ids that must fail)
CATALOGUE = [
    (
        "Theorem.row: no degree check of a degenerate Jacobi source member",
        CONNECTION,
        "            basis_poly(BasisId(self.source, jp), n)\n",
        "            pass\n",
        [f"{ROWS}[3.4]"],
    ),
    (
        "Theorem.row: degenerate parameters sent to the fast row",
        CONNECTION,
        "        if jp is None or _regular(jp):\n",
        "        if True:\n",
        [f"{ROWS}[3.3]", f"{ROWS}[3.4]"],
    ),
    (
        "Theorem.row: the entry-by-entry fallback stops at k = n - 1",
        CONNECTION,
        "        return lift(self.entry(n, jp, k) for k in range(n + 1))\n",
        "        return lift(self.entry(n, jp, k) for k in range(n))\n",
        [f"{ROWS}[3.1]", f"{ROWS}[3.3c]", f"{ROWS}[3.4]"],
    ),
    (
        "THEOREMS: the 3.3c entry at argument sign +1",
        CONNECTION,
        "lambda n, jp, k: coeff_hermite_in_shifted_jacobi(n, jp, k, -1),",
        "lambda n, jp, k: coeff_hermite_in_shifted_jacobi(n, jp, k, 1),",
        [f"{ROWS}[3.3c]"],
    ),
    (
        "Theorem.row: the member check keyed on the target family",
        CONNECTION,
        "        if self.source in JACOBI_FAMILIES:\n"
        "            basis_poly(BasisId(self.source, jp), n)\n",
        "        if self.target in JACOBI_FAMILIES:\n"
        "            basis_poly(BasisId(self.target, jp), n)\n",
        [f"{ROWS}[3.4]"],
    ),
    (
        "closed_form_connection: an explicit theorem's wrong pair as 'no closed form'",
        CONNECTION,
        'f"no closed form for {pair}" if theorem is None else (',
        'f"no closed form for {pair}" if True else (',
        [f"{PAIR}[3.2]", f"{PAIR}[3.4]"],
    ),
    (
        "_sweep: the residual written as \"0\" for every draw",
        SWEEPS,
        '"residual": "0" if match else rational_to_str(lhs - rhs),',
        '"residual": "0",',
        ["tests/test_expansions.py::test_sweep_renders_a_residual_only_for_a_mismatch",
         "tests/test_contract.py::test_values_rendered_past_the_int_to_string_limit_raise"
         "[sweep-residual]"],
    ),
    (
        "_draw_luke_terminating: the case drops its c_list key",
        SWEEPS,
        '"c_list": cr, ',
        "",
        ["tests/test_expansions.py::test_sweep_cases_match_recorded_digest"
         "[sweep_luke_terminating]"],
    ),
    (
        "split_even_odd: odd numerators (*a1, *a0)",
        HYPSERIES,
        "odd = HypSeries._from_fractions((*a1, *a2),",
        "odd = HypSeries._from_fractions((*a1, *a0),",
        [SPLIT, SPLIT_SWEEP],
    ),
    (
        "split_even_odd: odd denominators (3/2, *b0, *b2)",
        HYPSERIES,
        "(Fraction(3, 2), *b1, *b2)",
        "(Fraction(3, 2), *b0, *b2)",
        [SPLIT, SPLIT_SWEEP],
    ),
    (
        "split_even_odd: even numerators (*a0, *a2)",
        HYPSERIES,
        "even = HypSeries._from_fractions((*a0, *a1),",
        "even = HypSeries._from_fractions((*a0, *a2),",
        [SPLIT, SPLIT_SWEEP],
    ),
    (
        "split_even_odd: even numerators stored as a list, not a tuple",
        HYPSERIES,
        "even = HypSeries._from_fractions((*a0, *a1),",
        "even = HypSeries._from_fractions([*a0, *a1],",
        ["tests/test_hypseries.py::test_split_series_shapes"],
    ),
]


def _pytest(copy: Path, ids: list) -> tuple:
    """Run the ids in the copy: the exit code, the failed ids and the output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *ids],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    failed = {
        line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")
    }
    return proc.returncode, failed, proc.stdout + proc.stderr


def _check(path: str, snippet: str, replacement: str, ids: list) -> str:
    """What is wrong with one mutant, or "" if its tests killed it."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        target = copy / path
        text = target.read_text()
        if text.count(snippet) != 1:
            return f"the snippet matches {text.count(snippet)} times in {path}, not once"
        code, _, output = _pytest(copy, ids)
        if code != 0:
            return f"the tests fail unmutated (exit {code}):\n{output}"
        target.write_text(text.replace(snippet, replacement))
        code, failed, output = _pytest(copy, ids)
        survivors = [i for i in ids if i not in failed]
        if code != 1 or survivors:
            where = ", ".join(survivors) or "a run that did not end in failures"
            return f"survived (exit {code}) in {where}:\n{output}"
    return ""


def main() -> int:
    start, bad = time.perf_counter(), 0
    for name, *mutant in CATALOGUE:
        began = time.perf_counter()
        problem = _check(*mutant)
        print(f"{'FAILED' if problem else 'killed'}: {name} ({time.perf_counter() - began:.1f} s)")
        if problem:
            print(f"  {problem}")
        bad += bool(problem)
    print(f"{len(CATALOGUE) - bad} of {len(CATALOGUE)} mutants killed"
          f" in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
