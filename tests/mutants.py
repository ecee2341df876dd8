"""Mutant catalogue: each broken variant of the library must fail its tests.

Run from anywhere with ``python tests/mutants.py``; it needs pytest and
hypothesis, as the suite does, and nothing else.  pytest does not collect
this file (its name does not start with ``test_``).

The runner copies ``src/``, ``tests/``, ``pyproject.toml`` and
``bench/digests.json`` (which the certify digest test reads) to a temporary
directory; pyproject's ``pythonpath = ["src"]`` then imports the copy, not
this checkout.  It runs every mutant's test ids on the unmutated copy, in one
pytest run, and requires them to pass.  Then, for each mutant, it replaces
the one exact match of the snippet, requires every one of the mutant's ids
to fail, and restores the file.  It exits 1 if a mutant survives, a snippet
does not match exactly once, or a test fails unmutated, so a refactor that
moves a snippet must update the catalogue on purpose.  Every run sets
POLYCONNECT_HYPOTHESIS_PROFILE=mutants, which tests/conftest.py reads: a
Hypothesis test draws the same examples each time and stops at its first
failing one, with no shrink phase, so a mutant may name a property test.
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
CLI = "src/polyconnect/cli.py"
GOLDEN_POLY = "tests/test_golden_cli.py::test_stdout_matches_recorded_digests[poly]"
HIT = "tests/test_connection.py::TestResponseMemo::test_a_hit_writes_what_the_miss_wrote"
CERTIFY = "tests/test_kernels.py::test_certify_stdout_matches_recorded_digest"
EXPANSIONS = "src/polyconnect/expansions.py"
POLES = "tests/test_kernels.py::test_rearrangement_poles_raise_or_skip_as_literal_bodies"

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
        "(_THREE_HALVES, *b1, *b2)",
        "(_THREE_HALVES, *b0, *b2)",
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
    (
        "_json: the compact separator without its space",
        CLI,
        'separator = "," + inner if newline else ", "',
        'separator = "," + inner if newline else ","',
        [GOLDEN_POLY],
    ),
    (
        "_json: ints tested before bools",
        CLI,
        '        return "null"\n',
        '        return "null"\n'
        "    if isinstance(value, int):\n"
        "        return int.__repr__(value)\n",
        [f"{CERTIFY}[verify-3.1]", f"{CERTIFY}[verify-3.3]"],
    ),
    (
        "ratio_str: the pair rendered unreduced",
        "src/polyconnect/rationals.py",
        "    g = math.gcd(num, den)\n",
        "    g = 1\n",
        [GOLDEN_POLY, f"{CERTIFY}[table]"],
    ),
    (
        "ConnectionResult._strings: the row rendered without its last entry",
        CONNECTION,
        "        return [ratio_str(r, den) for r in nums]\n",
        "        return [ratio_str(r, den) for r in nums[:-1]]\n",
        [f"{CERTIFY}[table]"],
    ),
    (
        "run: a hit written in one joined write",
        CLI,
        "        sys.stdout.writelines(texts)\n",
        '        sys.stdout.write("".join(texts))\n',
        [f"{HIT}[json]", f"{HIT}[csv]"],
    ),
    (
        "run: nothing kept",
        CLI,
        "            _RESPONSES[key] = code\n",
        "            pass\n",
        [f"{HIT}[json]", f"{HIT}[csv]"],
    ),
    (
        "Frozen._fill: the values zipped with _fields, not __slots__",
        "src/polyconnect/records.py",
        "zip(self.__slots__, values)",
        "zip(self._fields, values)",
        ["tests/test_polybases.py::test_jacobi_params_lambda",
         "tests/test_package.py::test_frozen_record_hashes_by_value_and_refuses_changes"
         "[ConnectionResult]"],
    ),
    (
        "_regular: a negative alpha, beta or lam taken as degenerate, integer or not",
        CONNECTION,
        "v < 0 and v % q == 0 for v in",
        "v < 0 for v in",
        ["tests/test_connection.py::"
         "test_regular_decides_on_integers_as_the_fraction_comparison_did"],
    ),
    (
        "Poly.coeff: index len(nums) read",
        "src/polyconnect/polybases.py",
        "if 0 <= k < len(nums) else",
        "if 0 <= k <= len(nums) else",
        ["tests/test_polybases.py::TestPoly::test_coeff_reads_any_int_index"],
    ),
    (
        "fields_ismail_32_rhs: a pole reported at the vanishing factor, not at the first"
        " nonzero a_k past it",
        EXPANSIONS,
        'raise PoleInParamsError(f"(c)_{n} = 0',
        'raise PoleInParamsError(f"(c)_{cut} = 0',
        [f"{POLES}[plain-past-a-zero-entry]",
         "tests/test_kernels.py::test_plain_rearrangement_matches_literal_fraction_body"],
    ),
    (
        "fields_ismail_13_rhs: the middle pole checked before the inner-sum skip",
        EXPANSIONS,
        "        if x and qg == 1 and n <= -pg - n - 1 < n_max:\n",
        "        if qg == 1 and n <= -pg - n - 1 < n_max:\n",
        [f"{POLES}[weighted-middle-at-a-zero-inner-sum]"],
    ),
    (
        "fields_ismail_13_rhs: the middle pole reported at the vanishing factor",
        EXPANSIONS,
        "            r = next(m for m in range(-pg - n, n_max + 1) if B[m]) - n\n",
        "            r = -pg - 2 * n - 1\n",
        [f"{POLES}[weighted-middle-past-a-zero-entry]"],
    ),
    (
        "_fields_wimp: (-z)^k carried without its running sign",
        EXPANSIONS,
        "zk, zk_den = -zk * zn,",
        "zk, zk_den = zk * zn,",
        ["tests/test_expansions.py::TestWimpTerminating::test_examples",
         "tests/test_expansions.py::TestLukeTerminating::test_worked_instance"],
    ),
    (
        "_lifted: zero entries kept",
        EXPANSIONS,
        "        if p:\n            ratios.append(",
        "        if True:\n            ratios.append(",
        ["tests/test_expansions.py::test_coeff_seq_drops_zeros_and_validates"],
    ),
    (
        "_draw_even_odd_split: even + prefactor x odd over ed in place of od",
        SWEEPS,
        "ed * pd * xd * od)",
        "ed * pd * xd * ed)",
        [SPLIT_SWEEP],
    ),
]


def _pytest(copy: Path, ids: list) -> tuple:
    """Run the ids in the copy: the exit code, the failed ids and the output."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["POLYCONNECT_HYPOTHESIS_PROFILE"] = "mutants"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider", *ids],
        cwd=copy, env=env, capture_output=True, text=True,
    )
    failed = {
        line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")
    }
    return proc.returncode, failed, proc.stdout + proc.stderr


def _check(copy: Path, path: str, snippet: str, replacement: str, ids: list) -> str:
    """What is wrong with one mutant, or "" if its tests killed it.  The
    file is restored afterwards."""
    target = copy / path
    text = target.read_text()
    if text.count(snippet) != 1:
        return f"the snippet matches {text.count(snippet)} times in {path}, not once"
    target.write_text(text.replace(snippet, replacement))
    try:
        code, failed, output = _pytest(copy, ids)
    finally:
        target.write_text(text)
    survivors = [i for i in ids if i not in failed]
    if code != 1 or survivors:
        where = ", ".join(survivors) or "a run that did not end in failures"
        return f"survived (exit {code}) in {where}:\n{output}"
    return ""


def main() -> int:
    start, bad = time.perf_counter(), 0
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part,
                            ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
        shutil.copy2(ROOT / "pyproject.toml", copy)
        (copy / "bench").mkdir()
        shutil.copy2(ROOT / "bench" / "digests.json", copy / "bench")
        every_id = list(dict.fromkeys(i for *_, ids in CATALOGUE for i in ids))
        code, _, output = _pytest(copy, every_id)
        if code != 0:
            print(f"FAILED: the tests fail unmutated (exit {code}):\n{output}")
            return 1
        for name, *mutant in CATALOGUE:
            began = time.perf_counter()
            problem = _check(copy, *mutant)
            print(f"{'FAILED' if problem else 'killed'}: {name}"
                  f" ({time.perf_counter() - began:.1f} s)")
            if problem:
                print(f"  {problem}")
            bad += bool(problem)
    print(f"{len(CATALOGUE) - bad} of {len(CATALOGUE)} mutants killed"
          f" in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
