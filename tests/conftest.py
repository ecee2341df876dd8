"""Make the package the tests import importable in the CLI subprocesses too,
start each test with empty per-process memos, offer no_fractions, and
load the Hypothesis profile the mutant runner asks for.

pyproject.toml puts ``src`` on the test process's path; the CLI tests run
``python -m polyconnect`` in child processes, which see only PYTHONPATH.
"""

import contextlib
import os
from pathlib import Path

import pytest
from hypothesis import Phase, settings

import polyconnect
from polyconnect import cli, connection, polybases

_root = str(Path(polyconnect.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_root, os.environ.get("PYTHONPATH"))))

#: tests/mutants.py sets POLYCONNECT_HYPOTHESIS_PROFILE=mutants: a property
#: test killed by a mutant stops at its first failing example instead of
#: shrinking it, and every run draws the same examples.  Unset, the suite
#: keeps Hypothesis's own settings.
settings.register_profile("mutants", derandomize=True, phases=(Phase.explicit, Phase.generate))
if "POLYCONNECT_HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["POLYCONNECT_HYPOTHESIS_PROFILE"])


@pytest.fixture(autouse=True)
def _empty_memos():
    """A test that patches or counts what a CLI request or a conversion runs
    must see it run, not a response, a member row or a parameter pair left
    kept by an earlier test."""
    cli._RESPONSES.clear()
    cli._PARAMS.clear()
    connection._MEMBER_ROWS.clear()


@contextlib.contextmanager
def _no_fractions():
    """polybases and connection with a Fraction that raises: what runs under
    it builds no Fraction there.  Build the values first, since a family
    member calls Fraction through polybases' global."""
    def refuse(*args):
        raise AssertionError(f"Fraction{args} built")

    saved = polybases.Fraction, connection.Fraction
    polybases.Fraction = connection.Fraction = refuse
    try:
        yield
    finally:
        polybases.Fraction, connection.Fraction = saved


@pytest.fixture(scope="session")
def no_fractions():
    """The context manager _no_fractions; session-scoped, so Hypothesis
    tests may take it too."""
    return _no_fractions
