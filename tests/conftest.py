"""Make the package the tests import importable in the CLI subprocesses too,
start each test with an empty CLI response memo, and offer no_fractions.

pyproject.toml puts ``src`` on the test process's path; the CLI tests run
``python -m polyconnect`` in child processes, which see only PYTHONPATH.
"""

import contextlib
import os
from pathlib import Path

import pytest

import polyconnect
from polyconnect import cli, connection, polybases

_root = str(Path(polyconnect.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_root, os.environ.get("PYTHONPATH"))))


@pytest.fixture(autouse=True)
def _empty_response_memo():
    """A test that patches or counts what a CLI request runs must see it run,
    not a response left kept by an earlier test."""
    cli._RESPONSES.clear()


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
