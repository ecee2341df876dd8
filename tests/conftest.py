"""Make the package the tests import importable in the CLI subprocesses too,
and start each test with empty conversion memos.

pyproject.toml puts ``src`` on the test process's path; the CLI tests run
``python -m polyconnect`` in child processes, which see only PYTHONPATH.
"""

import os
from pathlib import Path

import pytest

import polyconnect
from polyconnect import connection

_root = str(Path(polyconnect.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_root, os.environ.get("PYTHONPATH"))))


@pytest.fixture(autouse=True)
def _empty_conversion_memos():
    """A test that patches or counts what a conversion runs must see it run,
    not a hit left warm by an earlier test."""
    connection.closed_form_connection.cache_clear()
    connection._oracle_connection.cache_clear()
