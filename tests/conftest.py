"""Make the package the tests import importable in the CLI subprocesses too,
and start each test with an empty CLI response memo.

pyproject.toml puts ``src`` on the test process's path; the CLI tests run
``python -m polyconnect`` in child processes, which see only PYTHONPATH.
"""

import os
from pathlib import Path

import pytest

import polyconnect
from polyconnect import cli

_root = str(Path(polyconnect.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_root, os.environ.get("PYTHONPATH"))))


@pytest.fixture(autouse=True)
def _empty_response_memo():
    """A test that patches or counts what a CLI request runs must see it run,
    not a response left kept by an earlier test."""
    cli._RESPONSES.clear()
