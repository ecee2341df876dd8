"""Make the package the tests import importable in the CLI subprocesses too.

pyproject.toml puts ``src`` on the test process's path; the CLI tests run
``python -m polyconnect`` in child processes, which see only PYTHONPATH.
"""

import os
from pathlib import Path

import polyconnect

_root = str(Path(polyconnect.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_root, os.environ.get("PYTHONPATH"))))
