"""Import order: ``repro.core`` imports nothing from ``repro.batch``.

The batch model builds on the load distributor, so the distributor must
not import the batch package back.  Each package imports first in a
fresh interpreter, and the distributor's per-row and per-probe code
runs no import statement.
"""

import dis
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.loadbalance import _fill, _prepare_row

SRC = str(Path(repro.__file__).resolve().parent.parent)


@pytest.mark.parametrize(
    "module",
    ["repro.core.loadbalance", "repro.batch", "repro.batch.rpf", "repro.api"],
)
def test_module_imports_first_in_a_fresh_interpreter(module):
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("function", [_prepare_row, _fill])
def test_no_import_statement_runs_per_call(function):
    ops = {ins.opname for ins in dis.get_instructions(function)}
    assert "IMPORT_NAME" not in ops
