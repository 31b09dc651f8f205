"""The package imports numpy alone: scipy serves only the tests, and the
process pool loads only when a run asks for more than one worker."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_leaves_out_scipy_and_the_process_pool():
    code = "import json, sys, teamsim, teamsim.cli; print(json.dumps([teamsim.__file__, sorted(sys.modules)]))"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    package, modules = json.loads(out.stdout)
    assert Path(package).parent == SRC / "teamsim"
    unwanted = [
        m
        for m in modules
        if m == "scipy"
        or m.startswith("scipy.")
        or m == "multiprocessing"
        or m.startswith("multiprocessing.")
        or m == "concurrent.futures.process"
    ]
    assert unwanted == []
