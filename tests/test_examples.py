"""The runnable examples print the same stdout on every run."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _stdout(script: str, hash_seed: int) -> str:
    path = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, str(ROOT / "examples" / script)], env=env,
        capture_output=True, text=True, check=True, timeout=120).stdout


def test_design_iteration_stdout_ignores_the_hash_seed():
    """Hot spots with equal counts print in one order, whatever order
    the set and dict iteration behind them takes."""
    assert _stdout("design_iteration.py", 1) == \
        _stdout("design_iteration.py", 2)
