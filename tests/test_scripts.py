"""Smoke tests for the table scripts, the package's callers in scripts/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, header", [
    ("omega_table.py", ["--sizes", "1000,10000"],
     "N lam tv Po(ll N+g) tv Po(ll N) tv order-2"),
    ("rate_tables.py", ["--sizes", "50,100", "--tv-sizes", "1000",
                        "--orders", "0,2", "--grid-points", "8"],
     "n eps_n eps_n * n eps_2n/eps_n"),
])
def test_script_runs(script, args, header):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)] + args,
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert " ".join(done.stdout.splitlines()[0].split()) == header
