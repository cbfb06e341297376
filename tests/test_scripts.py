"""Smoke tests for the table and benchmark scripts, the package's callers in
scripts/."""

import json
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


def test_bench_kernels_adds_its_label_and_keeps_the_others(tmp_path):
    out = tmp_path / "BENCH_kernels.json"
    out.write_text('{"parent": {"kept": true}}\n')
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_kernels.py"),
                           "--label", "smoke", "--out", str(out), "--fold-sizes", "5,40",
                           "--verify-weights", "30", "--repeat", "1"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    results = json.loads(out.read_text())
    assert results["parent"] == {"kept": True}
    kernels = results["smoke"]["kernels"]
    assert set(kernels) == {"fold_5", "fold_40", "power_sums_finite_30x30", "verify_bounds_30",
                            "poisson_10", "poisson_1000", "poisson_100000", "poisson_1e6",
                            "poisson_1e7", "scheme_r8_896",
                            "scheme_r3_1e5", "tv_40", "mass_csv_40",
                            "gamma_theta_cold", "zeta_k2to6_cold", "power_sums_ewens_6_cold",
                            "power_sums_omega_6_cold"}
    assert all(k["best_s"] > 0.0 and k["unscaled_s"] > 0.0 for k in kernels.values())
