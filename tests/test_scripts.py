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
    # a copy with no perfbench/ beside it: the harness stands alone
    script = tmp_path / "bench_kernels.py"
    script.write_text((ROOT / "scripts" / "bench_kernels.py").read_text())
    out = tmp_path / "BENCH_kernels.json"
    out.write_text('{"parent": {"kept": true}}\n')
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(script),
                           "--label", "smoke", "--out", str(out), "--fold-sizes", "5,40",
                           "--verify-weights", "30", "--repeat", "1"],
                          capture_output=True, text=True, env=env, timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    results = json.loads(out.read_text())
    assert results["parent"] == {"kept": True}
    assert "reference_s" not in results["smoke"]
    kernels = results["smoke"]["kernels"]
    assert set(kernels) == {"fold_5", "fold_40", "power_sums_finite_30x30", "verify_bounds_30",
                            "poisson_10", "poisson_1000", "poisson_100000", "poisson_1e6",
                            "poisson_1e7", "scheme_r8_896",
                            "scheme_r3_1e5", "tv_40", "mass_csv_40",
                            "gamma_theta_cold", "zeta_k2to6_cold", "power_sums_ewens_6_cold",
                            "power_sums_omega_6_cold", "weighted_perm_250",
                            "weighted_perm_400", "weighted_perm_rational_60",
                            "fq_factor_2_40", "fq_factor_2_60", "fold_rational_400",
                            "weighted_perm_800", "residue_product_omega_2j_cold",
                            "omega_pmf_3e6", "omega_pmf_1e8", "fq_enumeration_2_10",
                            "import_cli"}
    import_cli = kernels.pop("import_cli")
    assert set(import_cli) == {"median_s", "runs"}
    assert import_cli["median_s"] > 0.0 and import_cli["runs"] >= 21
    assert all(k["best_s"] > 0.0 for k in kernels.values())
    fresh = {"fq_factor_2_40", "fq_factor_2_60", "fold_rational_400", "weighted_perm_800",
             "residue_product_omega_2j_cold", "omega_pmf_3e6", "omega_pmf_1e8",
             "fq_enumeration_2_10"}
    assert {name: set(k) for name, k in kernels.items() if set(k) != {"best_s"}} == {
        name: {"best_s", "peak_rss_mb", "peak_traced_mb"} for name in fresh}
    assert all(kernels[name]["peak_rss_mb"] >= 0.0 for name in fresh)
    assert kernels["omega_pmf_1e8"]["peak_rss_mb"] > 0.0
    assert all(kernels[name]["peak_traced_mb"] > 0.0 for name in fresh)
