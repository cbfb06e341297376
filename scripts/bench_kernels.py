#!/usr/bin/env python3
"""Best-of-N timings of the kernels under `modpoisson verify`.

    PYTHONPATH=src python scripts/bench_kernels.py --label change

Times the float Bernoulli fold at --fold-sizes weights, power_sums of a
finite alphabet of --verify-weights weights to order 30, one
verify_bounds(ModelSpec.bernoulli(w), range(1, 7)), the theorem-b suite's
per-instance call, on --verify-weights weights, the Poisson base
poisson_pmf at lambda = 10 (the rates of the verify suites), 10^3, 10^5,
10^6 and 10^7, and, on the fold of the most weights, total_variation against its Poisson law and io.mass_csv_lines.
The scheme kernels are scheme_measures at orders 1..8 for the 6000
weights of np.random.default_rng(3).uniform(0, 0.3, 6000) (lambda = 896.5)
and at order 3 for lambda = 10^5 with b = (0, -0.5, 0.3).
Weights are seeded, so every run times the same inputs.

The special-function kernels run cold, as in a fresh `modpoisson`
process: each call first empties the caches of zeta and gamma_theta.
They are gamma_theta(1.2345), the five values zeta(k, 1.2345) for
k = 2..6, and power_sums of Alphabet.ewens_limit(1.2345) and of
Alphabet.omega_limit() to order 6.

Each of --repeat rounds runs a fixed reference job, the main() of
perfbench/reference.py in this process (no `modpoisson` code), and then
each kernel three times in a row, so that small kernels run warm.  A
kernel's time is its fastest call, scaled to reference speed: multiplied
by REFERENCE_S over the job's fastest round.  Timing both in the same
rounds lets the scale follow a machine whose speed drifts during a run;
between runs, a shared VM can still move it by 20%.  The results go under
--label into the --out JSON file, whose other labels are kept, so that
runs of two source trees on one machine (PYTHONPATH pointing at each
`src/`) sit side by side.
"""

import argparse
import json
import math
import os
import platform
import runpy
import sys
import time
from pathlib import Path

import numpy as np

from modpoisson.io import mass_csv_lines
from modpoisson.metrics import total_variation, verify_bounds
from modpoisson.models import ModelSpec, bernoulli_sum_pmf, gamma_theta
from modpoisson.schemes import poisson_pmf, scheme_measures
from modpoisson.symfunc import Alphabet, ResidueCoeffs, power_sums, residue_coeffs, zeta

#: scaled times read as seconds on a machine where the reference job takes
#: this long; in process it took 0.12-0.19 s on a loaded 2-CPU x86-64 VM
REFERENCE_S = 0.2

reference_job = runpy.run_path(
    str(Path(__file__).resolve().parent.parent / "perfbench" / "reference.py"))["main"]


def timed(fn, *args):
    """Wall time of one call of fn(*args), in seconds."""
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def cold(fn):
    """fn, called with the zeta and gamma_theta caches emptied first."""
    def run(*args):
        zeta.cache_clear()
        gamma_theta.cache_clear()
        return fn(*args)
    return run


def zeta_values(ks, a):
    """zeta(k, a) for each k in ks."""
    return [zeta(k, a) for k in ks]


def kernel_jobs(fold_sizes, verify_weights):
    """name -> (fn, args) of each timed kernel."""
    rng = np.random.default_rng(2018)
    jobs = {f"fold_{n}": (bernoulli_sum_pmf, (rng.uniform(0.0, 0.05, size=n).tolist(),))
            for n in fold_sizes}
    weights = rng.uniform(0.0, 0.02, size=verify_weights).tolist()
    jobs[f"power_sums_finite_{verify_weights}x30"] = (power_sums, (Alphabet.finite(weights), 30))
    spec = ModelSpec.bernoulli(weights)
    jobs[f"verify_bounds_{verify_weights}"] = (verify_bounds, (spec, range(1, 7)))
    for name, lam in (("10", 10), ("1000", 1000), ("100000", 100000),
                      ("1e6", 10 ** 6), ("1e7", 10 ** 7)):
        jobs[f"poisson_{name}"] = (poisson_pmf, (lam,))
    out_of_regime = np.random.default_rng(3).uniform(0.0, 0.3, 6000).tolist()
    jobs["scheme_r8_896"] = (scheme_measures, (residue_coeffs(
        Alphabet.finite(out_of_regime), 8, math.fsum(out_of_regime)), range(1, 9)))
    jobs["scheme_r3_1e5"] = (scheme_measures, (ResidueCoeffs(1e5, (0.0, -0.5, 0.3)), (3,)))
    n = max(fold_sizes)
    fold_weights = jobs[f"fold_{n}"][1][0]
    fold = bernoulli_sum_pmf(fold_weights)
    jobs[f"tv_{n}"] = (total_variation, (fold, poisson_pmf(math.fsum(fold_weights))))
    jobs[f"mass_csv_{n}"] = (mass_csv_lines, (fold,))
    jobs["gamma_theta_cold"] = (cold(gamma_theta), (1.2345,))
    jobs["zeta_k2to6_cold"] = (cold(zeta_values), (range(2, 7), 1.2345))
    jobs["power_sums_ewens_6_cold"] = (cold(power_sums), (Alphabet.ewens_limit(1.2345), 6))
    jobs["power_sums_omega_6_cold"] = (cold(power_sums), (Alphabet.omega_limit(), 6))
    return jobs


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--label", required=True, help="key of this run in the output file")
    ap.add_argument("--out", default="BENCH_kernels.json")
    ap.add_argument("--fold-sizes", default="300,10000,100000")
    ap.add_argument("--verify-weights", type=int, default=256)
    ap.add_argument("--repeat", type=int, default=20)
    args = ap.parse_args()
    if args.repeat < 1 or args.verify_weights < 1:
        ap.error("--repeat and --verify-weights must be >= 1")

    jobs = kernel_jobs([int(n) for n in args.fold_sizes.split(",")], args.verify_weights)
    for fn, fn_args in jobs.values():  # warm caches and lazy set-up
        fn(*fn_args)
    ref_s, best = math.inf, dict.fromkeys(jobs, math.inf)
    for _ in range(args.repeat):
        ref_s = min(ref_s, timed(reference_job))
        for name, (fn, fn_args) in jobs.items():
            best[name] = min(best[name], *(timed(fn, *fn_args) for _ in range(3)))
    scale = REFERENCE_S / ref_s
    kernels = {}
    for name, unscaled in best.items():
        kernels[name] = {"best_s": unscaled * scale, "unscaled_s": unscaled}
        print(f"{name:>28}  {unscaled * scale * 1e3:9.3f} ms  "
              f"(unscaled {unscaled * 1e3:.3f} ms)")
    print(f"{'reference job':>28}  {ref_s * 1e3:9.3f} ms unscaled", file=sys.stderr)

    out = Path(args.out)
    results = json.loads(out.read_text()) if out.exists() else {}
    results[args.label] = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeat": args.repeat,
        "reference_s": ref_s,
        "kernels": kernels,
    }
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
