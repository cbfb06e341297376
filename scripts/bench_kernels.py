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
and at order 3 for lambda = 10^5 with b = (0, -0.5, 0.3).  The
weighted-permutation kernels are weighted_perm_cycle_pmf in the float mode
at n = 250 (the size of perfbench's `pmf-weighted-perm` op) and 400, on
theta_k uniform in [0.5, 2], and in the rational mode at n = 60, on the
dyadic theta_k = (1 + 7k mod 13) / 8.

The fixed-size kernels also get two peaks of one call in a fresh
interpreter, after the package's import: the growth of peak RSS, as a
`modpoisson` process would see it (0.0 when the call stays under the
import's high-water mark: nothing was detected), and the tracemalloc peak
of the call's own allocations.  They are fq_factor_pmf at (q, n) = (2, 40)
and (2, 60); the rational Bernoulli fold of the 400 weights
theta/(theta + i), theta = 33/32, of a rational Ewens law;
weighted_perm_cycle_pmf in the float mode at n = 800;
residue_product_eval of Alphabet.omega_limit() at z = 2i, cold;
omega_pmf at N = 3 * 10^6 (perfbench's `pmf-omega` op) and 10^8;
the `oracles` suite's exhaustive F_q count at its largest case,
fq_factor_histogram_by_enumeration(2, 10); and the two special-function
suites whole, run_suite("hermite") and run_suite("gamma-ratio").
Weights are seeded, so every run times the same inputs.

import_cli is the start-up that every `modpoisson` command pays before its
work: the median, over IMPORT_RUNS fresh interpreters, of the wall time of
`import modpoisson; import modpoisson.cli` after numpy's import, as
perfbench's child process imports them.  The interpreters run with
PYTHONDONTWRITEBYTECODE=1, as perfbench's do, so the package is compiled
from source unless a __pycache__ already sits beside it.

The special-function kernels run cold, as in a fresh `modpoisson`
process: each call first empties zeta's cache, the only cache they meet.
They are gamma_theta(1.2345), the five values zeta(k, 1.2345) for
k = 2..6, and power_sums of Alphabet.ewens_limit(1.2345) and of
Alphabet.omega_limit() to order 6.

Each of --repeat rounds runs each kernel three times in a row, so that
small kernels run warm.  A kernel's time is its fastest call over all
rounds: unscaled best-of-N wall time.  A shared VM can move it by 20%
between runs, so compare two source trees (PYTHONPATH pointing at each
`src/`) only in runs on one machine, close together in time.  The results
go under --label into the --out JSON file, whose other labels are kept, so
that those runs sit side by side.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from modpoisson.io import mass_csv_lines
from modpoisson.metrics import total_variation, verify_bounds
from modpoisson.models import (ModelSpec, bernoulli_sum_pmf, fq_factor_pmf, gamma_theta,
                               omega_pmf, weighted_perm_cycle_pmf)
from modpoisson.schemes import poisson_pmf, scheme_measures
from modpoisson.suites import fq_factor_histogram_by_enumeration, run_suite
from modpoisson.symfunc import (Alphabet, ResidueCoeffs, power_sums, residue_coeffs,
                                residue_product_eval, zeta)


def timed(fn, *args):
    """Wall time of one call of fn(*args), in seconds."""
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def cold(fn):
    """fn, called with zeta's cache emptied first."""
    def run(*args):
        zeta.cache_clear()
        return fn(*args)
    return run


#: one fixed-size kernel's call in a fresh interpreter: its peak RSS growth
#: (ru_maxrss counts KB on Linux), or with traced its tracemalloc peak, in MB
FRESH_PEAK_CODE = """\
import resource, sys, tracemalloc
sys.path.insert(0, {folder!r})
from bench_kernels import fixed_jobs
fn, args = fixed_jobs()[{name!r}]()
if {traced}:
    tracemalloc.start()
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
fn(*args)
print(tracemalloc.get_traced_memory()[1] / 2 ** 20 if {traced}
      else (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024)
"""


def fresh_peak_mb(name, traced):
    """Peak memory of one call of the fixed-size kernel name in a fresh
    interpreter, in MB: the growth of peak RSS, which stays 0 while the call
    fits under the import's high-water mark, or with traced the peak of the
    allocations tracemalloc sees during the call (Python objects and numpy
    buffers)."""
    code = FRESH_PEAK_CODE.format(folder=str(Path(__file__).resolve().parent), name=name,
                                  traced=traced)
    done = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    return float(done.stdout)


#: fresh interpreters whose import times give import_cli's median
IMPORT_RUNS = 21

#: the command's import after numpy's, timed in a fresh interpreter, in seconds
IMPORT_CLI_CODE = """\
import time
import numpy
start = time.perf_counter()
import modpoisson
import modpoisson.cli
print(time.perf_counter() - start)
"""


def import_cli_median_s():
    """Median wall time of the command's import over IMPORT_RUNS fresh interpreters."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", IMPORT_CLI_CODE], env=env,
                             capture_output=True, text=True, check=True).stdout)
        for _ in range(IMPORT_RUNS))


def zeta_values(ks, a):
    """zeta(k, a) for each k in ks."""
    return [zeta(k, a) for k in ks]


def fixed_jobs():
    """name -> builder of (fn, args) of each fixed-size kernel."""
    theta = Fraction(33, 32)
    return {
        "fq_factor_2_40": lambda: (fq_factor_pmf, (2, 40)),
        "fq_factor_2_60": lambda: (fq_factor_pmf, (2, 60)),
        "fold_rational_400": lambda: (bernoulli_sum_pmf,
                                      ([theta / (theta + i) for i in range(1, 401)], True)),
        "weighted_perm_800": lambda: (weighted_perm_cycle_pmf, (
            np.random.default_rng(250).uniform(0.5, 2.0, 800).tolist(), 800)),
        "residue_product_omega_2j_cold": lambda: (cold(residue_product_eval),
                                                  (Alphabet.omega_limit(), 2j)),
        "omega_pmf_3e6": lambda: (omega_pmf, (3 * 10 ** 6,)),
        "omega_pmf_1e8": lambda: (omega_pmf, (10 ** 8,)),
        "fq_enumeration_2_10": lambda: (fq_factor_histogram_by_enumeration, (2, 10)),
        "suite_hermite": lambda: (run_suite, ("hermite",)),
        "suite_gamma_ratio": lambda: (run_suite, ("gamma-ratio",)),
    }


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
    thetas = np.random.default_rng(250).uniform(0.5, 2.0, 400).tolist()
    for n in (250, 400):
        jobs[f"weighted_perm_{n}"] = (weighted_perm_cycle_pmf, (thetas[:n], n))
    dyadic = [Fraction(1 + 7 * k % 13, 8) for k in range(1, 61)]
    jobs["weighted_perm_rational_60"] = (weighted_perm_cycle_pmf, (dyadic, 60, True))
    jobs.update((name, build()) for name, build in fixed_jobs().items())
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

    peaks = {name: {"peak_rss_mb": fresh_peak_mb(name, False),
                    "peak_traced_mb": fresh_peak_mb(name, True)} for name in fixed_jobs()}
    import_s = import_cli_median_s()
    jobs = kernel_jobs([int(n) for n in args.fold_sizes.split(",")], args.verify_weights)
    for fn, fn_args in jobs.values():  # warm caches and lazy set-up
        fn(*fn_args)
    best = dict.fromkeys(jobs, math.inf)
    for _ in range(args.repeat):
        for name, (fn, fn_args) in jobs.items():
            best[name] = min(best[name], *(timed(fn, *fn_args) for _ in range(3)))
    for name, best_s in best.items():
        print(f"{name:>30}  {best_s * 1e3:9.3f} ms")
    for name, peak in peaks.items():
        print(f"{name:>30}  {peak['peak_rss_mb']:9.3f} MB peak RSS growth, "
              f"{peak['peak_traced_mb']:9.3f} MB traced peak (fresh process)")
    print(f"{'import_cli':>30}  {import_s * 1e3:9.3f} ms median of {IMPORT_RUNS} "
          "fresh processes")

    out = Path(args.out)
    results = json.loads(out.read_text()) if out.exists() else {}
    kernels = {name: {"best_s": best_s} for name, best_s in best.items()}
    for name, peak in peaks.items():
        kernels[name].update(peak)
    kernels["import_cli"] = {"median_s": import_s, "runs": IMPORT_RUNS}
    results[args.label] = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "repeat": args.repeat,
        "kernels": kernels,
    }
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
