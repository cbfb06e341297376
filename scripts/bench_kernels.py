#!/usr/bin/env python3
"""Best-of-N timings of the kernels under `modpoisson verify`.

    PYTHONPATH=src python scripts/bench_kernels.py --label change

Times the float Bernoulli fold at --fold-sizes weights, power_sums_finite
of --verify-weights weights to order 30, one
verify_bounds(ModelSpec.bernoulli(w), range(1, 7)), the theorem-b suite's
per-instance call, on --verify-weights weights, the Poisson base
poisson_pmf at lambda = 10^3 and 10^5, and, on the fold of the most
weights, total_variation against its Poisson law and io.mass_csv_lines.
Weights are seeded, so every run times the same inputs.

Each of --repeat rounds runs a fixed reference job, the work of
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
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from modpoisson.io import mass_csv_lines
from modpoisson.metrics import total_variation, verify_bounds
from modpoisson.models import ModelSpec, bernoulli_sum_pmf
from modpoisson.schemes import poisson_pmf
from modpoisson.symfunc import power_sums_finite

#: scaled times read as seconds on a machine where the reference job takes
#: this long; in process it took 0.12-0.19 s on a loaded 2-CPU x86-64 VM
REFERENCE_S = 0.2


def reference_job():
    """The work of perfbench/reference.py's main(), with no modpoisson code."""
    acc = Fraction(0)
    for i in range(1, 1500):
        acc += Fraction(i, i * i + 1)
    total = 0
    for i in range(200_000):
        total += (i * i) % 7
    buf = np.zeros(512)
    buf[0] = 1.0
    for i in range(20_000):
        p = 1.0 / (i + 2.0)
        carried = p * buf[:300]
        buf[:300] *= 1.0 - p
        buf[1:301] += carried
    return acc, total, math.fsum(buf.tolist() * 200)


def timed(fn, *args):
    """Wall time of one call of fn(*args), in seconds."""
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def kernel_jobs(fold_sizes, verify_weights):
    """name -> (fn, args) of each timed kernel."""
    rng = np.random.default_rng(2018)
    jobs = {f"fold_{n}": (bernoulli_sum_pmf, (rng.uniform(0.0, 0.05, size=n).tolist(),))
            for n in fold_sizes}
    weights = rng.uniform(0.0, 0.02, size=verify_weights).tolist()
    jobs[f"power_sums_finite_{verify_weights}x30"] = (power_sums_finite, (weights, 30))
    spec = ModelSpec.bernoulli(weights)
    jobs[f"verify_bounds_{verify_weights}"] = (verify_bounds, (spec, range(1, 7)))
    for lam in (1000, 100000):
        jobs[f"poisson_{lam}"] = (poisson_pmf, (lam,))
    n = max(fold_sizes)
    fold_weights = jobs[f"fold_{n}"][1][0]
    fold = bernoulli_sum_pmf(fold_weights)
    jobs[f"tv_{n}"] = (total_variation, (fold, poisson_pmf(math.fsum(fold_weights))))
    jobs[f"mass_csv_{n}"] = (mass_csv_lines, (fold,))
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
