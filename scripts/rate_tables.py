#!/usr/bin/env python3
"""Rate-decay tables for the cycle-count model with harmonic weights.

Table 1: sup-distance on the unit circle between the empirical residue of
the uniform-permutation cycle count and the limiting product form; the
column of ratios eps_{2n} / eps_n should sit near 1/2 (O(1/n) decay).

Table 2: d_TV between the exact weight-1/i Bernoulli convolution and its
order-r derived scheme, scaled by (log n)^{(r+1)/2}; near-constant columns
evidence the (log n)^{-(r+1)/2} decay.
"""

import argparse
import math

from modpoisson.metrics import total_variation
from modpoisson.models import bernoulli_sum_pmf
from modpoisson.schemes import scheme_measures
from modpoisson.suites import harmonic_residue_error
from modpoisson.symfunc import Alphabet, residue_coeffs


def residue_table(sizes, grid_points):
    eps = {n: harmonic_residue_error(n, grid_points) for n in sizes}
    print(f"{'n':>8}  {'eps_n':>12}  {'eps_n * n':>10}  {'eps_2n/eps_n':>12}")
    for n in sizes:
        ratio = f"{eps[2 * n] / eps[n]:12.4f}" if 2 * n in eps else " " * 12
        print(f"{n:>8}  {eps[n]:12.4e}  {eps[n] * n:10.4f}  {ratio}")


def tv_decay_table(sizes, orders):
    alphabet = Alphabet.harmonic()
    print(f"\n{'n':>8}  " + "  ".join(f"tv*(log n)^{(r + 1) / 2:g} [r={r}]".rjust(20)
                                      for r in orders))
    for n in sizes:
        weights = [1.0 / i for i in range(1, n + 1)]
        pmf = bernoulli_sum_pmf(weights)
        lam = math.fsum(weights)
        schemes = scheme_measures(residue_coeffs(alphabet, max(orders), lam), orders)
        cells = [f"{total_variation(pmf, nu) * math.log(n) ** ((r + 1) / 2.0):20.5f}"
                 for r, nu in zip(orders, schemes)]
        print(f"{n:>8}  " + "  ".join(cells))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="200,400,800,1600",
                    help="comma-separated n for the residue table")
    ap.add_argument("--tv-sizes", default="1000,10000,100000,1000000")
    ap.add_argument("--orders", default="0,2,3")
    ap.add_argument("--grid-points", type=int, default=16)
    args = ap.parse_args()
    residue_table([int(t) for t in args.sizes.split(",")], args.grid_points)
    tv_decay_table([int(t) for t in args.tv_sizes.split(",")],
                   [int(t) for t in args.orders.split(",")])


if __name__ == "__main__":
    main()
