#!/usr/bin/env python3
"""Distinct-prime-divisor counts of a uniform integer versus Poisson laws.

For each N, counts the exact distribution of the number of distinct prime
divisors on {1..N} (models.omega_pmf, from prime counts, no sieve to N)
and reports its total variation distance to Po(log log N + gamma) (the
mod-Poisson rate) and to Po(log log N).  At desk-scale N the shifted rate
is not yet the better plain-Poisson fit; the derived order-2 scheme column
shows what the residue correction buys.
"""

import argparse
import math

from modpoisson.metrics import total_variation
from modpoisson.models import ModelSpec, model_lambda
from modpoisson.schemes import derived_scheme, poisson_pmf


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="10000,100000,1000000,10000000")
    args = ap.parse_args()
    print(f"{'N':>10}  {'lam':>7}  {'tv Po(ll N+g)':>14}  {'tv Po(ll N)':>12}  "
          f"{'tv order-2':>11}")
    for n in (int(t) for t in args.sizes.split(",")):
        spec = ModelSpec.omega(n)
        pmf, lam, alphabet = spec.pmf(), model_lambda(spec), spec.alphabet(1e-12)
        tv_shift = total_variation(pmf, poisson_pmf(lam))
        tv_plain = total_variation(pmf, poisson_pmf(math.log(math.log(n))))
        tv_scheme = total_variation(pmf, derived_scheme(lam, alphabet, 2))
        print(f"{n:>10}  {lam:7.4f}  {tv_shift:14.6f}  {tv_plain:12.6f}  "
              f"{tv_scheme:11.6f}")


if __name__ == "__main__":
    main()
