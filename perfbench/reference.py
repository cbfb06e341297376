"""A fixed reference job that gauges the machine's speed during a run.

    python3 perfbench/reference.py

It does the kinds of work a `modpoisson` op does, with no `modpoisson` code,
so its time moves with the machine and never with the program: interpreter
start-up and a NumPy import, Python integer and Fraction arithmetic, a loop
of small NumPy vector updates and a compensated sum.  It takes about 0.2 s
on a 2-CPU x86-64 VM.
"""

import math
from fractions import Fraction

import numpy as np


def main():
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


if __name__ == "__main__":
    main()
