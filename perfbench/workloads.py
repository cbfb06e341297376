"""Workloads of the modpoisson benchmark: seeded inputs, op lists, output checks.

Each op is one `modpoisson` CLI invocation.  The workload seed draws the
Bernoulli weights, theta values, theta-sequences and scheme coefficients
`b`; it never changes a size, so every seed does the same amount of work.
Inputs are written to files before timing starts and the program only sees
the resulting flags and files.

An op marked `probe` exercises a known defect: it fails at the commit that
introduced the benchmark.  Probes run, and are checked, in every traced
pass, where they count towards `failed_ratio` and `<layer>.errors`; they
are left out of the timed passes, so that fixing a defect (which makes the
op run to completion, and so take longer) does not read as a slowdown.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: verify suites whose check count is fixed by the suite's own grids
VERIFY_CHECKS = {"hermite": 31 * 45 + 16 * 3 * 17 + 30 * 41 + 20 * 3 * 8,
                 "gamma-ratio": 96 * 64 + 8 * 7, "rates": 3}


class CheckFailed(Exception):
    """An op's output broke its contract."""


@dataclass(frozen=True)
class Op:
    name: str
    command: str          # pmf | scheme | compare | verify
    args: tuple           # CLI arguments after the command, without --output
    expect: object = None  # compare: row count; verify: check count
    probe: bool = False

    def argv(self, output: Path) -> list:
        return [self.command, *self.args, "--output", str(output)]

    def check(self, text: str) -> None:
        """Raise CheckFailed unless `text`, the op's output, meets its contract."""
        {"pmf": _check_pmf, "scheme": _check_scheme, "compare": _check_compare,
         "verify": _check_verify}[self.command](self, text)


def _masses(op, text):
    if "--format" in op.args and op.args[op.args.index("--format") + 1] == "json":
        return [float(m) for m in json.loads(text)["masses"]]
    lines = text.splitlines()
    if not lines or lines[0] != "k,mass":
        raise CheckFailed("missing k,mass header")
    return [float(line.split(",", 1)[1]) for line in lines[1:]]


def _check_sum(masses):
    if not masses:
        raise CheckFailed("empty measure")
    total = math.fsum(masses)
    if not abs(total - 1.0) <= 1e-10:
        raise CheckFailed(f"masses sum to {total!r}, not 1 within 1e-10")


def _check_pmf(op, text):
    masses = _masses(op, text)
    if min(masses) < 0.0:
        raise CheckFailed(f"negative pmf mass {min(masses)!r}")
    _check_sum(masses)


def _check_scheme(op, text):
    _check_sum(_masses(op, text))


def _check_compare(op, text):
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    if "holds" not in header:
        raise CheckFailed("missing compare header")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != op.expect:
        raise CheckFailed(f"{len(rows)} rows, expected {op.expect}")
    if any(row[header.index("holds")] == "false" for row in rows):
        raise CheckFailed("a bound row has holds=false")


def _check_verify(op, text):
    result = json.loads(text)
    if result.get("passed") is not True:
        raise CheckFailed(f"suite failed: {result.get('failures')}")
    suite = op.args[op.args.index("--suite") + 1]
    if suite == "charlier":
        # one check per support point of each (lambda, order) pair; the
        # support must at least cover lambda +- 6 sqrt(lambda)
        floor = sum(9 * math.ceil(12.0 * math.sqrt(lam)) for lam in (1, 5, 20, 50))
        if result["checks"] < floor:
            raise CheckFailed(f"{result['checks']} checks, expected >= {floor}")
    elif result["checks"] != op.expect:
        raise CheckFailed(f"{result['checks']} checks, expected {op.expect}")


def _f(x) -> str:
    return repr(float(x))


def _in_regime_weights(rng, n):
    """n weights in [0, 0.05] with lambda > 16 e sigma^2 (the theorem-B regime).

    0.05 * Beta(1, 4) gives E[p] / E[p^2] = 60 against the 16 e ~ 43.5 the
    regime needs; a plain uniform on [0, 0.05] only reaches 30.
    """
    weights = 0.05 * rng.beta(1.0, 4.0, size=n)
    if not weights.sum() > 16.0 * math.e * float(weights @ weights):
        raise RuntimeError("seeded weights left the theorem-B regime")
    return weights


def _coefficients(rng, r):
    """b_1..b_r of a virtual alphabet: b_1 = 0, b_2 = -sigma^2/2, and each
    higher b_s drawn inside the cap |b_s| <= (e sigma^2 / s)^(s/2)."""
    sigma2 = rng.uniform(0.5, 2.0)
    b = [0.0, -sigma2 / 2.0]
    for s in range(3, r + 1):
        b.append(rng.uniform(-1.0, 1.0) * (math.e * sigma2 / s) ** (s / 2.0))
    return ",".join(_f(x) for x in b[:r])


def _dyadic_theta(rng) -> str:
    """theta = k/32 with k odd, in [0.5, 2.5].

    The rational mode folds Fraction(theta) exactly, and its cost grows with
    the denominator: a full-precision float (denominator 2^52) costs about
    eight times as much as k/32.  An odd k pins the denominator to 32 for
    every seed.
    """
    return _f((2 * int(rng.integers(8, 40)) + 1) / 32)


def _write_weights(path: Path, weights) -> str:
    path.write_text("".join(f"{_f(w)}\n" for w in weights), encoding="utf-8")
    return str(path)


def sweep(rng, work: Path) -> list:
    """The paper's tv-versus-bound table across all four families."""
    inside = _write_weights(work / "bernoulli_in.csv", _in_regime_weights(rng, 10_000))
    outside = _write_weights(work / "bernoulli_out.csv",
                             rng.uniform(0.0, 0.3, size=6000))
    theta = _f(rng.uniform(0.8, 1.6))
    return [
        Op("compare-ewens", "compare",
           ("--model", "ewens", "--theta", theta, "--n", "20000", "--r", "0:6",
            "--bound", "theorem-b,corollary"), expect=14),
        Op("compare-bernoulli", "compare",
           ("--model", "bernoulli", "--weights-file", inside, "--r", "1:6",
            "--bound", "theorem-b,theorem-a,chen-stein,lecam"), expect=14),
        Op("compare-fq", "compare",
           ("--model", "fq", "--q", "2", "--n", "32", "--r", "1:4"), expect=4),
        Op("compare-omega", "compare",
           ("--model", "omega", "--N", "1000000", "--r", "0:4"), expect=5),
        # defect: the 1e-15 Poisson tail cut is multiplied by |b_s| ~ sigma^(2s)
        Op("compare-bernoulli-out-of-regime", "compare",
           ("--model", "bernoulli", "--weights-file", outside, "--r", "1:8",
            "--bound", "theorem-b"), expect=8, probe=True),
    ]


def verify(rng, work: Path) -> list:
    """Thousands of small scheme builds, distances, power sums and margins."""
    seeds = [str(int(s)) for s in rng.integers(0, 2 ** 31, size=3)]
    ops = [
        Op("verify-theorem-b", "verify",
           ("--suite", "theorem-b", "--seed", seeds[0], "--instances", "200"),
           expect=6 * 200),
        Op("verify-chen-stein", "verify",
           ("--suite", "chen-stein", "--seed", seeds[1], "--instances", "200"),
           expect=3 * 200),
        Op("verify-coefficients", "verify",
           ("--suite", "coefficients", "--seed", seeds[2], "--instances", "500"),
           expect=30 * 500),
        Op("verify-charlier", "verify", ("--suite", "charlier")),
    ]
    ops += [Op(f"verify-{suite}", "verify", ("--suite", suite), expect=checks)
            for suite, checks in VERIFY_CHECKS.items()]
    return ops


def exact(rng, work: Path) -> list:
    """Full measures written out: rational recursions, the sieve, the Poisson walk."""
    weights = _write_weights(work / "bernoulli_1e5.csv", _in_regime_weights(rng, 100_000))
    theta_seq = ",".join(_f(t) for t in rng.uniform(0.5, 2.0, size=250))
    return [
        Op("pmf-fq-2-40", "pmf", ("--model", "fq", "--q", "2", "--n", "40")),
        Op("pmf-fq-3-24", "pmf", ("--model", "fq", "--q", "3", "--n", "24",
                                  "--rational", "--format", "json")),
        Op("pmf-omega", "pmf", ("--model", "omega", "--N", "3000000")),
        Op("pmf-bernoulli", "pmf", ("--model", "bernoulli", "--weights-file", weights)),
        Op("pmf-ewens", "pmf", ("--model", "ewens", "--theta", _dyadic_theta(rng),
                                "--n", "200", "--rational", "--format", "json")),
        Op("pmf-weighted-perm", "pmf", ("--model", "weighted-perm",
                                        "--theta-seq", theta_seq, "--n", "250")),
        Op("scheme-1e5", "scheme", ("--lambda", "1e5", "--r", "3",
                                    "--b", _coefficients(rng, 3))),
        # defect: "Poisson support ran away"; once fixed, the 1e-10 sum
        # check still catches poisson_pmf's lost normalization above 2e5
        Op("scheme-1e6", "scheme", ("--lambda", "1e6", "--r", "2",
                                    "--b", _coefficients(rng, 2)), probe=True),
        Op("scheme-omega", "scheme", ("--alphabet", "omega", "--lambda", "12",
                                      "--r", "6", "--positive")),
        Op("scheme-ewens", "scheme", ("--alphabet", "ewens",
                                      "--theta", _f(rng.uniform(0.5, 2.5)),
                                      "--lambda", "10", "--r", "5", "--format", "json")),
    ]


WORKLOADS = {"sweep": sweep, "verify": verify, "exact": exact}

#: layers each workload must reach (a non-zero call count in a traced pass)
LAYERS_USED = {
    "sweep": ("cli", "models", "schemes", "metrics", "symfunc", "io"),
    "verify": ("cli", "models", "schemes", "metrics", "symfunc", "specialfn", "suites"),
    "exact": ("cli", "models", "schemes", "symfunc", "io"),
}


def build(workload: str, seed: int, work: Path) -> list:
    """The op list of `workload`, with its input files written under `work`."""
    return WORKLOADS[workload](np.random.default_rng(seed), work)
