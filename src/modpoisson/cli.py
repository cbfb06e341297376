"""Command-line front end: modpoisson <pmf|scheme|compare|verify>.

Scripts-and-reports oriented: exact pmfs, order-r schemes, bound-sweep
tables (CSV or JSON lines), and named verification suites.  All
randomized suites take a mandatory --seed, floats serialize with 17
significant digits, and identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

from . import io, metrics, schemes, suites, symfunc
from .models import ModelSpec
from .symfunc import Alphabet, ResidueCoeffs

__all__ = ["main", "RunConfig"]


@dataclass(frozen=True)
class RunConfig:
    """One parsed invocation.  The seed alone determines every randomized
    instance a run generates, so equal configs give byte-identical output."""

    command: str
    fmt: str = "csv"
    output: str = "-"
    tolerance: float = 1e-12
    rational: bool = False
    seed: int = None
    options: SimpleNamespace = field(default_factory=SimpleNamespace)

    @classmethod
    def from_args(cls, args):
        shared = {"command", "format", "output", "tolerance", "rational", "seed"}
        extras = {k: v for k, v in vars(args).items() if k not in shared}
        return cls(command=args.command,
                   fmt=getattr(args, "format", "csv"),
                   output=getattr(args, "output", "-"),
                   tolerance=getattr(args, "tolerance", 1e-12),
                   rational=getattr(args, "rational", False),
                   seed=getattr(args, "seed", None),
                   options=SimpleNamespace(**extras))


def _parse_float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _parse_r_range(text):
    """'2' -> [2]; '0:4' -> [0, 1, 2, 3, 4]; '4:3' -> [] (empty sweep)."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(text)]


def _add_output_flags(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default="-", help="output path, '-' for stdout")
    p.add_argument("--tolerance", type=float, default=1e-12)


def _add_model_flags(p):
    p.add_argument("--model", required=True,
                   choices=("bernoulli", "ewens", "weighted-perm", "fq", "omega"))
    p.add_argument("--weights", help="comma-separated Bernoulli probabilities")
    p.add_argument("--weights-file", help="CSV file, one probability per line")
    p.add_argument("--theta", type=float)
    p.add_argument("--theta-seq", help="comma-separated cycle weights")
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--N", dest="big_n", type=int)
    p.add_argument("--rational", action="store_true")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="modpoisson",
        description="exact discrete models, signed Poisson-type approximation "
                    "schemes, and total-variation bound verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pmf = sub.add_parser("pmf", help="write the exact pmf of a model")
    _add_model_flags(p_pmf)
    _add_output_flags(p_pmf)

    p_scheme = sub.add_parser("scheme", help="write an order-r scheme measure")
    p_scheme.add_argument("--lambda", dest="lam", type=float, required=True)
    p_scheme.add_argument("--r", type=int)
    p_scheme.add_argument("--b", help="comma-separated residue coefficients b_1..b_r")
    p_scheme.add_argument("--b2", type=float, help="shorthand for b = (0, b2)")
    p_scheme.add_argument("--weights")
    p_scheme.add_argument("--weights-file")
    p_scheme.add_argument("--alphabet", choices=("harmonic", "omega", "ewens", "fq"))
    p_scheme.add_argument("--theta", type=float)
    p_scheme.add_argument("--q", type=int)
    p_scheme.add_argument("--positive", action="store_true",
                          help="sweep negative mass into a true pmf")
    _add_output_flags(p_scheme)

    p_cmp = sub.add_parser("compare", help="tv-versus-bound sweep over orders r")
    _add_model_flags(p_cmp)
    p_cmp.add_argument("--r", required=True, help="order or inclusive range a:b")
    p_cmp.add_argument("--bound", default="theorem-b",
                       help="comma-separated bound names "
                            f"(known: {', '.join(metrics.KNOWN_BOUNDS)})")
    p_cmp.add_argument("--eps-n", type=float)
    p_cmp.add_argument("--rho", type=float, default=2.0)
    p_cmp.add_argument("--tail-rn", type=float)
    p_cmp.add_argument("--jobs", type=int, default=1,
                       help="accepted for compatibility; ignored")
    _add_output_flags(p_cmp)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--suite", required=True, choices=suites.SUITE_NAMES)
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--instances", type=int)
    p_ver.add_argument("--output", default="-")
    return parser


def _model_from_config(config: RunConfig) -> ModelSpec:
    opt = config.options
    if opt.model == "bernoulli":
        weights = _collect_weights(opt)
        if weights is None:
            raise ValueError("bernoulli model needs --weights or --weights-file")
        return ModelSpec.bernoulli(weights)
    if opt.model == "ewens":
        if opt.theta is None or opt.n is None:
            raise ValueError("ewens model needs --theta and --n")
        return ModelSpec.ewens(opt.theta, opt.n)
    if opt.model == "weighted-perm":
        if not opt.theta_seq or opt.n is None:
            raise ValueError("weighted-perm model needs --theta-seq and --n")
        return ModelSpec.weighted_perm(_parse_float_list(opt.theta_seq), opt.n)
    if opt.model == "fq":
        if opt.q is None or opt.n is None:
            raise ValueError("fq model needs --q and --n")
        return ModelSpec.fq_poly(opt.q, opt.n)
    if opt.big_n is None:
        raise ValueError("omega model needs --N")
    return ModelSpec.omega(opt.big_n)


def _collect_weights(opt):
    if getattr(opt, "weights", None):
        return _parse_float_list(opt.weights)
    if getattr(opt, "weights_file", None):
        return io.read_weights_csv(opt.weights_file)
    return None


def _emit(text: str, output: str):
    if output == "-":
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _emit_measure(measure, config: RunConfig):
    if config.fmt == "csv":
        _emit("\n".join(io.mass_csv_lines(measure)), config.output)
    else:
        _emit(json.dumps(io.mass_json_obj(measure), sort_keys=True), config.output)


def _cmd_pmf(config: RunConfig) -> int:
    spec = _model_from_config(config)
    _emit_measure(spec.pmf(rational=config.rational).to_float(), config)
    return 0


def _named_alphabet(config: RunConfig) -> Alphabet:
    opt, tol = config.options, config.tolerance
    if opt.alphabet == "harmonic":
        return Alphabet.harmonic(tol)
    if opt.alphabet == "omega":
        return Alphabet.omega_limit(tol)
    if opt.alphabet == "ewens":
        if opt.theta is None:
            raise ValueError("ewens alphabet needs --theta")
        return Alphabet.ewens_limit(opt.theta, tol)
    if opt.q is None:
        raise ValueError("fq alphabet needs --q")
    return Alphabet.fq_limit(opt.q, tol)


def _scheme_coeffs(config: RunConfig) -> ResidueCoeffs:
    opt = config.options
    lam = opt.lam
    if opt.alphabet:
        if opt.r is None:
            raise ValueError("--alphabet needs an explicit --r")
        if opt.r == 0:
            return ResidueCoeffs(lam, ())
        ps = symfunc.power_sums_infinite(_named_alphabet(config), max(2, opt.r))
        return symfunc.virtual_residue_coeffs(ps, opt.r, lam)
    weights = _collect_weights(opt)
    if weights is not None:
        if opt.r is None:
            raise ValueError("--weights needs an explicit --r")
        if opt.r == 0 or not weights:
            return ResidueCoeffs(lam, (0.0,) * (opt.r or 0))
        ps = symfunc.power_sums_finite(weights, max(2, opt.r))
        return symfunc.virtual_residue_coeffs(ps, opt.r, lam)
    b = []
    if opt.b:
        b = _parse_float_list(opt.b)
    elif opt.b2 is not None:
        b = [0.0, opt.b2]
    r = len(b) if opt.r is None else opt.r
    b = (b + [0.0] * r)[:r]
    return ResidueCoeffs(lam, tuple(b))


def _cmd_scheme(config: RunConfig) -> int:
    opt = config.options
    rc = _scheme_coeffs(config)
    sigma2 = -2.0 * rc.b[1] if rc.order >= 2 else None  # b_2 = -p_2/2
    if sigma2 is not None and sigma2 > 0.0:
        eta = 4.0 * math.sqrt(math.e * sigma2 / rc.lam)
        if eta >= 1.0:
            print(f"warning: eta = {eta:.4g} >= 1, the order-r bounds are "
                  "inapplicable here; the measure itself is still exact",
                  file=sys.stderr)
    measure = schemes.scheme_measure(rc)
    if opt.positive:
        measure = schemes.rectify_positive(measure)
    else:
        negatives = sum(1 for m in measure.masses if m < 0.0)
        if negatives:
            print(f"warning: {negatives} negative entries in the signed measure "
                  "(use --positive to sweep them)", file=sys.stderr)
    _emit_measure(measure, config)
    return 0


def _cmd_compare(config: RunConfig) -> int:
    opt = config.options
    spec = _model_from_config(config)
    r_list = _parse_r_range(opt.r)
    names = tuple(tok.strip() for tok in opt.bound.split(",") if tok.strip())
    unknown = [n for n in names if n not in metrics.KNOWN_BOUNDS]
    if unknown:
        raise ValueError(f"unknown bound names: {unknown}")
    # per-r rows print before the single rows, whatever the order of --bound
    per_r = tuple(n for n in names if n not in ("chen-stein", "lecam"))
    singles = tuple(n for n in names if n in ("chen-stein", "lecam"))
    if not per_r:
        r_list = []  # no row uses --r, so an invalid order is not an error
    reports = []
    if r_list or singles:  # an empty sweep computes no model
        reports = metrics.verify_bounds(spec, r_list, which=per_r + singles,
                                        tolerance=config.tolerance, eps_n=opt.eps_n,
                                        rho=opt.rho, tail_rn=opt.tail_rn)
    if config.fmt == "csv":
        _emit("\n".join(io.report_csv_lines(reports)), config.output)
    else:
        _emit("\n".join(io.report_jsonl_lines(reports)), config.output)
    return 0


def _cmd_verify(config: RunConfig) -> int:
    opt = config.options
    try:
        result = suites.run_suite(opt.suite, seed=config.seed,
                                  instances=opt.instances)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(json.dumps(result.to_json_obj(), sort_keys=True), config.output)
    return 0 if result.passed else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig.from_args(args)
    handlers = {"pmf": _cmd_pmf, "scheme": _cmd_scheme,
                "compare": _cmd_compare, "verify": _cmd_verify}
    try:
        return handlers[config.command](config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
