"""Command-line front end: modpoisson <pmf|scheme|compare|verify>.

Scripts-and-reports oriented: exact pmfs, order-r schemes, bound-sweep
tables (CSV or JSON lines), and named verification suites.  All
randomized suites take a mandatory --seed, floats serialize with 17
significant digits, and identical invocations produce byte-identical
output.
"""

import argparse
import atexit
import gc
import math
import re
import sys

import numpy as np

from . import io, metrics, schemes, suites, symfunc
from .models import ModelSpec
from .symfunc import Alphabet, ResidueCoeffs

__all__ = ["main"]

# A command is one short process.  At exit the interpreter would run full
# collections over every object the numpy and modpoisson imports left
# behind (about 20 ms of a command's run) to free memory the OS reclaims
# anyway; frozen objects are skipped.  The freeze happens only at exit, so
# library callers and in-process main() calls keep normal collection.
atexit.register(gc.freeze)


def _parse_float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip() != ""]


def _parse_r_range(text):
    """'2' -> range(2, 3); '0:4' -> range(0, 5); '4:3' -> an empty sweep."""
    lo, hi = map(int, text.split(":", 1)) if ":" in text else (int(text),) * 2
    symfunc.check_order(hi)  # before the model's pmf is built
    return range(lo, hi + 1)


def _add_output_flags(p):
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--output", default="-", help="output path, '-' for stdout")


def _dest(flag):
    """argparse's own dest of a long flag: '--weights-file' -> 'weights_file'."""
    return flag[2:].replace("-", "_")


#: --model families but bernoulli (it reads one of two weight sources): constructor, flags
_MODELS = {"ewens": (ModelSpec.ewens, ("--theta", "--n")),
           "weighted-perm": (lambda seq, n: ModelSpec.weighted_perm(_parse_float_list(seq), n),
                             ("--theta-seq", "--n")),
           "fq": (ModelSpec.fq_poly, ("--q", "--n")),
           "omega": (ModelSpec.omega, ("--N",))}

#: --alphabet names: constructor, and the flags whose values precede the tolerance
_ALPHABETS = {"harmonic": (Alphabet.harmonic, ()),
              "omega": (Alphabet.omega_limit, ()),
              "ewens": (Alphabet.ewens_limit, ("--theta",)),
              "fq": (Alphabet.fq_limit, ("--q",))}


def _from_table(table, name, what, args, *rest):
    """table[name]'s constructor called with the values of its flags, then rest."""
    make, flags = table[name]
    values = [getattr(args, _dest(flag)) for flag in flags]
    if None in values:
        raise ValueError(f"{name} {what} needs {' and '.join(flags)}")
    return make(*values, *rest)


def _add_model_flags(p):
    p.add_argument("--model", required=True, choices=("bernoulli", *_MODELS))
    p.add_argument("--weights", help="comma-separated Bernoulli probabilities")
    p.add_argument("--weights-file", help="CSV file, one probability per line")
    p.add_argument("--theta", type=float)
    p.add_argument("--theta-seq", help="comma-separated cycle weights")
    p.add_argument("--n", type=int)
    p.add_argument("--q", type=int)
    p.add_argument("--N", type=int)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="modpoisson",
        description="exact discrete models, signed Poisson-type approximation "
                    "schemes, and total-variation bound verification")
    sub = parser.add_subparsers(dest="command", required=True)

    p_pmf = sub.add_parser("pmf", help="write the exact pmf of a model")
    _add_model_flags(p_pmf)
    p_pmf.add_argument("--rational", action="store_true")
    _add_output_flags(p_pmf)

    p_scheme = sub.add_parser("scheme", help="write an order-r scheme measure")
    p_scheme.add_argument("--lambda", dest="lam", type=float, required=True)
    p_scheme.add_argument("--r", type=int)
    p_scheme.add_argument("--b", help="comma-separated residue coefficients b_1..b_r")
    p_scheme.add_argument("--b2", type=float, help="shorthand for b = (0, b2)")
    p_scheme.add_argument("--weights")
    p_scheme.add_argument("--weights-file")
    p_scheme.add_argument("--alphabet", choices=_ALPHABETS)
    p_scheme.add_argument("--theta", type=float)
    p_scheme.add_argument("--q", type=int)
    p_scheme.add_argument("--positive", action="store_true",
                          help="sweep negative mass into a true pmf")
    p_scheme.add_argument("--tolerance", type=float, default=1e-12)
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
    p_cmp.add_argument("--tolerance", type=float, default=1e-12)
    _add_output_flags(p_cmp)

    p_ver = sub.add_parser("verify", help="run a named verification suite")
    p_ver.add_argument("--suite", required=True, choices=suites.SUITE_NAMES)
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--instances", type=int)
    p_ver.add_argument("--output", default="-")
    return parser


def _model_from_args(args) -> ModelSpec:
    if args.model != "bernoulli":
        return _from_table(_MODELS, args.model, "model", args)
    weights = _collect_weights(args)
    if weights is None:
        raise ValueError("bernoulli model needs --weights or --weights-file")
    return ModelSpec.bernoulli(weights)


#: the flags that each give a whole Bernoulli law or scheme: at most one per call
_SOURCES = ("--alphabet", "--weights", "--weights-file", "--b", "--b2")


def _collect_weights(args):
    """The weights of --weights or --weights-file, or None; two sources of a
    law or of scheme coefficients are refused, never silently dropped."""
    given = [flag for flag in _SOURCES if getattr(args, _dest(flag), None) is not None]
    if len(given) > 1:
        raise ValueError(f"pass one of {given[0]} and {given[1]}, not both")
    if args.weights:
        return _parse_float_list(args.weights)
    if args.weights_file:
        return io.read_weights_csv(args.weights_file)
    return None


def _emit(text: str, output: str):
    text = text if text.endswith("\n") else text + "\n"
    if output == "-":
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_measure(measure, args):
    if args.format == "csv":
        _emit("\n".join(io.mass_csv_lines(measure)), args.output)
    else:
        import json  # loaded only by the commands that write JSON
        _emit(json.dumps(io.mass_json_obj(measure), sort_keys=True), args.output)


def _cmd_pmf(args) -> int:
    spec = _model_from_args(args)
    _emit_measure(spec.pmf(rational=args.rational).to_float(), args)
    return 0


def _scheme_coeffs(args) -> ResidueCoeffs:
    if not 0.0 < args.tolerance < math.inf:  # --weights and --b read none, yet it is refused
        raise ValueError(f"tolerance must be finite and positive, got {args.tolerance:g}")
    weights = _collect_weights(args)
    if args.alphabet or weights is not None:
        if args.r is None:
            flag = "--alphabet" if args.alphabet else "--weights"
            raise ValueError(f"{flag} needs an explicit --r")
        alphabet = (_from_table(_ALPHABETS, args.alphabet, "alphabet", args, args.tolerance)
                    if args.alphabet else Alphabet.finite(weights))
        return symfunc.residue_coeffs(alphabet, args.r, args.lam)
    b = []
    if args.b:
        b = _parse_float_list(args.b)
    elif args.b2 is not None:
        b = [0.0, args.b2]
    r = len(b) if args.r is None else args.r
    if r < 0:
        raise ValueError("r must be >= 0")
    symfunc.check_order(r)
    b = (b + [0.0] * r)[:r]
    return ResidueCoeffs(args.lam, tuple(b))


def _cmd_scheme(args) -> int:
    rc = _scheme_coeffs(args)
    sigma2 = -2.0 * rc.b[1] if rc.order >= 2 else 0.0  # b_2 = -p_2/2
    if sigma2 > 0.0 and (eta := metrics.eta(rc.lam, sigma2)) >= 1.0:
        print(f"warning: eta = {eta:.4g} >= 1, the order-r bounds are "
              "inapplicable here; the measure itself is still exact",
              file=sys.stderr)
    measure = schemes.scheme_measure(rc)
    if args.positive:
        measure = schemes.rectify_positive(measure)
    elif negatives := np.count_nonzero(measure.masses < 0.0):
        print(f"warning: {negatives} negative entries in the signed measure "
              "(use --positive to sweep them)", file=sys.stderr)
    _emit_measure(measure, args)
    return 0


def _cmd_compare(args) -> int:
    spec = _model_from_args(args)
    names = tuple(tok.strip() for tok in args.bound.split(",") if tok.strip())
    reports = metrics.verify_bounds(spec, _parse_r_range(args.r), which=names,
                                    tolerance=args.tolerance, eps_n=args.eps_n,
                                    rho=args.rho, tail_rn=args.tail_rn)
    if far := [rep for rep in reports if rep.tv > 1.0]:  # two laws are at most 1 apart
        print(f"warning: tv = {max(rep.tv for rep in far):.4g} > 1 from r = "
              f"{min(rep.r for rep in far)} at lambda = {far[0].lam:.4g}: the scheme is "
              "farther from the model than any law can be",
              file=sys.stderr)
    if reports and (row := reports[0]).lam > row.n:  # every family's count is at most n
        print(f"warning: lambda = {row.lam:.4g} > n = {row.n}: the rate exceeds the "
              "largest value the model takes", file=sys.stderr)
    if args.format == "csv":
        _emit("\n".join(io.report_csv_lines(reports)), args.output)
    else:
        _emit("\n".join(io.report_jsonl_lines(reports)), args.output)
    return 0


def _cmd_verify(args) -> int:
    try:
        result = suites.run_suite(args.suite, seed=args.seed,
                                  instances=args.instances)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import json
    _emit(json.dumps(result.to_json_obj(), sort_keys=True), args.output)
    return 0 if result.passed else 1


#: a flag value argparse would take for an option: -inf, -nan, -1e-6, -0.1,0.2
_NEGATIVE_VALUE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _join_negative_values(argv):
    """`--flag -value` as `--flag=-value`: argparse reads a token starting
    with '-' as an option unless it is a plain number such as -1 or -.5."""
    out = []
    for tok in argv:
        if (out and out[-1].startswith("--") and "=" not in out[-1]
                and _NEGATIVE_VALUE.match(tok)):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _build_parser().parse_args(_join_negative_values(argv))
    handlers = {"pmf": _cmd_pmf, "scheme": _cmd_scheme,
                "compare": _cmd_compare, "verify": _cmd_verify}
    try:
        return handlers[args.command](args)
    except (ValueError, OverflowError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
