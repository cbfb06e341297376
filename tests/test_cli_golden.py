"""Byte-for-byte golden outputs of the `modpoisson` commands.

The goldens in golden/compare.json (the `compare` sweeps) and
golden/commands.json (`pmf`, `scheme` and `verify`) hold the exit code,
stdout and stderr of each invocation below.  Regenerate them only when an
output change is intended:

    PYTHONPATH=src python tests/test_cli_golden.py [CASE ...]

Named cases are rewritten and every other entry is left byte-unchanged;
with no names, every case of both files is rewritten.  Every field that
changes (a CSV cell or a JSON value) is printed to stderr with its old and
new value.
"""

import json
from pathlib import Path

import pytest

from modpoisson.cli import main

GOLDEN = Path(__file__).parent / "golden" / "compare.json"
COMMANDS_GOLDEN = Path(__file__).parent / "golden" / "commands.json"

# 250 in-regime weights in [0.002, 0.014]: lam = 2, sigma^2 = 0.02
WEIGHTS = ",".join(f"{0.002 * (1 + i % 7):g}" for i in range(250))

CASES = {
    "ewens_theorem_b_corollary": [
        "--model", "ewens", "--theta", "1.5", "--n", "200",
        "--bound", "theorem-b,corollary", "--r", "0:4"],
    "bernoulli_singles_first": [
        "--model", "bernoulli", "--weights", WEIGHTS,
        "--bound", "chen-stein,theorem-b,lecam", "--r", "1:3"],
    "duplicate_bound": [
        "--model", "ewens", "--theta", "1", "--n", "120",
        "--bound", "theorem-b,chen-stein,theorem-b", "--r", "1:2"],
    "theorem_c_eps_n": [
        "--model", "bernoulli", "--weights", WEIGHTS,
        "--bound", "theorem-c", "--eps-n", "1e-6", "--rho", "3", "--r", "1:3"],
    "corollary_tail_rn": [
        "--model", "bernoulli", "--weights", WEIGHTS,
        "--bound", "corollary,theorem-a", "--tail-rn", "1e-8", "--r", "0:2"],
    "json_format": [
        "--model", "ewens", "--theta", "0.5", "--n", "100",
        "--bound", "theorem-a,lecam", "--r", "0:2", "--format", "json"],
    "empty_range_ewens": [
        "--model", "ewens", "--theta", "1", "--n", "50", "--r", "4:3"],
    "empty_range_weighted_perm": [
        "--model", "weighted-perm", "--theta-seq", "1,1,1", "--n", "3",
        "--r", "4:3"],
    "empty_range_with_single": [
        "--model", "bernoulli", "--weights", "0.1,0.2,0.05",
        "--bound", "theorem-b,lecam", "--r", "4:3"],
    "single_bound_ignores_invalid_r": [
        "--model", "bernoulli", "--weights", "0.1,0.2,0.05",
        "--bound", "lecam", "--r", "-1"],
    "jobs_2": [
        "--model", "ewens", "--theta", "1", "--n", "200",
        "--bound", "theorem-a,theorem-b", "--r", "0:2", "--jobs", "2"],
    "fq": [
        "--model", "fq", "--q", "2", "--n", "12",
        "--bound", "theorem-b,corollary", "--r", "0:3"],
    "omega": [
        "--model", "omega", "--N", "200", "--bound", "theorem-a", "--r", "1:3"],
    # constant weights: the Ewens rows of --theta 1 --n 3, bar model, family, tv, slack
    "weighted_perm_constant_is_ewens": [
        "--model", "weighted-perm", "--theta-seq", "1,1,1", "--n", "3", "--r", "1"],
    # out of the bounds' regime (lam = 0.21), pinned as it stands
    "omega_n2_out_of_regime": ["--model", "omega", "--N", "2", "--r", "0:2"],
    # theorem-c without --eps-n: an empty bound column
    "theorem_c_no_eps_n": [
        "--model", "bernoulli", "--weights", WEIGHTS,
        "--bound", "theorem-c", "--r", "1:2"],
    "theorem_c_rho_1": [
        "--model", "bernoulli", "--weights", WEIGHTS,
        "--bound", "theorem-c", "--eps-n", "1e-6", "--rho", "1", "--r", "1:2"],
    # lam = 5.9 <= 16 e sigma^2 = 71.5: theorem C's own precondition fails
    "ewens_theorem_c_out_of_regime": [
        "--model", "ewens", "--theta", "1", "--n", "200",
        "--bound", "theorem-c", "--eps-n", "1e-6", "--r", "1:2"],
    "json_order_zero_and_corollary": [
        "--model", "bernoulli", "--weights", WEIGHTS,
        "--bound", "chen-stein,lecam,corollary", "--tail-rn", "1e-8",
        "--r", "0:2", "--format", "json"],
    # only an order-0 bound, which needs Bernoulli weights: one row, no bound
    "weighted_perm_order_zero_no_bound": [
        "--model", "weighted-perm", "--theta-seq", "1,1,1", "--n", "3",
        "--bound", "lecam", "--r", "1"],
    # no default tail r_n and no Bernoulli weights: empty bound columns
    "omega_corollary_lecam_no_bounds": [
        "--model", "omega", "--N", "500", "--bound", "corollary,lecam", "--r", "1:2"],
    # an order-0 name first; the corollary uses the Ewens default tail
    "ewens_order_zero_first_default_tail": [
        "--model", "ewens", "--theta", "2", "--n", "300",
        "--bound", "lecam,corollary,theorem-b", "--r", "0:3"],
}

# 60 fixed cycle weights in [0.5, 2] and 30 fixed non-dyadic Bernoulli weights
THETA_SEQ_60 = ",".join(f"{0.5 + (7 * i) % 13 / 8:g}" for i in range(60))
WEIGHTS_30 = ",".join(f"{0.003 * (1 + (5 * i) % 11):g}" for i in range(30))

# full argv, subcommand first
COMMANDS = {
    "pmf_fq_rational_json": [
        "pmf", "--model", "fq", "--q", "3", "--n", "8", "--rational",
        "--format", "json"],
    "pmf_ewens_rational_n300": [
        "pmf", "--model", "ewens", "--theta", "1", "--n", "300", "--rational"],
    "pmf_bernoulli_degenerate_rational": [
        "pmf", "--model", "bernoulli", "--weights", "0.5,0.25,1,0", "--rational"],
    "pmf_weighted_perm": [
        "pmf", "--model", "weighted-perm", "--theta-seq", "1,0.5,2,1,3,0.25",
        "--n", "6"],
    "pmf_weighted_perm_rational": [
        "pmf", "--model", "weighted-perm", "--theta-seq", "1,0.5,2,1,3,0.25",
        "--n", "6", "--rational"],
    "pmf_omega_n1": ["pmf", "--model", "omega", "--N", "1"],
    "pmf_fq_q2_n40": ["pmf", "--model", "fq", "--q", "2", "--n", "40"],
    "pmf_omega_n100003": ["pmf", "--model", "omega", "--N", "100003"],
    "pmf_weighted_perm_n60": [
        "pmf", "--model", "weighted-perm", "--theta-seq", THETA_SEQ_60, "--n", "60"],
    "pmf_ewens_rational_json_n200": [
        "pmf", "--model", "ewens", "--theta", "0.71875", "--n", "200", "--rational",
        "--format", "json"],
    "pmf_bernoulli_float_weights_rational": [
        "pmf", "--model", "bernoulli", "--weights", WEIGHTS_30, "--rational"],
    "pmf_omega_n1_rational": ["pmf", "--model", "omega", "--N", "1", "--rational"],
    "scheme_b2_negative_entries": [
        "scheme", "--lambda", "2", "--b2", "-0.125", "--r", "2"],
    "scheme_omega_positive": [
        "scheme", "--alphabet", "omega", "--lambda", "12", "--r", "6", "--positive"],
    "scheme_ewens_json": [
        "scheme", "--alphabet", "ewens", "--theta", "1.3", "--lambda", "10",
        "--r", "5", "--format", "json"],
    # eta = 0.60 < 1: no eta warning
    "scheme_b2_eta_below_one": [
        "scheme", "--lambda", "12", "--b2", "-0.05", "--r", "2"],
    "scheme_weights": [
        "scheme", "--weights", "0.1,0.2,0.05", "--lambda", "2", "--r", "3"],
    "scheme_weights_empty": [
        "scheme", "--weights", ",", "--lambda", "2", "--r", "3"],
    "scheme_harmonic": [
        "scheme", "--alphabet", "harmonic", "--lambda", "7.5", "--r", "4"],
    "scheme_fq": [
        "scheme", "--alphabet", "fq", "--q", "3", "--lambda", "9", "--r", "5"],
    "scheme_harmonic_r0_tiny_tolerance": [
        "scheme", "--alphabet", "harmonic", "--lambda", "2", "--r", "0",
        "--tolerance", "1e-20"],
    "verify_oracles": ["verify", "--suite", "oracles"],
    "verify_rates": ["verify", "--suite", "rates"],
    "verify_coefficients": [
        "verify", "--suite", "coefficients", "--seed", "1", "--instances", "5"],
    "verify_theorem_b": [
        "verify", "--suite", "theorem-b", "--seed", "7", "--instances", "20"],
    "verify_charlier": ["verify", "--suite", "charlier"],
    "verify_chen_stein": [
        "verify", "--suite", "chen-stein", "--seed", "7", "--instances", "20"],
    "verify_hermite": ["verify", "--suite", "hermite"],
    "verify_gamma_ratio": ["verify", "--suite", "gamma-ratio"],
}


def _run(args, capsys):
    code = main(["compare"] + args)
    captured = capsys.readouterr()
    return {"exit": code, "stdout": captured.out, "stderr": captured.err}


@pytest.mark.parametrize("case", sorted(CASES))
def test_compare_matches_golden(case, capsys):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    assert _run(CASES[case], capsys) == expected


@pytest.mark.parametrize("case", sorted(COMMANDS))
def test_command_matches_golden(case, capsys):
    expected = json.loads(COMMANDS_GOLDEN.read_text(encoding="utf-8"))[case]
    code = main(COMMANDS[case])
    captured = capsys.readouterr()
    assert {"exit": code, "stdout": captured.out, "stderr": captured.err} == expected


def _flatten(obj, prefix=""):
    """A JSON object as {dotted key: leaf value}."""
    flat = {}
    for key, value in obj.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


def _fields(line, header):
    """One output line as {field name: value}: a JSON object by its dotted
    keys, otherwise CSV cells named by the header's columns."""
    try:
        obj = json.loads(line)
    except ValueError:
        obj = None
    if isinstance(obj, dict):
        return _flatten(obj)
    cells = line.split(",")
    return dict(zip(header if len(header) == len(cells) else range(len(cells)), cells))


def _print_changes(case, old, new):
    """Print to stderr every field of a golden that changed, old -> new."""
    import sys

    for stream, value in new.items():
        before, after = str(old.get(stream)).splitlines(), str(value).splitlines()
        header = before[0].split(",") if before else []
        if len(before) != len(after):
            print(f"{case} {stream}: {before} -> {after}", file=sys.stderr)
            continue
        for number, (a, b) in enumerate(zip(before, after), 1):
            fa, fb = _fields(a, header), _fields(b, header)
            if fa.keys() != fb.keys():
                print(f"{case} {stream} line {number}: {a} -> {b}", file=sys.stderr)
                continue
            for name in fa:
                if fa[name] != fb[name]:
                    print(f"{case} {stream} line {number} {name}: {fa[name]} -> "
                          f"{fb[name]}", file=sys.stderr)


def _regenerate(path, cases, prefix, names=None):
    """Rewrite the goldens of `names` (all of `cases` when None) in `path`,
    printing each changed field's old and new value to stderr."""
    import contextlib
    import io

    old = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    goldens = dict(old) if names else {}
    for case in sorted(cases if names is None else set(names) & set(cases)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(prefix + cases[case])
        goldens[case] = {"exit": code, "stdout": out.getvalue(),
                         "stderr": err.getvalue()}
        _print_changes(case, old.get(case, {}), goldens[case])
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


if __name__ == "__main__":
    import sys

    names = sys.argv[1:] or None
    unknown = set(names or ()) - set(CASES) - set(COMMANDS)
    if unknown:
        sys.exit(f"unknown golden cases: {sorted(unknown)}")
    _regenerate(GOLDEN, CASES, ["compare"], names)
    _regenerate(COMMANDS_GOLDEN, COMMANDS, [], names)
