"""Byte-for-byte golden outputs of `modpoisson compare`.

The goldens in golden/compare.json hold the exit code, stdout and stderr of
each invocation below.  Regenerate them only when an output change is
intended:  PYTHONPATH=src python tests/test_cli_golden.py
"""

import json
from pathlib import Path

import pytest

from modpoisson.cli import main

GOLDEN = Path(__file__).parent / "golden" / "compare.json"

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
    "weighted_perm_sweep_fails": [
        "--model", "weighted-perm", "--theta-seq", "1,1,1", "--n", "3", "--r", "1"],
}


def _run(args, capsys):
    code = main(["compare"] + args)
    captured = capsys.readouterr()
    return {"exit": code, "stdout": captured.out, "stderr": captured.err}


@pytest.mark.parametrize("case", sorted(CASES))
def test_compare_matches_golden(case, capsys):
    expected = json.loads(GOLDEN.read_text(encoding="utf-8"))[case]
    assert _run(CASES[case], capsys) == expected


def _regenerate():
    import contextlib
    import io

    goldens = {}
    for case, args in sorted(CASES.items()):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["compare"] + args)
        goldens[case] = {"exit": code, "stdout": out.getvalue(),
                         "stderr": err.getvalue()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")


if __name__ == "__main__":
    _regenerate()
