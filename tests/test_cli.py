import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

from modpoisson import _arith, cli
from modpoisson.cli import main
from modpoisson.suites import SUITE_NAMES


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- pmf -------------------------------------------------------------------------

def test_pmf_fq_2_2(capsys):
    code, out, _ = run_cli(["pmf", "--model", "fq", "--q", "2", "--n", "2"], capsys)
    assert code == 0
    assert out.splitlines() == ["k,mass", "1,0.75", "2,0.25"]


def test_pmf_omega_10(capsys):
    code, out, _ = run_cli(["pmf", "--model", "omega", "--N", "10"], capsys)
    assert code == 0
    assert out.splitlines() == ["k,mass", "0,0.10000000000000001", "1,0.69999999999999996",
                                "2,0.20000000000000001"]


def test_pmf_deterministic_bernoulli(capsys):
    code, out, _ = run_cli(["pmf", "--model", "bernoulli", "--weights", "1.0"], capsys)
    assert code == 0
    assert out.splitlines() == ["k,mass", "1,1"]


def test_pmf_json_format(capsys):
    code, out, _ = run_cli(["pmf", "--model", "fq", "--q", "2", "--n", "2",
                            "--format", "json"], capsys)
    obj = json.loads(out)
    assert obj == {"offset": 1, "masses": [0.75, 0.25]}


def test_pmf_missing_parameters_fail(capsys):
    code, _, err = run_cli(["pmf", "--model", "ewens", "--n", "5"], capsys)
    assert code == 1
    assert "theta" in err


def test_pmf_weights_file(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text("# two fair coins\n0.5\n0.5\n")
    code, out, _ = run_cli(["pmf", "--model", "bernoulli", "--weights-file",
                            str(path)], capsys)
    assert code == 0
    assert out.splitlines()[1] == "0,0.25"


def test_weights_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    # as some editors save UTF-8: numpy's parse and the line-by-line one skip it
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_text("0.1\n0.2\n", encoding="utf-8")
    marked.write_text("0.1\n0.2\n", encoding="utf-8-sig")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
    runs = [run_cli(["pmf", "--model", "bernoulli", "--weights-file", str(path)], capsys)
            for path in (plain, marked)]
    assert runs[0][0] == 0 and runs[1] == runs[0]
    marked.write_text("# a comment\nabc\n", encoding="utf-8-sig")
    code, out, err = run_cli(["pmf", "--model", "bernoulli", "--weights-file",
                              str(marked)], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {marked}:2: not a probability: 'abc'"]


@pytest.mark.parametrize("command", [["pmf", "--model", "bernoulli"],
                                     ["compare", "--model", "bernoulli", "--r", "1"],
                                     ["scheme", "--lambda", "1", "--r", "2"]],
                         ids=lambda command: command[0])
def test_weights_file_errors_are_one_error_line(command, tmp_path, capsys):
    bad = tmp_path / "w.csv"
    bad.write_text("0.5\nabc\n")
    code, out, err = run_cli(command + ["--weights-file", str(bad)], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: {bad}:2: not a probability: 'abc'"]
    code, out, err = run_cli(command + ["--weights-file", str(tmp_path / "none.csv")], capsys)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


# --- scheme ----------------------------------------------------------------------

#: each flag that gives a whole Bernoulli law or scheme, with a value
SOURCES = {"--alphabet": "harmonic", "--weights": "0.1,0.2", "--weights-file": None,
           "--b": "0,-0.1", "--b2": "-0.3"}


@pytest.mark.parametrize("first, second", itertools.combinations(SOURCES, 2),
                         ids=lambda flag: flag.lstrip("-"))
def test_scheme_refuses_two_sources(first, second, tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text("0.1\n0.2\n")
    values = dict(SOURCES, **{"--weights-file": str(path)})
    code, out, err = run_cli(["scheme", "--lambda", "3", "--r", "2",
                              first, values[first], second, values[second]], capsys)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: pass one of {first} and {second}, not both"]


def test_bernoulli_model_refuses_two_weight_sources(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text("0.5\n")
    for command in (["pmf"], ["compare", "--r", "1"]):
        code, out, err = run_cli(command + ["--model", "bernoulli", "--weights", "0.1",
                                            "--weights-file", str(path)], capsys)
        assert (code, out) == (1, "")
        assert err.splitlines() == ["error: pass one of --weights and --weights-file, not both"]


def test_scheme_b2_example(capsys):
    code, out, err = run_cli(["scheme", "--lambda", "2", "--b2", "-0.125",
                              "--r", "2"], capsys)
    assert code == 0
    first = out.splitlines()[1]
    k, mass = first.split(",")
    assert k == "0"
    assert float(mass) == pytest.approx(0.875 * math.exp(-2.0), abs=1e-15)
    assert "negative entries" in err  # order-2 scheme with b2 < 0 dips negative


@pytest.mark.parametrize("lam, r", [("3", "300"), ("30", "1000")])
def test_scheme_b2_padded_to_a_high_order_sums_to_one(lam, r, capsys):
    # b_3..b_r are zeros, and C_s overflows long before s = r: 0 * inf is nan
    code, out, err = run_cli(["scheme", "--b2", "-0.1", "--lambda", lam, "--r", r], capsys)
    assert code == 0 and "error" not in err
    masses = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-10)


def test_scheme_zero_padding_only_lengthens_the_window(capsys):
    _, low, _ = run_cli(["scheme", "--b2", "-0.1", "--lambda", "3", "--r", "2"], capsys)
    _, high, _ = run_cli(["scheme", "--b2", "-0.1", "--lambda", "3", "--r", "300"], capsys)
    low, high = low.splitlines(), high.splitlines()
    assert len(high) == len(low) + 298
    assert high[:len(low)] == low


def test_scheme_order_zero_is_poisson(capsys):
    code, out, _ = run_cli(["scheme", "--lambda", "5", "--r", "0"], capsys)
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert float(rows[0][1]) == pytest.approx(math.exp(-5.0), abs=1e-16)
    assert math.fsum(float(m) for _, m in rows) == pytest.approx(1.0, abs=1e-10)


def test_scheme_harmonic_alphabet_uses_zeta_coefficient(capsys):
    code, out, _ = run_cli(["scheme", "--alphabet", "harmonic", "--lambda", "7.5",
                            "--r", "2"], capsys)
    assert code == 0
    b2 = -math.pi ** 2 / 12.0
    mass0 = math.exp(-7.5) * (1.0 + b2 * (1.0 - 0.0 + 0.0))
    got = float(out.splitlines()[1].split(",")[1])
    assert got == pytest.approx(mass0, rel=1e-10)


def test_scheme_positive_flag_gives_pmf(capsys):
    code, out, _ = run_cli(["scheme", "--lambda", "2", "--b2", "-0.125",
                            "--r", "2", "--positive"], capsys)
    masses = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert all(m >= 0.0 for m in masses)
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-10)


def test_scheme_warns_when_eta_is_large(capsys):
    # harmonic alphabet has sigma^2 = zeta(2); lambda = 0.5 puts eta >> 1
    code, out, err = run_cli(["scheme", "--alphabet", "harmonic",
                              "--lambda", "0.5", "--r", "2"], capsys)
    assert code == 0
    assert "eta" in err and ">= 1" in err
    assert out.splitlines()[0] == "k,mass"


@pytest.mark.parametrize("r", ["1", "3"])
def test_scheme_ewens_alphabet_at_tiny_theta_is_the_atom_one(r, capsys):
    # as theta -> 0 the Ewens weights theta/(theta+j) tend to 1 at j = 0 and
    # to 0 else, so the scheme is that of the one weight 1: p_k = 1 for all k
    code, out, err = run_cli(["scheme", "--alphabet", "ewens", "--theta", "1e-300",
                              "--lambda", "3", "--r", r], capsys)
    assert code == 0
    masses = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-10)
    assert (code, out, err) == run_cli(["scheme", "--weights", "1", "--lambda", "3",
                                        "--r", r], capsys)


def test_scheme_ewens_alphabet_at_huge_theta_ends_with_one_error_line(capsys):
    # p_2 is about theta, finite though theta^2 is not; b_2 = -p_2/2 = -5e159
    # takes the masses' float total far from 1, which is refused
    code, out, err = run_cli(["scheme", "--alphabet", "ewens", "--theta", "1e160",
                              "--r", "2", "--lambda", "3"], capsys)
    assert (code, out) == (1, "")
    *warned, last = err.splitlines()
    assert [line.split(",")[0] for line in warned] == ["warning: eta = 3.808e+80 >= 1"]
    assert last.startswith("error: masses sum to ") and last.endswith(", not 1")


@pytest.mark.parametrize("args, message", [
    (["--alphabet", "harmonic", "--r", "-1"], "r must be >= 0"),
    (["--weights", "0.1,0.2", "--r", "-1"], "r must be >= 0"),
    (["--weights", ",", "--r", "-1"], "r must be >= 0"),
    (["--b2", "0.1", "--r", "-1"], "r must be >= 0"),
    (["--b", "0.1,0.2", "--r", "-2"], "r must be >= 0"),
    (["--weights", "1.5,0.2", "--r", "2"], "finite weights must lie in [0, 1]"),
    (["--weights", "nan", "--r", "2"], "finite weights must lie in [0, 1]"),
    (["--b", "nan", "--r", "1"], "not 1"),
    (["--b2", "inf"], "error: "),
    (["--alphabet", "ewens", "--theta", "inf", "--r", "2"], "finite theta"),
    (["--weights", "1.5", "--r", "0"], "finite weights must lie in [0, 1]"),
    (["--weights", "nan", "--r", "0"], "finite weights must lie in [0, 1]"),
    (["--alphabet", "fq", "--q", "6", "--r", "0"], "prime power"),
    (["--alphabet", "ewens", "--r", "0"], "ewens alphabet needs --theta"),
], ids=["alphabet_r", "weights_r", "empty_weights_r", "b2_r", "b_r", "weight_above_1",
        "weight_nan", "b_nan", "b2_inf", "theta_inf", "weight_above_1_r0",
        "weight_nan_r0", "fq_not_prime_power_r0", "ewens_no_theta_r0"])
def test_scheme_rejects_bad_order_weights_and_coefficients(args, message, capsys):
    code, out, err = run_cli(["scheme", "--lambda", "2"] + args, capsys)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1].startswith("error: ")
    assert message in err.splitlines()[-1]


@pytest.mark.parametrize("args, message", [
    (["--lambda", "inf", "--r", "0"],
     "error: lam = inf: the Poisson support exceeds the 1e6-point limit"),
    (["--lambda", "1e300", "--r", "1", "--b", "0"],
     "error: lam = 1e+300: the Poisson support exceeds the 1e6-point limit"),
], ids=["inf", "1e300"])
def test_scheme_rejects_infinite_or_huge_lambda_at_once(args, message, capsys):
    code, out, err = run_cli(["scheme"] + args, capsys)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [message]


@pytest.mark.parametrize("lam", ["1.14e5", "2e6"])
def test_scheme_at_a_large_rate_sums_to_one(lam, capsys):
    # the per-k lgamma walk lost its normalization from lam = 1.14e5 on
    # (masses summing to 1.000000000103491) and refused lam >= 1e6
    code, out, err = run_cli(["scheme", "--lambda", lam, "--r", "0"], capsys)
    assert (code, err) == (0, "")
    masses = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert abs(math.fsum(masses) - 1.0) <= 1e-10


# --- compare ---------------------------------------------------------------------

def test_compare_ewens_tv_improves(capsys):
    code, out, _ = run_cli(["compare", "--model", "ewens", "--theta", "1",
                            "--n", "1000", "--r", "0:4"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    tv = [float(line.split(",")[6]) for line in lines[1:]]
    assert all(a >= b - 1e-15 for a, b in zip(tv, tv[1:]))  # non-increasing
    assert tv[2] < tv[1] and tv[3] < tv[2]  # strictly better past order 1


def test_compare_bernoulli_theorem_b_holds(tmp_path, capsys):
    path = tmp_path / "w.csv"
    path.write_text("".join(f"{0.004 * (1 + i % 5)}\n" for i in range(120)))
    code, out, _ = run_cli(["compare", "--model", "bernoulli", "--weights-file",
                            str(path), "--r", "1:6", "--bound", "theorem-b"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 6
    assert all(row[9] == "true" for row in rows)


def test_compare_bernoulli_out_of_regime_to_order_8(tmp_path, capsys):
    # the `sweep` benchmark's out-of-regime instance at seed 3: lam = 896.5,
    # where shifted Poisson masses cancelled the r = 6 and 8 totals away from 1
    import numpy as np
    path = tmp_path / "w.csv"
    weights = np.random.default_rng(3).uniform(0.0, 0.3, 6000)
    path.write_text("".join(f"{w!r}\n" for w in weights.tolist()))
    code, out, err = run_cli(["compare", "--model", "bernoulli", "--weights-file",
                              str(path), "--r", "1:8", "--bound", "theorem-b"], capsys)
    assert (code, err) == (0, "")
    assert [line.split(",")[3] for line in out.splitlines()[1:]] == [str(r) for r in range(1, 9)]


def test_compare_omega_at_small_rate_to_order_8(capsys):
    # lam = 0.21, where the Charlier recurrence would multiply rounding by
    # up to 7!/lam^7 and push the order-8 total off 1
    code, out, err = run_cli(["compare", "--model", "omega", "--N", "2", "--r", "0:8"], capsys)
    assert code == 0
    # tv past 1 from r = 2 on: the scheme is farther from the law than any law can be
    tv = max(float(line.split(",")[6]) for line in out.splitlines()[1:])
    assert err.splitlines() == [f"warning: tv = {tv:.4g} > 1 from r = 2 at lambda = 0.2107: "
                                "the scheme is farther from the model than any law can be"]
    assert [line.split(",")[3] for line in out.splitlines()[1:]] == [str(r) for r in range(9)]


def test_scheme_at_a_rate_whose_poisson_masses_underflow(capsys):
    # Po(2) and Po(3) underflow at lam = 1e-200, while nu(3) = b_2 Po(1) does not
    code, out, _ = run_cli(["scheme", "--lambda", "1e-200", "--b2", "-0.125", "--r", "2"], capsys)
    assert code == 0
    masses = [float(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert masses[:3] == [0.875, 0.25, -0.125]
    assert abs(masses[3] / -1.25e-201 - 1.0) < 1e-13


def test_compare_empty_range_writes_header_only(capsys):
    for orders in ("4:3", "-3:-5"):
        code, out, _ = run_cli(["compare", "--model", "ewens", "--theta", "1",
                                "--n", "50", f"--r={orders}"], capsys)
        assert code == 0
        assert out.splitlines() == ["model,family,n,r,lambda,sigma2,tv,bound,name,holds,slack"]


def test_compare_jobs_match_serial(capsys):
    args = ["compare", "--model", "ewens", "--theta", "1", "--n", "200",
            "--r", "0:2"]
    _, serial, _ = run_cli(args, capsys)
    _, parallel, _ = run_cli(args + ["--jobs", "2"], capsys)
    assert serial == parallel


def test_compare_computes_model_once(monkeypatch, capsys):
    from modpoisson.models import ModelSpec
    calls = []
    original = ModelSpec.pmf

    def counting_pmf(self, *args, **kwargs):
        calls.append(self.family)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(ModelSpec, "pmf", counting_pmf)
    code, out, _ = run_cli(["compare", "--model", "bernoulli", "--weights",
                            "0.1,0.2,0.05", "--bound", "theorem-a,theorem-b,chen-stein",
                            "--r", "0:3"], capsys)
    assert code == 0
    assert len(out.splitlines()) == 1 + 2 * 4 + 1
    assert calls == ["bernoulli_sum"]


def test_compare_omega_n1_names_precondition(capsys):
    code, out, err = run_cli(["compare", "--model", "omega", "--N", "1",
                              "--r", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: omega rate log log N + gamma needs N >= 2"]
    code, out, _ = run_cli(["pmf", "--model", "omega", "--N", "1"], capsys)
    assert code == 0
    assert out.splitlines() == ["k,mass", "0,1"]


def test_pmf_omega_past_the_count_budget_is_one_error_line(capsys):
    # the largest accepted N, 5428835233, takes about 1 s; the next is refused at once
    start = time.perf_counter()
    code, out, err = run_cli(["pmf", "--model", "omega", "--N", "5428835234"], capsys)
    elapsed = time.perf_counter() - start
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: omega count at N = 5428835234: N^(3/4) exceeds "
                                "the budget 20000000"]
    assert elapsed < 0.5, f"took {elapsed:.2f}s"


def test_compare_nonpositive_rate_is_one_error_line(capsys):
    code, out, err = run_cli(["compare", "--model", "bernoulli", "--weights", "0,0",
                              "--bound", "theorem-a,chen-stein", "--r", "2"], capsys)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: lam must be positive"]


@pytest.mark.parametrize("theta, n, lam", [("5", "4", "-0.599117"),
                                           ("50", "1", "-195.099")],  # lam = gamma_50
                         ids=["theta5_n4", "theta50_n1"])
def test_compare_nonpositive_ewens_rate_names_it(theta, n, lam, capsys):
    code, out, err = run_cli(["compare", "--model", "ewens", "--theta", theta, "--n", n,
                              "--bound", "theorem-a,chen-stein", "--r", "2"], capsys)
    assert code == 1
    assert out == ""
    assert err.splitlines() == [f"error: ewens rate theta log n + gamma_theta = {lam} "
                                f"is not positive at theta = {theta}, n = {n}"]


def test_compare_nonpositive_weighted_perm_rate_names_theta_and_k(capsys):
    # theta = 8 past the first weight, K = (0.05 - 8)/1, and
    # 8 log 3 - 7.95 + gamma_8 = 8.7889 - 7.95 - 8 psi(8) = -15.2862
    code, out, err = run_cli(["compare", "--model", "weighted-perm", "--theta-seq",
                              "0.05,8,8", "--n", "3", "--r", "1"], capsys)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: weighted_perm rate theta log n + K + gamma_theta = "
                                "-15.2862 is not positive at theta = 8, K = -7.95, n = 3"]


def test_compare_rate_past_n_is_one_warning_line(capsys):
    # theta_1 = 100 gives lam = 103.67 for a law of at most 60 cycles; tv
    # stays just below 1, so only the rate warns
    code, out, err = run_cli(["compare", "--model", "weighted-perm", "--theta-seq",
                              "100,1", "--n", "60", "--r", "1:3"], capsys)
    assert code == 0
    assert err.splitlines() == ["warning: lambda = 103.7 > n = 60: the rate exceeds "
                                "the largest value the model takes"]
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [(row[2], row[3], row[4]) for row in rows] == \
        [("60", str(r), "103.67156022712363") for r in (1, 2, 3)]
    assert all(float(row[6]) < 1.0 for row in rows)


def test_compare_jsonl_matches_schema(capsys):
    import jsonschema
    from importlib import resources
    schema = json.loads(resources.files("modpoisson").joinpath("schema.json")
                        .read_text())
    code, out, _ = run_cli(["compare", "--model", "ewens", "--theta", "1",
                            "--n", "100", "--r", "0:1", "--format", "json"], capsys)
    assert code == 0
    validator = {"$ref": "#/$defs/boundReportRow", "$defs": schema["$defs"]}
    for line in out.splitlines():
        jsonschema.validate(json.loads(line), validator)


# 60 in-regime weights (lam = 0.6 > 16 e sigma^2 = 0.26), so every bound applies
IN_REGIME = ",".join(["0.01"] * 60)
# 500 float weights: the rational fold's (n + 1) x denominator bits ~ 1.5e7
FLOAT_WEIGHTS_500 = ",".join(repr(0.01 + i * 1e-5) for i in range(500))
# stands for a weights file that the test writes
WEIGHTS_FILE = "<weights.csv>"


@pytest.mark.parametrize("args, message", [
    (["pmf", "--model", "ewens", "--theta", "nan", "--n", "5"], "finite theta"),
    (["pmf", "--model", "ewens", "--theta", "inf", "--n", "5"], "finite theta"),
    (["pmf", "--model", "weighted-perm", "--theta-seq", "inf,1,1", "--n", "3"], "theta_k"),
    (["pmf", "--model", "weighted-perm", "--theta-seq", "1,nan,1", "--n", "3", "--rational"],
     "theta_k"),
    (["pmf", "--model", "weighted-perm", "--theta-seq", "1e300,1e300", "--n", "2"],
     "rational mode"),
    (["pmf", "--model", "bernoulli", "--weights", FLOAT_WEIGHTS_500, "--rational"],
     "budget 10000000"),
    (["pmf", "--model", "weighted-perm", "--theta-seq", "1", "--n", "10000000"],
     "error: float weighted-permutation series at n = 10000000: n^3 = "
     "1000000000000000000000 exceeds the budget 10000000000"),
    (["pmf", "--model", "fq", "--q", "2", "--n", "1000"],
     "error: F_q factor recursion at q = 2, n = 1000: n^4 x b x max(b, 10^4) = "
     "20000000000000000000 exceeds the budget 1000000000000000, b = n x bits(q)"),
    # theta_1 = 1e-300 is a Fraction over 2^1049, and the series' integers grow with it
    (["pmf", "--model", "weighted-perm", "--theta-seq", "1e-300,1", "--n", "60", "--rational"],
     "error: rational weighted-permutation series at n = 60: n^3 x max(bits(d), n)^2 = "
     "274834944000 exceeds the budget 100000000000"),
    (["compare", "--model", "bernoulli", "--weights", IN_REGIME, "--r", "1:2",
      "--bound", "theorem-c", "--eps-n", "nan"], "eps_n"),
    (["compare", "--model", "bernoulli", "--weights", IN_REGIME, "--r", "1:2",
      "--bound", "theorem-c", "--eps-n=-1e-6"], "eps_n"),
    (["compare", "--model", "bernoulli", "--weights", IN_REGIME, "--r", "1:2",
      "--bound", "theorem-c", "--eps-n", "-1e-6"], "eps_n"),
    (["pmf", "--model", "ewens", "--theta", "-inf", "--n", "3"], "theta"),
    (["compare", "--model", "bernoulli", "--weights", IN_REGIME, "--r", "1:2",
      "--bound", "theorem-c", "--eps-n", "1e-6", "--rho", "nan"], "rho"),
    (["compare", "--model", "bernoulli", "--weights", IN_REGIME, "--r", "1:2",
      "--bound", "theorem-c", "--eps-n", "1e-6", "--rho", "inf"], "rho"),
    (["compare", "--model", "bernoulli", "--weights", IN_REGIME, "--r", "1:2",
      "--bound", "corollary", "--tail-rn", "nan"], "tail_rn"),
    (["compare", "--model", "bernoulli", "--weights", IN_REGIME, "--r", "1:2",
      "--bound", "corollary", "--tail-rn=-1e-8"], "tail_rn"),
    # an infinite tolerance would truncate every tail series after one term
    (["compare", "--model", "fq", "--q", "2", "--n", "20", "--r", "2",
      "--tolerance", "inf"], "tolerance must be finite"),
    (["scheme", "--alphabet", "omega", "--lambda", "5", "--r", "2",
      "--tolerance", "inf"], "tolerance must be finite"),
    (["compare", "--model", "bernoulli", "--weights", "0.1,0.2", "--r", "1",
      "--tolerance", "-1"], "error: tolerance must be finite and positive, got -1"),
    (["scheme", "--weights", "0.1,0.2", "--r", "2", "--lambda", "3", "--tolerance", "-1"],
     "error: tolerance must be finite and positive, got -1"),
    (["scheme", "--weights-file", WEIGHTS_FILE, "--r", "2", "--lambda", "3",
      "--tolerance", "inf"], "error: tolerance must be finite and positive, got inf"),
    (["scheme", "--b", "0,-0.1", "--lambda", "3", "--tolerance", "nan"],
     "error: tolerance must be finite and positive, got nan"),
    (["scheme", "--b2", "-0.1", "--lambda", "3", "--tolerance", "0"],
     "error: tolerance must be finite and positive, got 0"),
    # p_2 is about 1e300, so b_4 = p_2^2/8 - p_4/4 is past the float range
    (["scheme", "--alphabet", "ewens", "--theta", "1e300", "--r", "8", "--lambda", "3"],
     "error: residue coefficient b_4 = e_4 overflows the float range"),
    # the spec checks its weights even when the range is empty
    (["compare", "--model", "bernoulli", "--weights", "1.5", "--r", "4:3"],
     "error: finite weights must lie in [0, 1], got 1.5"),
    (["pmf", "--model", "bernoulli", "--weights", "0.2,nan"],
     "error: finite weights must lie in [0, 1], got nan"),
    (["pmf", "--model", "bernoulli"], "error: bernoulli model needs --weights or --weights-file"),
    (["compare", "--model", "bernoulli", "--weights", ",", "--r", "1"],
     "error: bernoulli_sum rate needs at least one weight"),
    (["pmf", "--model", "weighted-perm", "--n", "3"],
     "error: weighted-perm model needs --theta-seq and --n"),
    (["pmf", "--model", "fq", "--n", "3"], "error: fq model needs --q and --n"),
    (["pmf", "--model", "omega"], "error: omega model needs --N"),
    (["pmf", "--model", "ewens", "--n", "3"], "error: ewens model needs --theta and --n"),
    (["scheme", "--alphabet", "fq", "--r", "2", "--lambda", "3"], "error: fq alphabet needs --q"),
    # an empty --theta-seq is a sequence, and the spec refuses it
    (["pmf", "--model", "weighted-perm", "--theta-seq=", "--n", "3"],
     "error: weighted_perm needs n >= 1 and at least theta_1"),
    # orders past the budget: power sums, the --b/--b2 padding, an empty
    # alphabet's zeros and the list of a compare range are never built
    (["scheme", "--alphabet", "harmonic", "--lambda", "3", "--r", "100000"],
     "error: scheme order r = 100000 exceeds the budget 1000; its work grows as r^2"),
    (["scheme", "--alphabet", "omega", "--lambda", "3", "--r", "1001"],
     "error: scheme order r = 1001 exceeds the budget 1000; its work grows as r^2"),
    (["scheme", "--b2", "-0.1", "--lambda", "3", "--r", "20000"],
     "error: scheme order r = 20000 exceeds the budget 1000; its work grows as r^2"),
    (["scheme", "--b", "0,-0.1", "--lambda", "3", "--r", "1001"],
     "error: scheme order r = 1001 exceeds the budget 1000; its work grows as r^2"),
    (["scheme", "--weights", ",", "--lambda", "3", "--r", "1000000"],
     "error: scheme order r = 1000000 exceeds the budget 1000; its work grows as r^2"),
    (["compare", "--model", "ewens", "--theta", "1", "--n", "50", "--r", "0:100000"],
     "error: scheme order r = 100000 exceeds the budget 1000; its work grows as r^2"),
    (["compare", "--model", "ewens", "--theta", "1", "--n", "50", "--r", "1001"],
     "error: scheme order r = 1001 exceeds the budget 1000; its work grows as r^2"),
    # a negative order is refused before the range is listed: a list of 10^7
    # orders took 2.7 s and 1.2 GB, and one of 10^15 raised a bare MemoryError
    (["compare", "--model", "ewens", "--theta", "1", "--n", "10", "--r=-10000000:1"],
     "error: scheme orders must be >= 0"),
    (["compare", "--model", "ewens", "--theta", "1", "--n", "10", "--r=-1000000000000000:1"],
     "error: scheme orders must be >= 0"),
], ids=["ewens_theta_nan", "ewens_theta_inf", "theta_seq_inf", "theta_seq_nan_rational",
        "h_n_overflow", "rational_fold_over_budget", "h_n_over_budget",
        "fq_over_budget", "rational_h_n_over_budget", "eps_n_nan", "eps_n_negative",
        "eps_n_negative_separate", "theta_minus_inf_separate", "rho_nan", "rho_inf",
        "tail_rn_nan", "tail_rn_negative", "fq_tolerance_inf", "omega_tolerance_inf",
        "bernoulli_tolerance_negative", "scheme_weights_tolerance_negative",
        "scheme_weights_file_tolerance_inf", "scheme_b_tolerance_nan", "scheme_b2_tolerance_0",
        "ewens_alphabet_b4_overflow", "bernoulli_weight_above_1_empty_range",
        "bernoulli_weight_nan", "bernoulli_no_weights", "bernoulli_empty_weights_rate",
        "weighted_perm_no_theta_seq",
        "fq_no_q", "omega_no_n", "ewens_no_theta", "fq_alphabet_no_q",
        "weighted_perm_empty_theta_seq", "harmonic_order_past_budget",
        "omega_order_one_past_budget", "b2_order_past_budget", "b_order_past_budget",
        "empty_weights_order_past_budget", "compare_range_past_budget",
        "compare_order_past_budget", "compare_range_from_minus_1e7",
        "compare_range_from_minus_1e15"])
def test_out_of_domain_parameters_are_one_error_line(args, message, tmp_path, capsys):
    weights = tmp_path / "w.csv"
    weights.write_text("0.1\n0.2\n")
    args = [str(weights) if arg == WEIGHTS_FILE else arg for arg in args]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(args, capsys)
    assert [str(w.message) for w in caught] == []
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize("args", [
    ["scheme", "--alphabet", "fq", "--r", "2", "--lambda", "3"],
    ["pmf", "--model", "fq", "--n", "2"],
    ["compare", "--model", "fq", "--n", "2", "--r", "1"],
], ids=["scheme_alphabet", "pmf", "compare"])
def test_prime_power_test_of_a_large_q_ends_within_a_second(args, capsys):
    # 2^61 - 1 is prime: trial division up to its square root takes minutes
    def too_slow(signum, frame):
        pytest.fail("the prime-power test of q = 2^61 - 1 ran past 1 s")
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        code, out, err = run_cli(args + ["--q", str(2 ** 61 - 1)], capsys)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out) == (1, "")
    assert err == ("error: q = 2305843009213693951 has no prime factor below 65536; the "
                   "prime-power test decides such a q only below 65536^2 = 4294967296\n")


def test_compare_fq_trial_divides_q_once(capsys):
    # the spec, its law and its alphabet each test q; the divisions run once
    _arith._prime_power_base.cache_clear()
    code, _, _ = run_cli(["compare", "--model", "fq", "--q", "4294967291", "--n", "3",
                          "--r", "0:1"], capsys)
    assert code == 0
    info = _arith._prime_power_base.cache_info()
    assert (info.misses, info.hits) == (1, 2)


def test_cli_choices_are_the_tables(capsys):
    def choices(command, flag):
        sub = next(a for a in cli._build_parser()._actions if a.dest == "command")
        action = next(a for a in sub.choices[command]._actions if flag in a.option_strings)
        return tuple(action.choices)
    assert choices("pmf", "--model") == choices("compare", "--model") == ("bernoulli", *cli._MODELS)
    assert choices("scheme", "--alphabet") == tuple(cli._ALPHABETS)
    # each entry's missing-flag message lists its own flags, whichever one is missing
    for name, (_, flags) in cli._MODELS.items():
        for given in [()] + [(flag,) for flag in flags[1:]]:
            code, out, err = run_cli(["pmf", "--model", name] + [f"{f}=3" for f in given],
                                     capsys)
            assert (code, err) == (1, f"error: {name} model needs {' and '.join(flags)}\n")
    for name, (_, flags) in cli._ALPHABETS.items():
        if flags:
            code, out, err = run_cli(["scheme", "--alphabet", name, "--r", "1",
                                      "--lambda", "2"], capsys)
            assert (code, err) == (1, f"error: {name} alphabet needs {' and '.join(flags)}\n")


def test_memory_error_is_one_error_line(monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 728. TiB")
    monkeypatch.setattr("modpoisson.models.weighted_perm_cycle_pmf", out_of_memory)
    code, out, err = run_cli(["pmf", "--model", "weighted-perm", "--theta-seq", "1",
                              "--n", "3"], capsys)
    assert (code, out) == (1, "")
    assert err.splitlines() == ["error: Unable to allocate 728. TiB"]


@pytest.mark.parametrize("separate, joined", [
    (["--b", "-0.1,0.2"], ["--b=-0.1,0.2"]),
    (["--b2", "-1e-3"], ["--b2=-1e-3"]),
    (["--b2", "-.125", "--output", "-"], ["--b2=-.125", "--output=-"]),
], ids=["b_list", "b2_exponent", "b2_leading_dot_stdout"])
def test_negative_values_parse_with_or_without_equals(separate, joined, capsys):
    outputs = [run_cli(["scheme", "--lambda", "2"] + args, capsys)
               for args in (separate, joined)]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][1].startswith("k,mass\n")


@pytest.mark.parametrize("args", [
    ["compare", "--rational", "--model", "fq", "--q", "2", "--n", "5", "--r", "1"],
    ["pmf", "--tolerance", "5", "--model", "fq", "--q", "2", "--n", "5"],
], ids=["compare_rational", "pmf_tolerance"])
def test_flags_a_subcommand_does_not_read_are_rejected(args):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 2


# --- verify ----------------------------------------------------------------------

def test_verify_charlier_passes(capsys):
    code, out, _ = run_cli(["verify", "--suite", "charlier"], capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["passed"] is True
    assert summary["checks"] > 0


def test_verify_theorem_b_small_run(capsys):
    code, out, _ = run_cli(["verify", "--suite", "theorem-b", "--instances", "5",
                            "--seed", "42"], capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["checks"] == 30  # 5 instances x 6 orders
    assert summary["failures"] == []


def test_verify_summary_matches_schema(capsys):
    import jsonschema
    from importlib import resources
    schema = json.loads(resources.files("modpoisson").joinpath("schema.json")
                        .read_text())
    code, out, _ = run_cli(["verify", "--suite", "rates"], capsys)
    assert code == 0
    validator = {"$ref": "#/$defs/verifySummary", "$defs": schema["$defs"]}
    jsonschema.validate(json.loads(out), validator)


def test_verify_randomized_suite_requires_seed(capsys):
    randomized = ("theorem-b", "chen-stein", "coefficients")
    for suite in randomized:
        code, out, err = run_cli(["verify", "--suite", suite], capsys)
        assert (code, out) == (2, "")
        assert "seed" in err
    for suite in [name for name in SUITE_NAMES if name not in randomized]:
        code, out, _ = run_cli(["verify", "--suite", suite], capsys)
        assert code == 0
        assert json.loads(out)["seed"] is None


@pytest.mark.parametrize("suite, count", [("theorem-b", "0"), ("chen-stein", "-1"),
                                          ("coefficients", "-3")])
def test_verify_refuses_an_instance_count_below_one(suite, count, capsys):
    code, out, err = run_cli(["verify", "--suite", suite, "--seed", "1",
                              "--instances", count], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: instances must be >= 1, got {count}"]


@pytest.mark.parametrize("suite", ["theorem-b", "chen-stein", "coefficients"])
def test_verify_refuses_a_negative_seed(suite, capsys):
    code, out, err = run_cli(["verify", "--suite", suite, "--seed", "-1"], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: seed must be >= 0, got -1"]


@pytest.mark.parametrize("flag", ["--seed", "--instances"])
@pytest.mark.parametrize("suite", ["hermite", "charlier", "gamma-ratio", "rates", "oracles"])
def test_verify_fixed_suite_refuses_seed_and_instances(suite, flag, capsys):
    code, out, err = run_cli(["verify", "--suite", suite, flag, "3"], capsys)
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: suite {suite!r} draws nothing and takes no "
                                "seed or instance count"]


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "unknown"])
    assert exc.value.code == 2


def test_verify_reproducible_bytes(capsys):
    args = ["verify", "--suite", "coefficients", "--seed", "7", "--instances", "10"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_mass_output_schema(capsys):
    import jsonschema
    from importlib import resources
    schema = json.loads(resources.files("modpoisson").joinpath("schema.json")
                        .read_text())
    _, out, _ = run_cli(["pmf", "--model", "ewens", "--theta", "2", "--n", "6",
                         "--format", "json"], capsys)
    validator = {"$ref": "#/$defs/massFunction", "$defs": schema["$defs"]}
    jsonschema.validate(json.loads(out), validator)
    # a Poisson base cut below as well as above: its offset is a plain int
    _, out, _ = run_cli(["scheme", "--lambda", "100", "--b2", "-0.1", "--format", "json"], capsys)
    jsonschema.validate(json.loads(out), validator)
    assert json.loads(out)["offset"] == 26


def test_output_file_writing(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(["pmf", "--model", "fq", "--q", "2", "--n", "1",
                            "--output", str(target)], capsys)
    assert code == 0 and out == ""
    assert target.read_text() == "k,mass\n1,1\n"


# --- garbage collection ------------------------------------------------------------

GC_PROBE = """
import atexit, contextlib, gc, io
enabled = gc.isenabled()
atexit.register(lambda: print("exit", gc.get_freeze_count() > 0))
import modpoisson
print("import", gc.isenabled() == enabled, gc.get_freeze_count())
from modpoisson.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(["pmf", "--model", "fq", "--q", "2", "--n", "2"])
print("main", gc.isenabled() == enabled, gc.get_freeze_count())
"""


def test_library_use_keeps_normal_gc_and_the_command_freezes_at_exit():
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable, "-c", GC_PROBE], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    # atexit runs last-registered first: the probe sees the heap after the freeze
    assert done.stdout.splitlines() == ["import True 0", "main True 0", "exit True"]
