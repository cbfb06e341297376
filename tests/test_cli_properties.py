"""Property tests: `modpoisson scheme`, `pmf` and `compare` over arbitrary flags.

Every invocation either exits 0 with no `nan` in its output, or exits 1
with a last stderr line `error: ...`; any other stderr line is a
`warning: ...`, and no Python warning escapes.  Flags are passed as
`--flag=value`, so negative values survive argparse.

For `scheme`, lambda stays in [0.5, 50], or is inf, because that test covers
the coefficient flags (`--b`, `--b2`, `--weights`, `--alphabet`, `--r`).  The
Poisson base loses its normalization from lambda ~ 2.5e5 on, a known defect
kept visible by the benchmark's `exact` probe rather than pinned here.

For `pmf` and `compare`, theta comes from a few values (each new positive
theta costs a 55 ms gamma_theta in `compare`), the sizes stay small, and
the bound parameters `--eps-n`, `--rho` and `--tail-rn` are any float.
"""

import contextlib
import io
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from modpoisson.cli import main
from modpoisson.metrics import KNOWN_BOUNDS


def assert_clean_exit(argv):
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    lines = err.getvalue().splitlines()
    if code == 0:
        assert "nan" not in out.getvalue()
        notes = lines
    else:
        assert code == 1
        assert lines and lines[-1].startswith("error: ")
        notes = lines[:-1]
    assert all(line.startswith("warning: ") for line in notes)


coefficient_flags = st.one_of(
    st.lists(st.floats(), min_size=1, max_size=6).map(
        lambda bs: [f"--b={','.join(map(repr, bs))}"]),
    st.floats().map(lambda b2: [f"--b2={b2!r}"]),
    st.lists(st.one_of(st.floats(-0.5, 1.5), st.just(math.nan)), max_size=6).map(
        lambda ws: [f"--weights={','.join(map(repr, ws)) or ','}"]),
    st.tuples(st.sampled_from(("harmonic", "omega", "ewens", "fq")),
              st.none() | st.floats(0.0, 5.0, exclude_min=True),
              st.none() | st.integers(1, 9)).map(
        lambda a: [f"--alphabet={a[0]}"]
        + ([] if a[1] is None else [f"--theta={a[1]!r}"])
        + ([] if a[2] is None else [f"--q={a[2]}"])),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(lam=st.floats(0.5, 50.0) | st.just(math.inf),
       r=st.none() | st.integers(-3, 8),
       flags=coefficient_flags,
       positive=st.booleans())
def test_scheme_exits_cleanly_for_any_coefficient_flags(lam, r, flags, positive):
    assert_clean_exit(["scheme", f"--lambda={lam!r}"] + flags
                      + ([] if r is None else [f"--r={r}"])
                      + (["--positive"] if positive else []))


THETAS = (0.5, 1.0, 2.5)
BAD = (math.nan, math.inf, -math.inf, -1.0, 0.0)
# mostly usable values, so that most draws get past the model to the bounds
thetas = st.sampled_from(THETAS) | st.sampled_from(BAD)
any_float = st.floats() | st.sampled_from(BAD + (1e-6, 2.0, 1e308))
sizes = st.integers(-1, 12).map(lambda n: [f"--n={n}"])
# weights below 0.02 put Theorem B's lam > 16 e sigma^2 within reach
weights = st.tuples(st.sampled_from((0.02, 0.02, 1.0)),
                    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
                    st.sampled_from(((),) * 5 + ((-0.5,), (1.5,), (math.nan,)))).map(
    lambda a: ",".join(map(repr, [a[0] * u for u in a[1]] + list(a[2]))))

# each model with the flags it reads, their values drawn freely
model_flags = st.one_of(
    weights.map(lambda ws: ["--model=bernoulli", f"--weights={ws}"]),
    st.tuples(thetas, sizes).map(
        lambda a: ["--model=ewens", f"--theta={a[0]}"] + a[1]),
    st.lists(thetas | st.floats(0.05, 8.0) | st.floats(0.0, exclude_min=True),
             min_size=1, max_size=10).flatmap(
        lambda ts: st.integers(-1, len(ts) + 1).map(
            lambda n: ["--model=weighted-perm", f"--theta-seq={','.join(map(repr, ts))}",
                       f"--n={n}"])),
    st.tuples(st.integers(1, 9), sizes).map(lambda a: ["--model=fq", f"--q={a[0]}"] + a[1]),
    st.integers(-1, 10 ** 4).map(lambda big_n: ["--model=omega", f"--N={big_n}"]),
)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(flags=model_flags, rational=st.booleans())
def test_pmf_exits_cleanly_for_any_model_flags(flags, rational):
    assert_clean_exit(["pmf"] + flags + (["--rational"] if rational else []))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(flags=model_flags,
       r=st.sampled_from(("1", "2", "0:3", "1:4", "4:3", "-1")),
       bounds=st.lists(st.sampled_from(KNOWN_BOUNDS), min_size=1, max_size=6),
       eps_n=any_float, rho=any_float, tail_rn=any_float)
def test_compare_exits_cleanly_for_any_model_and_bound_flags(flags, r, bounds, eps_n, rho,
                                                             tail_rn):
    assert_clean_exit(["compare"] + flags + [f"--r={r}", f"--bound={','.join(bounds)}",
                                             f"--eps-n={eps_n!r}", f"--rho={rho!r}",
                                             f"--tail-rn={tail_rn!r}"])
