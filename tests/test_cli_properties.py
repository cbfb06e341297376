"""Property test: `modpoisson scheme` over arbitrary coefficient flags.

Every invocation either exits 0 with no `nan` in its output, or exits 1
with a last stderr line `error: ...`; any other stderr line is a
`warning: ...`, and no Python warning escapes.  Flags are passed as
`--flag=value`, so negative values survive argparse.

lambda stays in [0.5, 50], or is inf, because this test covers the
coefficient flags (`--b`, `--b2`, `--weights`, `--alphabet`, `--r`).  The
Poisson base loses its normalization from lambda ~ 2.5e5 on, a known defect
kept visible by the benchmark's `exact` probe rather than pinned here.
"""

import contextlib
import io
import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from modpoisson.cli import main

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
    argv = (["scheme", f"--lambda={lam!r}"] + flags
            + ([] if r is None else [f"--r={r}"])
            + (["--positive"] if positive else []))
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
