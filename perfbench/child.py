"""Run one `modpoisson` CLI invocation for the benchmark, optionally traced.

    python perfbench/child.py RESULT_JSON TRACE -- CLI_ARGS...

The child behaves like the `modpoisson` console script (same `main`, same
exit code, an uncaught exception still ends in a traceback), and in
addition writes RESULT_JSON when it ends: the CLOCK_MONOTONIC time at which
`modpoisson.cli` finished importing, its peak RSS and, with TRACE=1, the
spans and counts recorded at the layer boundaries.

Tracing wraps every public function of each layer module and patches the
name in every `modpoisson` module that binds it, so a call made through a
`from .models import ...` alias is seen as well.  A span is recorded only
where a call crosses from one layer into another; counts are kept for every
call.  Spans stay in memory and are written out when the child ends.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import resource
import sys
import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "models", "schemes", "metrics", "symfunc", "specialfn",
          "suites", "io")

#: per-element helpers: spanning them would cost more than the work they do
UNSPANNED = {("io", "fmt17"), ("io", "report_json_obj")}

#: exact model pmfs; calls from other layers are the pmf computations
PMF_FUNCTIONS = ("bernoulli_sum_pmf", "ewens_cycle_pmf",
                 "weighted_perm_cycle_pmf", "fq_factor_pmf", "omega_pmf")
LAMBDA_FUNCTIONS = ("model_lambda", "gamma_theta", "r_q")
POWER_SUM_FUNCTIONS = ("power_sums_finite", "power_sums_infinite")


def _fingerprint(value) -> str:
    """A stable digest of a pmf argument (weight vectors are hashed)."""
    if isinstance(value, (list, tuple)) or hasattr(value, "dtype"):
        arr = np.asarray(value)
        if arr.dtype.kind in "fiub":
            data = arr.astype(float).tobytes()
        else:
            data = repr([str(v) for v in value]).encode()
        return f"{len(arr)}:{hashlib.blake2b(data, digest_size=16).hexdigest()}"
    return repr(value)


class Tracer:
    """Spans and counts of one CLI invocation."""

    def __init__(self):
        self.spans = []     # [layer, function, start_ns, end_ns, parent, raised]
        self.stack = []     # (layer, span index) of the open spans
        self.calls = Counter()
        self.counts = Counter()
        self.pmf_specs = set()

    def wrap(self, layer, name, fn):
        spanned = (layer, name) not in UNSPANNED
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[layer] += 1
            crossing = spanned and (not tracer.stack or tracer.stack[-1][0] != layer)
            if not crossing:
                result = fn(*args, **kwargs)
                tracer._count(layer, name, args, kwargs, result, crossing)
                return result
            span = [layer, name, 0, 0, tracer.stack[-1][1] if tracer.stack else -1,
                    False]
            tracer.stack.append((layer, len(tracer.spans)))
            tracer.spans.append(span)
            span[2] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[3] = time.perf_counter_ns()
                tracer.stack.pop()
            tracer._count(layer, name, args, kwargs, result, crossing)
            return result

        return wrapper

    def _count(self, layer, name, args, kwargs, result, crossing):
        counts = self.counts
        if layer == "models" and crossing:
            if name in PMF_FUNCTIONS:
                counts["models.pmf_calls"] += 1
                key = (name, tuple(_fingerprint(a) for a in args),
                       tuple(sorted((k, _fingerprint(v)) for k, v in kwargs.items())))
                self.pmf_specs.add(key)
                if name == "bernoulli_sum_pmf":
                    counts["models.fold_factors"] += len(args[0])
                elif name == "ewens_cycle_pmf":
                    counts["models.fold_factors"] += int(args[1]) - 1
        elif layer == "schemes":
            if name == "scheme_measure":
                counts["schemes.measure_calls"] += 1
            elif name == "poisson_pmf":
                counts["schemes.poisson_points"] += len(result.masses)
        elif layer == "metrics" and name == "total_variation":
            a, b = args[0], args[1]
            counts["metrics.tv_calls"] += 1
            counts["metrics.tv_points"] += (
                max(a.offset + len(a.masses), b.offset + len(b.masses))
                - min(a.offset, b.offset))
        elif layer == "symfunc" and name in POWER_SUM_FUNCTIONS:
            counts["symfunc.power_sum_calls"] += 1
        elif layer == "suites" and name == "run_suite":
            counts["suites.checks"] += result.checks

    def install(self, package):
        """Wrap the public functions of every layer module of `package`."""
        modules = [m for m in sys.modules.values()
                   if getattr(m, "__name__", "").startswith(package.__name__)]
        for layer in LAYERS:
            module = importlib.import_module(f"{package.__name__}.{layer}")
            for name, fn in list(vars(module).items()):
                inner = getattr(fn, "__wrapped__", fn)
                if (name.startswith("_") or not callable(fn) or isinstance(fn, type)
                        or getattr(inner, "__module__", None) != module.__name__):
                    continue
                wrapper = self.wrap(layer, name, fn)
                for mod in modules:
                    for alias, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, alias, wrapper)

    def report(self) -> dict:
        counts = dict(self.counts)
        counts["models.pmf_specs"] = len(self.pmf_specs)
        for layer in LAYERS:
            counts[f"{layer}.calls"] = self.calls[layer]
        return {"spans": self.spans, "counts": counts}


def main(argv) -> int:
    result_path, trace = argv[1], argv[2] == "1"
    cli_args = argv[4:] if argv[3:4] == ["--"] else argv[3:]
    import modpoisson
    import modpoisson.cli as cli
    imported_ns = time.monotonic_ns()
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(modpoisson)
    try:
        return cli.main(cli_args)
    finally:
        record = {"imported_ns": imported_ns,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if tracer is not None:
            record.update(tracer.report())
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv))
