"""Benchmark of the `modpoisson` CLI.

    python3 perfbench/run.py --workload sweep|verify|exact --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`).  A closed loop with one client: every op is one CLI invocation
with the default `--jobs 1`, run in a fresh child process, one at a time,
the way a researcher's script drives the command.  Children run with
BLAS/OpenMP threads set to 1.  A pass runs the workload's op list once;
passes repeat until `--seconds` is used up.  Every op's output is checked,
and the last line of standard output is one JSON object with the result.
Each op runs right after `reference.py`, and its times are reported scaled
to reference speed (see REFERENCE_S).

--trace 0 reports the end-to-end metrics of untraced passes.  --trace 1
alternates untraced and traced passes and reports the per-layer metrics:
self time, calls, counts and errors of each layer module, taken from spans
that `child.py` records at the layer boundaries.  A human-readable summary
goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from child import LAMBDA_FUNCTIONS, LAYERS  # noqa: E402
from workloads import WORKLOADS, CheckFailed, build  # noqa: E402

#: an op that runs longer than this is killed and counted as failed
OP_TIMEOUT_S = 120.0

#: Every op runs right after reference.py, a fixed job that gauges the
#: machine's speed; each time is reported scaled to a machine on which that
#: job takes REFERENCE_S.  On a shared 2-CPU VM, neighbours slowed everything
#: by up to 80% in phases that last minutes: unscaled, the median pass time
#: moved by 9-27% between 30-s runs, scaled by 2-6%.
REFERENCE_S = 0.2

#: per-layer counts, per traced pass
COUNTS = ("models.fold_factors", "models.pmf_calls", "schemes.measure_calls",
          "schemes.poisson_points", "metrics.tv_calls", "metrics.tv_points",
          "symfunc.power_sum_calls", "suites.checks",
          *(f"{layer}.calls" for layer in LAYERS),
          *(f"{layer}.errors" for layer in LAYERS))


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Runner:
    """Runs ops in child processes inside one scratch directory."""

    def __init__(self, work: Path):
        self.work = work
        self.env = _child_env()
        self.seq = 0

    def _spawn(self, argv, log: Path) -> tuple:
        """Run `argv` to its end; returns (exit code or None on timeout,
        spawn time, end time), both CLOCK_MONOTONIC in ns."""
        with open(log, "wb") as stderr:
            spawned = time.monotonic_ns()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=stderr,
                                    stderr=stderr, env=self.env)
            # a blocking wait: Popen.wait(timeout) polls in steps of up to 50 ms
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                code = proc.wait()
            finally:
                ended = time.monotonic_ns()
                timer.cancel()
                timer.join()
                proc.kill()  # a no-op unless the wait was interrupted
                proc.wait()
        if (ended - spawned) * 1e-9 >= OP_TIMEOUT_S:
            code = None
        return code, spawned, ended

    def reference(self) -> float:
        """Wall time of one run of reference.py, in seconds."""
        log = self.work / "reference.log"
        code, spawned, ended = self._spawn([sys.executable, str(HERE / "reference.py")], log)
        if code != 0:
            raise RuntimeError(f"reference job failed: {log.read_text(errors='replace')}")
        return (ended - spawned) * 1e-9

    def run(self, op, trace: bool) -> dict:
        """Run the reference job, then `op` once; the record holds their
        times, the op's outcome and its trace."""
        ref_s = self.reference()
        self.seq += 1
        out = self.work / f"op{self.seq}.out"
        err = self.work / f"op{self.seq}.err"
        result = self.work / f"op{self.seq}.json"
        argv = [sys.executable, str(HERE / "child.py"), str(result),
                "1" if trace else "0", "--", *op.argv(out)]
        code, spawned, ended = self._spawn(argv, err)
        record = {"op": op, "wall_s": (ended - spawned) * 1e-9, "ref_s": ref_s,
                  "code": code, "error": None, "checked": False}
        child = json.loads(result.read_text()) if result.exists() else {}
        record["setup_s"] = ((child["imported_ns"] - spawned) * 1e-9
                             if "imported_ns" in child else None)
        record["rss_mb"] = child.get("maxrss_kb", 0) / 1024.0
        record["trace"] = child if trace else None
        stderr_text = err.read_text(errors="replace")
        if code is None:
            record["error"] = f"timed out after {OP_TIMEOUT_S:g} s"
        elif code != 0 or "Traceback (most recent call last)" in stderr_text:
            last = stderr_text.strip().splitlines()[-1:] or [""]
            record["error"] = f"exit {code}: {last[0]}"
        else:
            record["checked"] = True
            try:
                op.check(out.read_text(encoding="utf-8"))
            except (CheckFailed, OSError, ValueError, KeyError, IndexError) as exc:
                record["error"] = f"check failed: {exc}"
        record["bytes_out"] = out.stat().st_size if out.exists() else 0
        for path in (out, err, result):
            path.unlink(missing_ok=True)
        return record

    def run_pass(self, ops, trace: bool) -> list:
        return [self.run(op, trace) for op in ops if trace or not op.probe]


def tail(values) -> str:
    """The highest percentile of `values` with at least ten samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return f"slowest of {n} passes {ordered[-1]:.3f} s (no percentile has ten above it)"
    return f"p{100.0 * (n - 10) / n:.1f} of {n} passes {ordered[n - 11]:.3f} s"


def scaled(r, seconds) -> float:
    """`seconds` measured next to record `r`, at reference speed."""
    return seconds * REFERENCE_S / r["ref_s"]


def pass_time(passes, keep=lambda op: not op.probe) -> float:
    """The sum over the kept ops of each op's median scaled wall time."""
    times = {}
    for records in passes:
        for r in records:
            if keep(r["op"]):
                times.setdefault(r["op"].name, []).append(scaled(r, r["wall_s"]))
    return math.fsum(statistics.median(v) for v in times.values())


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes) -> dict:
    """setup_s, pass_s and peak_rss_mb of the untraced passes."""
    records = [r for p in passes for r in p]
    times = [math.fsum(r["wall_s"] for r in p) for p in passes]
    setups = [r for r in records if r["setup_s"] is not None]
    print(f"unscaled: pass median {statistics.median(times):.3f} s, {tail(times)}; "
          f"setup median {statistics.median(r['setup_s'] for r in setups):.4f} s; "
          f"reference median {statistics.median(r['ref_s'] for r in records):.4f} s",
          file=sys.stderr)
    return {
        "setup_s": _metric(statistics.median(scaled(r, r["setup_s"]) for r in setups), "s"),
        "pass_s": _metric(pass_time(passes), "s"),
        "peak_rss_mb": _metric(max(r["rss_mb"] for r in records), "MB"),
    }


def layer_profile(records) -> tuple:
    """Per-layer self time, counts and errors of one traced pass.

    Returns (times, counts): times vary between passes, counts must not.
    """
    times, counts = Counter(), Counter()
    for layer in LAYERS:
        times[f"{layer}.self_s"] = 0.0
    times["models.lambda_s"] = 0.0
    pmf_specs = 0
    for r in records:
        trace = r["trace"] or {}
        spans = trace.get("spans", [])
        covered = [0] * len(spans)
        for layer, name, start, end, parent, raised in spans:
            if parent >= 0:
                covered[parent] += end - start
            if raised:
                counts[f"{layer}.errors"] += 1
            if layer == "models" and name in LAMBDA_FUNCTIONS:
                times["models.lambda_s"] += scaled(r, (end - start) * 1e-9)
        for (layer, _, start, end, _, _), child in zip(spans, covered):
            times[f"{layer}.self_s"] += scaled(r, (end - start - child) * 1e-9)
        counts.update(trace.get("counts", {}))
        pmf_specs += counts.pop("models.pmf_specs", 0)
        counts["io.bytes_out"] += r["bytes_out"]
        counts["cli.errors"] += r["code"] != 0
    counts["models.pmf_specs"] = pmf_specs
    return times, counts


def per_layer(plain_passes, traced_passes) -> tuple:
    """The per-layer metrics, and whether every count repeated exactly."""
    profiles = [layer_profile(p) for p in traced_passes]
    counts = profiles[0][1]
    repeated = all(c == counts for _, c in profiles)
    metrics = {name: _metric(statistics.median(t[name] for t, _ in profiles), "s")
               for name in profiles[0][0]}
    for name in COUNTS:
        metrics[name] = _metric(counts[name], "count")
    metrics["io.bytes_out"] = _metric(counts["io.bytes_out"], "B")
    calls = counts["models.pmf_calls"]
    metrics["models.pmf_useful_ratio"] = _metric(
        counts["models.pmf_specs"] / calls if calls else 1.0, "ratio")
    for command in ("pmf", "scheme"):
        metrics[f"{command}_s"] = _metric(
            pass_time(plain_passes, lambda op: op.command == command), "s")
    traced = traced_passes[0]
    metrics["failed_ratio"] = _metric(
        sum(r["error"] is not None for r in traced) / len(traced), "ratio")
    metrics["trace.overhead_s"] = _metric(
        pass_time(traced_passes) - pass_time(plain_passes), "s")
    return metrics, repeated


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run `workload` for about `seconds` and return the result object."""
    ops = build(workload, seed, work)
    runner = Runner(work)
    # compile the package's bytecode and warm the file cache before timing
    warm = runner.run(ops[0], trace=False)
    plain, traced = [], []
    started = time.monotonic()
    while True:
        plain.append(runner.run_pass(ops, trace=False))
        if trace:
            traced.append(runner.run_pass(ops, trace=True))
        spent = time.monotonic() - started
        if spent * (len(plain) + 1) / len(plain) > seconds:
            break
    timed = [r for p in plain for r in p]
    for op in ops:
        walls = [r["wall_s"] for r in timed if r["op"] is op]
        if walls:
            print(f"{op.name}: median {statistics.median(walls):.3f} s of "
                  f"{len(walls)} runs, unscaled", file=sys.stderr)
    failures = [r for r in timed + [warm] if r["error"]]
    for r in failures:
        print(f"FAILED {r['op'].name}: {r['error']}", file=sys.stderr)
    for p in traced[:1]:
        for r in p:
            if r["op"].probe:
                print(f"probe {r['op'].name}: {r['error'] or 'passed'}", file=sys.stderr)
    if trace:
        metrics, repeated = per_layer(plain, traced)
        if not repeated:
            print("FAILED: counts differ between traced passes", file=sys.stderr)
    else:
        metrics, repeated = end_to_end(plain), True
    return {"correct": not failures and repeated, "attempted": len(timed),
            "failed": sum(r["error"] is not None for r in timed), "metrics": metrics,
            "records": plain + traced}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "modpoisson" / "cli.py").is_file():
        print(f"error: no modpoisson sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result.pop("records")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    # unwind on SIGTERM too, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
