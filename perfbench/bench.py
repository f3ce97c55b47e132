"""Set-up, the closed measurement loop, the oracle gate and the result line.

One process runs one workload with one client: each structured solve is
timed, the naive oracle is timed right after it on the same instance, and
the two outputs must match exactly.  ``--trace 1`` alternates an unpatched
solve with a traced one and reports per-layer metrics instead of the
end-to-end ones.
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
import tracemalloc
from time import perf_counter

import numpy as np

import spans
from minplus.core import OpCounters
from workloads import COUNTER_SPANS, SelfCheckError, mismatch

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 3

#: A fast oracle is re-run on the same instance, up to ORACLE_REPS calls
#: while they add up to less than ORACLE_BUDGET_S, and the median call is
#: the sample: a millisecond oracle is then not timed from cold caches
#: alone, and the repeat count depends only on the oracle's own speed.
ORACLE_REPS = 5
ORACLE_BUDGET_S = 0.05

END_TO_END = {
    "solve_s_p90": "s",
    "naive_s_p90": "s",
    "speedup_vs_naive": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{m: "s" for m in spans.LAYER_TIMES},
    **{m: "count" for m in spans.LAYER_CALLS},
    **{m: "frac" for m in spans.LAYER_FRACS},
    "decompose.parts_max": "count",
    "fileio.bytes": "B",
    "generators.s": "s",
    "solve.peak_alloc_mb": "MB",
    "trace.overhead_frac": "frac",
}


def _setup(wl, seed, workdir, recorder=None):
    """Build the instance set from ``seed`` and run one untimed warm-up
    solve, SETUP_REPS times; returns the last set and each rep's seconds."""
    times = []
    for rep in range(SETUP_REPS):
        t0 = perf_counter()
        rng = np.random.default_rng(seed)
        if recorder is None:
            patches = contextlib.nullcontext()
        else:
            recorder.solve = ("setup", rep)
            patches = recorder.patched(spans.SETUP_PATCHES)
        with patches:
            instances = [wl.make(wl, rng, workdir, k) for k in range(wl.instances)]
        wl.finish(wl, instances[0], wl.solve(wl, instances[0], None), None)
        times.append(perf_counter() - t0)
    return instances, times


def _attempt(wl, inst, counters=None, timed=None):
    """One solve plus its oracle.  Returns (solve seconds, oracle seconds,
    problem or None); a raised exception is a problem, not a crash."""
    try:
        solve = timed or wl.solve
        t0 = perf_counter()
        raw = solve(wl, inst, counters)
        solve_s = perf_counter() - t0
        naive_s = []
        while len(naive_s) < ORACLE_REPS and sum(naive_s) < ORACLE_BUDGET_S:
            t0 = perf_counter()
            want = wl.oracle(inst)
            naive_s.append(perf_counter() - t0)
        problem = mismatch(wl.finish(wl, inst, raw, counters), want)
        return solve_s, statistics.median(naive_s), problem
    except Exception:
        return 0.0, 0.0, traceback.format_exc()


def _self_check(wl, solve_spans, counters: OpCounters) -> None:
    """Every counted call went through a wrapper, and the workload's
    dominant count equals its formula."""
    counts = counters.as_dict()
    for field, name in COUNTER_SPANS.items():
        seen = sum(1 for s in solve_spans if s.name == name)
        if seen != counts[field]:
            raise SelfCheckError(
                f"{name} wrapper saw {seen} calls, OpCounters.{field} = {counts[field]}"
            )
    want = wl.expected_calls(wl, solve_spans)
    if counts[wl.counter] != want:
        raise SelfCheckError(f"OpCounters.{wl.counter} = {counts[wl.counter]}, expected {want}")


def _p90(xs):
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def _measure(wl, instances, seconds):
    """Closed loop until ``seconds`` have passed; returns the verified
    solve and oracle times, and the attempted and failed counts."""
    solve_s, naive_s, failed, attempted = [], [], 0, 0
    deadline = perf_counter() + seconds
    while attempted == 0 or perf_counter() < deadline:
        ts, tn, problem = _attempt(wl, instances[attempted % len(instances)])
        attempted += 1
        if problem:
            failed += 1
            print(f"solve {attempted} failed: {problem}", file=sys.stderr)
        else:
            solve_s.append(ts)
            naive_s.append(tn)
    return solve_s, naive_s, attempted, failed


def _measure_traced(wl, instances, seconds, recorder):
    """Closed loop of pairs: an unpatched solve, then the same instance
    traced.  Returns the traced/untraced time ratio of each verified pair,
    the traced solve ids, and the attempted and failed counts."""
    ratios, solves, failed, attempted = [], [], 0, 0
    root = recorder.wrap("solve", wl.solve)

    def traced_solve(*args):
        # Only the solve is patched; the oracle and the parse-back are not.
        with recorder.patched(spans.SOLVE_PATCHES):
            return root(*args)

    deadline = perf_counter() + seconds
    while not solves or perf_counter() < deadline:
        k = len(solves) % len(instances)
        plain, _, problem = _attempt(wl, instances[k])
        if problem:
            print(f"untraced solve failed: {problem}", file=sys.stderr)

        solve_id = len(solves)
        recorder.solve, recorder.instance = solve_id, k
        counters = OpCounters()
        first_span = len(recorder.spans)
        traced, _, traced_problem = _attempt(
            wl, instances[k], counters, timed=traced_solve
        )
        solves.append(solve_id)
        if not traced_problem:
            try:
                _self_check(wl, recorder.spans[first_span:], counters)
            except SelfCheckError as exc:
                traced_problem = f"self-check: {exc}"
        if traced_problem:
            print(f"traced solve failed: {traced_problem}", file=sys.stderr)
        attempted += 2
        failed += bool(problem) + bool(traced_problem)
        if not problem and not traced_problem:
            ratios.append(traced / plain)
    return ratios, solves, attempted, failed


def _peak_alloc_mb(wl, inst) -> float:
    tracemalloc.start()
    try:
        wl.solve(wl, inst, None)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run(wl, *, seed, seconds, trace, import_s, blas_threads, out_dir) -> int:
    """Set up, measure and print one workload; returns the exit code."""
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"work-{wl.name}-", dir=out_dir)
    try:
        return _run(wl, seed, seconds, trace, import_s, blas_threads, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(wl, seed, seconds, trace, import_s, blas_threads, out_dir, workdir):
    info = {
        "workload": wl.name,
        "seed": seed,
        **wl.params(),
        "library_threads": 1,
        "closed_loop_clients": 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "setup_reps": SETUP_REPS,
    }
    recorder = spans.Recorder() if trace else None
    instances, setup_times = _setup(wl, seed, workdir, recorder)

    if not trace:
        solve_s, naive_s, attempted, failed = _measure(wl, instances, seconds)
        metrics = {}
        if solve_s:
            metrics = {
                "solve_s_p90": _p90(solve_s),
                "naive_s_p90": _p90(naive_s),
                "speedup_vs_naive": statistics.median(
                    n / t for n, t in zip(naive_s, solve_s)
                ),
                "setup_s": import_s + statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            # These swing with how much of a run the host spends contended
            # (see perfbench/README.md), so they are reported but not gated.
            info["unbounded"] = {
                "solve_s_p50": statistics.median(solve_s),
                "naive_s_p50": statistics.median(naive_s),
                "solves_per_s": len(solve_s) / sum(solve_s),
            }
        units = END_TO_END
    else:
        ratios, solves, attempted, failed = _measure_traced(
            wl, instances, seconds, recorder
        )
        groups = recorder.by_solve()
        metrics = {}
        if ratios:
            metrics = spans.layer_metrics(groups, solves)
            metrics["generators.s"] = statistics.median(
                sum(t for s, t in groups[("setup", rep)] if s.name == "generators")
                for rep in range(SETUP_REPS)
            )
            metrics["solve.peak_alloc_mb"] = _peak_alloc_mb(wl, instances[0])
            metrics["trace.overhead_frac"] = statistics.median(ratios) - 1
            layer_shares = spans.shares(groups, solves)
            info["layer_shares"] = {k: round(v, 4) for k, v in layer_shares.items()}
            path = os.path.join(out_dir, f"spans-{wl.name}-seed{seed}.json")
            with open(path, "w", encoding="utf-8") as f:
                json.dump({"info": info, "spans": recorder.spans}, f)
        units = PER_LAYER
        info["traced_pairs"] = len(ratios)

    info["verified_solves"] = attempted - failed
    print(json.dumps(info))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m: {"value": metrics[m], "unit": u}
                    for m, u in units.items()
                    if m in metrics
                },
            }
        )
    )
    return 0 if failed == 0 and metrics else 1
