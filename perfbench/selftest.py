#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

On a shrunk copy of every workload it shows that:

- the true output passes the oracle gate, and an output with one value
  moved by one, or with one entry's finite flag cleared, does not;
- a short run whose structured solve returns a corrupted output counts
  every solve as failed, prints ``"correct": false`` and exits non-zero
  (on ``file_pipeline`` the corruption travels through the result file);
- a traced run whose wrappers miss the calls ``OpCounters`` counts fails
  the self-check instead of reading zero.

It also checks that BENCHMARK.json names the workloads and the metrics,
with their units, that the benchmark prints.  Exits 0 when all hold.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import sys
import tempfile

import run

OUT_DIR = os.path.join(run.ROOT, ".perfbench")

SHRUNK = {
    "product_monotone": {"n": 32},
    "conv_monotone": {"n": 64},
    "conv_fewvalues": {"n": 64, "ell": 8},
    "file_pipeline": {"n": 16},
}


def _corrupt(out):
    values, finite = out.values.copy(), out.finite.copy()
    values.flat[0] += 1
    return type(out)(values, finite)


def _unset_first(out):
    finite = out.finite.copy()
    finite.flat[0] = False
    return type(out)(out.values, finite)


def _run_quietly(bench, wl, trace):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = bench.run(
            wl,
            seed=0,
            seconds=0.2,
            trace=trace,
            import_s=0.0,
            blas_threads=1,
            out_dir=OUT_DIR,
        )
    return code, json.loads(stdout.getvalue().splitlines()[-1])


def main() -> int:
    run.pin_blas_threads()
    run.import_library()
    import bench
    import numpy as np
    import spans
    from minplus import cli, convolution, product
    from workloads import COUNTER_SPANS, WORKLOADS, mismatch

    failures = []
    os.makedirs(OUT_DIR, exist_ok=True)

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    # The names each workload's solve looks up; swapping them corrupts it.
    solve_names = {
        "product_monotone": [(product, "minplus_decomposed")],
        "conv_monotone": [(convolution, "conv_decomposed")],
        "conv_fewvalues": [(convolution, "conv_few_values")],
        "file_pipeline": [(cli, "minplus_decomposed")],
    }
    for name, small in SHRUNK.items():
        wl = dataclasses.replace(WORKLOADS[name], **small)
        code, res = _run_quietly(bench, wl, trace=False)
        check(code == 0 and res["correct"] and res["failed"] == 0, f"{name}: clean run passes")

        with tempfile.TemporaryDirectory(dir=OUT_DIR) as workdir:
            inst = wl.make(wl, np.random.default_rng(0), workdir, 0)
            want = wl.oracle(inst)
            got = wl.finish(wl, inst, wl.solve(wl, inst, None), None)
        check(mismatch(got, want) is None, f"{name}: true output passes the gate")
        check(mismatch(_corrupt(got), want) is not None, f"{name}: value off by one is caught")
        check(mismatch(_unset_first(got), want) is not None, f"{name}: lost finite flag is caught")

        originals = [(owner, attr, getattr(owner, attr)) for owner, attr in solve_names[name]]
        try:
            for owner, attr, fn in originals:
                setattr(owner, attr, lambda *a, _fn=fn, **k: _corrupt(_fn(*a, **k)))
            code, res = _run_quietly(bench, wl, trace=False)
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
        check(
            code != 0 and not res["correct"] and res["failed"] == res["attempted"] > 0,
            f"{name}: corrupted solves fail the run (exit {code}, "
            f"{res['failed']}/{res['attempted']} failed)",
        )

        counted = set(COUNTER_SPANS.values())
        kept = [p for p in spans.SOLVE_PATCHES if p[2] not in counted]
        full, spans.SOLVE_PATCHES = spans.SOLVE_PATCHES, kept
        try:
            code, res = _run_quietly(bench, wl, trace=True)
        finally:
            spans.SOLVE_PATCHES = full
        check(code != 0 and res["failed"] > 0, f"{name}: missing wrappers fail the self-check")
        code, res = _run_quietly(bench, wl, trace=True)
        check(code == 0 and res["failed"] == 0, f"{name}: traced run passes the self-check")

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    for key, table in (("end_to_end", bench.END_TO_END), ("per_layer", bench.PER_LAYER)):
        named = {m["name"]: m["unit"] for m in spec[key]}
        check(named == table, f"BENCHMARK.json {key} names and units")

    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
