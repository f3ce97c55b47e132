"""Command line front end: instance generation, decomposition, algorithm
dispatch, oracle verification, and call-count benchmarks.

Exit codes: 0 success, 2 unreadable or malformed input (argparse shares
this code), 3 validation failure (bad structure for the chosen
algorithm, bound violations), 4 verification mismatch, 5 overflow.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from . import fileio
from .convolution import conv_decomposed, conv_few_values, conv_naive
from .core import (
    Decomposition,
    DirectionViolation,
    MinPlusError,
    MinPlusOutput,
    MonotoneTag,
    OpCounters,
    checked_size,
    validate_decomposition,
)
from .decompose import (
    DECOMPOSE_MODES,
    decompose_cols,
    decompose_rows,
    decompose_uniform,
    decomposition_stats,
)
from .generators import (
    planted_matrix_cols,
    planted_matrix_rows,
    planted_mixed_matrix_rows,
    planted_monotone_vector,
    planted_uniform_matrix_cols,
    planted_uniform_matrix_rows,
    planted_uniform_vector,
    random_matrix,
    random_vector,
)
from .product import (
    minplus_decomposed,
    minplus_few_values_product,
    minplus_mixed_uniform,
    minplus_naive,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_MISMATCH = 4
EXIT_OVERFLOW = 5

#: The decomposition mode table itself, not a copy: ``decompose_rows`` and
#: ``decompose_cols`` look modes up in it too.
_MODE_FNS = DECOMPOSE_MODES

_OPPOSITE = {"nondec": "noninc", "noninc": "nondec"}


def _emit(text: str, out: str | None) -> None:
    if out:
        fileio.write_atomic(out, text)
    else:
        print(text, end="")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MinPlusError(message)


def _infer_matrix_direction(inst: fileio.MatrixInstance) -> str:
    # A parsed instance carries what validating its decompositions returned.
    rows = inst.rows_parts or validate_decomposition(inst.dec_rows, inst.A.entries)
    cols = inst.cols_parts or validate_decomposition(inst.dec_cols, inst.B.entries.T)
    for tag in (MonotoneTag.NON_DECREASING, MonotoneTag.NON_INCREASING):
        if rows.holds[tag].all() and cols.holds[tag].all():
            return tag.value
    raise DirectionViolation(
        "row and column parts do not share one direction; pass --direction"
    )


def _attached(inst, algo: str):
    """The instance's two attached decompositions, or an error if one is missing."""
    if isinstance(inst, fileio.MatrixInstance):
        decs, what = (inst.dec_rows, inst.dec_cols), "A rows and B cols"
    else:
        decs, what = (inst.dec_a, inst.dec_b), "a and b"
    _require(
        decs[0] is not None and decs[1] is not None,
        f"{algo} requires attached decompositions for {what}; run "
        "'minplus decompose' first",
    )
    return decs


def _run_naive(inst, args, counters):
    if isinstance(inst, fileio.MatrixInstance):
        return minplus_naive(inst.A, inst.B), {}
    return conv_naive(inst.a, inst.b), {}


def _run_fig1(inst, args, counters):
    dec_rows, dec_cols = _attached(inst, "fig1")
    direction = args.direction or _infer_matrix_direction(inst)
    out = minplus_decomposed(
        inst.A, dec_rows, inst.B, dec_cols, direction, counters=counters
    )
    return out, {"direction": direction}


def _run_fig2(inst, args, counters):
    dec_rows, dec_cols = _attached(inst, "fig2")
    out = minplus_mixed_uniform(inst.A, dec_rows, inst.B, dec_cols, counters=counters)
    return out, {}


def _run_fewvalues(inst, args, counters):
    dec_rows, dec_cols = inst.dec_rows, inst.dec_cols
    if dec_rows is None:
        dec_rows = decompose_rows(inst.A, "uniform")
    if dec_cols is None:
        dec_cols = decompose_cols(inst.B, "uniform")
    out = minplus_few_values_product(
        inst.A, dec_rows, inst.B, dec_cols, counters=counters
    )
    return out, {}


def _run_fig3(inst, args, counters):
    dec_a, dec_b = _attached(inst, "fig3")
    return conv_decomposed(inst.a, dec_a, inst.b, dec_b, counters=counters), {}


def _run_fig4(inst, args, counters):
    dec_b = inst.dec_b
    if dec_b is None:
        dec_b = decompose_uniform(inst.b.coords)
    ell = checked_size(inst.a.n, args.ell, "group size")
    out = conv_few_values(inst.a, inst.b, dec_b, ell=ell, counters=counters)
    return out, {"ell": ell}


#: One row per algorithm: the instance kind it runs on (None: either) and a
#: runner returning the output and the parameters it used.  A runner looks
#: its solver up as a module global when called, so a solver replaced on
#: this module is the one run.  Key order is the ``--algo`` choice order.
ALGOS = {
    "naive": (None, _run_naive),
    "fig1": ("matrix", _run_fig1),
    "fig2": ("matrix", _run_fig2),
    "fig3": ("vector", _run_fig3),
    "fig4": ("vector", _run_fig4),
    "fewvalues": ("matrix", _run_fewvalues),
}


def _run_algorithm(inst, algo: str, args, counters: OpCounters):
    """Run ``algo`` on ``inst``, returning (MinPlusOutput, params used)."""
    kind, run = ALGOS[algo]
    is_matrix = isinstance(inst, fileio.MatrixInstance)
    _require(
        kind in (None, "matrix" if is_matrix else "vector"),
        f"algorithm {algo} needs a {kind} instance",
    )
    return run(inst, args, counters)


def _generate_instance(args, algo: str, seed: int):
    """A seeded instance planted for ``algo`` from the generator flags."""
    n, m_a, m_b, h = args.n, args.m_a, args.m_b, args.h
    direction = args.direction or "nondec"
    rng = np.random.default_rng(seed)
    meta = {"algo": algo, "seed": str(seed)}
    if algo == "naive":
        _require(
            args.kind in ("matrix", "vector"),
            "the naive generator needs --kind matrix or --kind vector",
        )
        if args.kind == "matrix":
            return fileio.MatrixInstance(
                random_matrix(rng, n), random_matrix(rng, n), meta=meta
            )
        return fileio.VectorInstance(
            random_vector(rng, n), random_vector(rng, n), meta=meta
        )
    if algo == "fig1":
        meta.update({"m-a": str(m_a), "m-b": str(m_b), "direction": direction})
        A, dec_rows = planted_matrix_rows(rng, n, m_a, direction)
        B, dec_cols = planted_matrix_cols(rng, n, m_b, direction)
        return fileio.MatrixInstance(A, B, tuple(dec_rows), tuple(dec_cols), meta)
    if algo == "fig2":
        meta.update({"m-a": str(m_a), "h": str(h)})
        A, dec_rows = planted_mixed_matrix_rows(rng, n, m_a)
        B, dec_cols = planted_uniform_matrix_cols(rng, n, h)
        return fileio.MatrixInstance(A, B, tuple(dec_rows), tuple(dec_cols), meta)
    if algo == "fewvalues":
        meta.update({"m-a": str(m_a), "m-b": str(m_b)})
        A, dec_rows = planted_uniform_matrix_rows(rng, n, m_a)
        B, dec_cols = planted_uniform_matrix_cols(rng, n, m_b)
        return fileio.MatrixInstance(A, B, tuple(dec_rows), tuple(dec_cols), meta)
    if algo == "fig3":
        meta.update({"m-a": str(m_a), "m-b": str(m_b), "direction": direction})
        a, dec_a = planted_monotone_vector(rng, n, m_a, direction)
        b, dec_b = planted_monotone_vector(rng, n, m_b, _OPPOSITE[direction])
        return fileio.VectorInstance(a, b, dec_a, dec_b, meta)
    meta.update({"h": str(h)})
    a = random_vector(rng, n)
    b, dec_b = planted_uniform_vector(rng, n, h)
    return fileio.VectorInstance(a, b, None, dec_b, meta)


def _first_mismatch(got: MinPlusOutput, want: MinPlusOutput):
    """None when equal; else a human description of the first difference."""
    if got.values.shape != want.values.shape:
        return f"shape {got.values.shape} vs {want.values.shape}"
    diff = (got.finite != want.finite) | (
        got.finite & want.finite & (got.values != want.values)
    )
    where = np.argwhere(diff)
    if where.size == 0:
        return None

    def show(o: MinPlusOutput, pos) -> str:
        return str(o.values[pos]) if o.finite[pos] else "inf"

    pos = tuple(int(x) for x in where[0])
    if got.is_matrix:
        label = f"entry ({pos[0] + 1}, {pos[1] + 1})"
    else:
        label = f"coordinate {pos[0]}"
    return f"{label}: got {show(got, pos)}, expected {show(want, pos)}"


def _cmd_gen(args) -> int:
    _require(args.n is not None, "gen needs --n")
    inst = _generate_instance(args, args.algo, args.seed)
    _emit(fileio.serialize(inst), args.out)
    return EXIT_OK


def _stats_line(label: str, dec: Decomposition, host: np.ndarray) -> str:
    st = decomposition_stats(dec, host)
    bound = "-" if st.lower_bound_certificate is None else str(
        st.lower_bound_certificate
    )
    return (
        f"{label}: parts={st.parts_count} direction={st.direction} "
        f"lower-bound={bound}"
    )


def _cmd_decompose(args) -> int:
    inst = fileio.parse_path(args.input)
    report: list[str] = []
    if isinstance(inst, fileio.VectorInstance):
        _require(
            args.target in ("a", "b", "both"),
            "vector instances take --target a|b|both",
        )
        fn = _MODE_FNS[args.mode]
        if args.target in ("a", "both"):
            inst.dec_a = fn(inst.a.coords)
            report.append(_stats_line("a", inst.dec_a, inst.a.coords))
        if args.target in ("b", "both"):
            inst.dec_b = fn(inst.b.coords)
            report.append(_stats_line("b", inst.dec_b, inst.b.coords))
    else:
        _require(
            args.target in ("rows", "cols", "both"),
            "matrix instances take --target rows|cols|both",
        )
        if args.target in ("rows", "both"):
            inst.dec_rows = tuple(decompose_rows(inst.A, args.mode))
            inst.rows_parts = None
            m = inst.dec_rows[0].part_count
            report.append(f"rows: count={inst.A.n} max-parts={m} mode={args.mode}")
        if args.target in ("cols", "both"):
            inst.dec_cols = tuple(decompose_cols(inst.B, args.mode))
            inst.cols_parts = None
            m = inst.dec_cols[0].part_count
            report.append(f"cols: count={inst.B.n} max-parts={m} mode={args.mode}")
    for line in report:
        label, _, stats = line.partition(": ")
        inst.meta[f"dec-stats-{label}"] = stats
    if args.out:
        fileio.write_atomic(args.out, fileio.serialize(inst))
        for line in report:
            print(line)
    else:
        print(fileio.serialize(inst), end="")
    return EXIT_OK


def _cmd_compute(args) -> int:
    inst = fileio.parse_path(args.input)
    counters = OpCounters()
    output, params = _run_algorithm(inst, args.algo, args, counters)
    meta = {"algorithm": args.algo}
    meta.update((key, str(value)) for key, value in params.items())
    if "seed" in inst.meta:
        meta["seed"] = inst.meta["seed"]
    for key, value in counters.as_dict().items():
        meta[key.replace("_", "-")] = str(value)
    kind = "result-matrix" if output.is_matrix else "result-vector"
    n = inst.A.n if isinstance(inst, fileio.MatrixInstance) else inst.a.n
    doc = fileio.ResultDocument(kind, n, output, meta)
    _emit(fileio.serialize(doc), args.out)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.trials is not None:
        _require(args.input is None, "--trials mode takes no input file")
        _require(args.n is not None, "--trials mode needs --n")
        for t in range(args.trials):
            inst = _generate_instance(args, args.algo, args.seed + t)
            got, _ = _run_algorithm(inst, args.algo, args, OpCounters())
            want, _ = _run_algorithm(inst, "naive", args, OpCounters())
            problem = _first_mismatch(got, want)
            if problem is not None:
                print(f"mismatch (trial {t}, seed {args.seed + t}): {problem}")
                return EXIT_MISMATCH
        print(f"all equal ({args.trials} trials)")
        return EXIT_OK
    _require(args.input is not None, "need an input file or --trials")
    inst = fileio.parse_path(args.input)
    got, _ = _run_algorithm(inst, args.algo, args, OpCounters())
    if args.result is not None:
        doc = fileio.parse_path(args.result)
        _require(
            isinstance(doc, fileio.ResultDocument),
            "--result must point at a result document",
        )
        problem = _first_mismatch(doc.output, got)
        source = "stored result"
    else:
        want, _ = _run_algorithm(inst, "naive", args, OpCounters())
        problem = _first_mismatch(got, want)
        source = args.algo
    if problem is not None:
        print(f"mismatch ({source}): {problem}")
        return EXIT_MISMATCH
    print("all equal")
    return EXIT_OK


def _cmd_bench(args) -> int:
    algos = [a.strip() for a in args.algo.split(",") if a.strip()]
    _require(bool(algos), "need at least one algorithm")
    for a in algos:
        _require(a in ALGOS, f"unknown algorithm {a!r}")
    structured = [a for a in algos if a != "naive"]
    _require(
        len(set(structured)) <= 1,
        "bench compares one structured algorithm against naive",
    )
    _require(args.n is not None, "bench needs --n")
    gen_algo = structured[0] if structured else "naive"
    inst = _generate_instance(args, gen_algo, args.seed)
    rows = []
    for algo in algos:
        counters = OpCounters()
        t0 = time.perf_counter()
        _, params = _run_algorithm(inst, algo, args, counters)
        seconds = time.perf_counter() - t0
        row = {"algorithm": algo, "seconds": round(seconds, 6), **params}
        rows.append(row | counters.as_dict())
    columns = ["algorithm", "seconds", *OpCounters().as_dict()]
    headers = [c.replace("_", "-") for c in columns]
    table = [[str(row[c]) for c in columns] for row in rows]
    widths = [
        max(len(h), *(len(line[i]) for line in table))
        for i, h in enumerate(headers)
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for line in table:
        print("  ".join(v.ljust(w) for v, w in zip(line, widths)))
    if args.out:
        payload = {
            "n": args.n,
            "seed": args.seed,
            "generator": gen_algo,
            "params": {
                "m-a": args.m_a,
                "m-b": args.m_b,
                "h": args.h,
                "direction": args.direction,
            },
            "rows": rows,
        }
        fileio.write_atomic(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--direction", choices=["nondec", "noninc"], default=None)
    p.add_argument("--ell", type=int, default=None)


def _add_gen_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", choices=["matrix", "vector"], default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m-a", dest="m_a", type=int, default=3)
    p.add_argument("--m-b", dest="m_b", type=int, default=3)
    p.add_argument("--h", dest="h", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="minplus",
        description="(min,+) products and convolutions via monotone "
        "decompositions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a seeded instance file")
    p.add_argument("--algo", required=True, choices=ALGOS)
    _add_gen_flags(p)
    p.add_argument("--direction", choices=["nondec", "noninc"], default="nondec")
    p.add_argument("--out", default=None)

    p = sub.add_parser("decompose", help="attach decompositions to an instance")
    p.add_argument("input")
    p.add_argument("--mode", required=True, choices=sorted(_MODE_FNS))
    p.add_argument(
        "--target",
        default="both",
        choices=["a", "b", "rows", "cols", "both"],
    )
    p.add_argument("--out", default=None)

    p = sub.add_parser("compute", help="run an algorithm, write a result file")
    p.add_argument("input")
    p.add_argument("--algo", required=True, choices=ALGOS)
    _add_run_flags(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="compare against the naive oracle")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--algo", default="naive", choices=ALGOS)
    p.add_argument("--result", default=None)
    p.add_argument("--trials", type=int, default=None)
    _add_gen_flags(p)
    _add_run_flags(p)

    p = sub.add_parser("bench", help="time and count one instance")
    p.add_argument("--algo", required=True, help="comma-separated list")
    _add_gen_flags(p)
    _add_run_flags(p)
    p.add_argument("--out", default=None, help="also write JSON here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Looked up at call time, so a replaced ``_cmd_*`` is the one called.
    command = globals()[f"_cmd_{args.command}"]
    try:
        return command(args)
    except (OSError, OverflowError, MinPlusError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (fileio.ParseError, OSError)):
            return EXIT_PARSE
        return EXIT_OVERFLOW if isinstance(exc, OverflowError) else EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
