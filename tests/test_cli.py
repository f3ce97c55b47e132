"""Command-line interface end to end, in process via main()."""

import argparse
import hashlib
import json

import numpy as np
import pytest

from minplus import cli, fileio, generators, product

VECTOR_DOC = """format: minplus/1
kind: vector
n: 6
index-base: 0

begin vector a
1 7 3 9 8 4
end vector a

begin vector b
13 7 11 5 10 12
end vector b
"""

CONSTANT_DOC = """format: minplus/1
kind: vector
n: 2
index-base: 0

begin vector a
5 5
end vector a

begin vector b
5 5
end vector b
"""

#: Rows of A and columns of B with 1, 3 and 2 nondec parts each.
UNEQUAL_PARTS_DOC = """format: minplus/1
kind: matrix
n: 3
index-base: 1

begin matrix A
1 2 3
3 2 1
2 1 3
end matrix A

begin matrix B
1 3 2
2 2 1
3 1 3
end matrix B
"""


#: SHA-256 of ``minplus gen --n 16 --seed 0`` plus these flags, recorded
#: before the CLI's algorithm table replaced its per-algorithm branches.
GEN_SHA256 = {
    "fig1": "1eaa47d7cdfaa0eee37f0c5b48aabaeefd5765f2efa7b69a53aee940775b80cc",
    "fig1 --direction noninc":
        "bdf82190e9122f4710c261707a887a711b87b1aaa1640d9e13d8142f1acd534e",
    "fig2": "c7643dee94dedc8f6b57e7c88bd30f733426bb9ab80aaea619ed7e2057f48634",
    "fig3": "80aa1aa69eda89ef7055be475b725d994086b746f1923bba7a2ad55035e87cd3",
    "fig3 --direction noninc":
        "298db07f3af9c42a9c6d871702878181e4b01280dcf095dc7dfb429646b840e9",
    "fig4": "9f4f84ae5aaa995967a24877dd4e752a78a4250473ff9687966e74ab72b64f6e",
    "fewvalues":
        "1e3e06cef01afc6bfaa5324601e7ade26ad796f374655a1d51cabde602a3aa6c",
    "naive --kind matrix":
        "22ecab37d9f435a06d46d05e4d74ee0ade7622d43a490b66279f7ffb0ae8b69d",
    "naive --kind vector":
        "e4ee994106a67dbc59a5456ab3d2383ddb54e9d95ec57d4e2dfe706db6c6f4a3",
}


#: SHA-256 of ``minplus decompose`` with the second flags on the output of
#: ``minplus gen --n 16 --seed 0`` with the first, recorded before the
#: writer put every section through one helper.
DECOMPOSE_SHA256 = {
    ("fewvalues", "--mode nondec"):
        "4a15c996e6c9db997e14f972a3b1d1e1a6f8bbf0f59c528d0b0a92b6098aafe5",
    ("fewvalues", "--mode uniform"):
        "623a0f176baafa72c9947473065e84e0a6c9c55212844b5e871e1cd50c791c0f",
    # The noninc pin, taken later on the same writer.
    ("fig2", "--mode noninc --target rows"):
        "1f01c5b3d7125698ed2fb8c0ec6593caa182efaa6bfda24fb59cfcff23632b10",
    # The vector pins, re-taken when the vector report line took the
    # matrix shape; only their meta dec-stats lines changed.
    ("fig3", "--mode nondec --target a"):
        "1de9ff7127a22d8a5369ea26eefa1eb59a2de4539a76d407cf609309b4e3d483",
    ("fig4", "--mode uniform --target both"):
        "d647fddf0be55218ba35fd00e43cdac885902b35ec774e28277fb06cb906ecb1",
}


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def result_file(capsys, tmp_path):
    """A result document: the naive product of a generated matrix pair."""
    inst, res = tmp_path / "inst.txt", tmp_path / "r.txt"
    run(capsys, "gen", "--algo", "naive", "--kind", "matrix", "--n", "4",
        "--out", str(inst))
    assert run(capsys, "compute", str(inst), "--algo", "naive",
               "--out", str(res))[0] == 0
    return res


def assert_refused_as_result(code, err, path):
    assert code == cli.EXIT_VALIDATION
    assert err == f"error: {path} is a result document, not an instance\n"


def values_section(path):
    lines = path.read_text().splitlines()
    i = lines.index("begin values")
    j = lines.index("end values")
    return lines[i + 1 : j]


class TestGen:
    def test_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        for f in (f1, f2):
            code, _, _ = run(
                capsys, "gen", "--algo", "fig1", "--n", "8", "--seed", "5",
                "--out", str(f),
            )
            assert code == 0
        assert f1.read_bytes() == f2.read_bytes()

    @pytest.mark.parametrize("flags", sorted(GEN_SHA256))
    def test_output_is_pinned(self, capsys, flags):
        code, out, _ = run(capsys, "gen", "--algo", *flags.split(), "--n", "16",
                           "--seed", "0")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == GEN_SHA256[flags]

    def test_seed_changes_output(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "gen", "--algo", "fig3", "--n", "8", "--seed", "1",
            "--out", str(f1))
        run(capsys, "gen", "--algo", "fig3", "--n", "8", "--seed", "2",
            "--out", str(f2))
        assert f1.read_text() != f2.read_text()

    def test_missing_n_is_validation_error(self, capsys):
        code, _, err = run(capsys, "gen", "--algo", "fig1")
        assert code == cli.EXIT_VALIDATION
        assert "--n" in err

    @pytest.mark.parametrize("algo", ["naive", "fig1", "fig2", "fewvalues"])
    def test_zero_dimension_matrix_is_validation_error(self, capsys, algo):
        # The planted generators once failed inside np.stack instead.
        code, out, err = run(
            capsys, "gen", "--algo", algo, "--kind", "matrix", "--n", "0"
        )
        assert code == cli.EXIT_VALIDATION == 3
        assert out == ""
        assert err == "error: dimension 0 outside [1, 1048576]\n"

    @pytest.mark.parametrize(
        "plant",
        [
            lambda rng: generators.planted_matrix_rows(rng, 0, 3),
            lambda rng: generators.planted_matrix_cols(rng, 0, 3),
            lambda rng: generators.planted_mixed_matrix_rows(rng, 0, 3),
            lambda rng: generators.planted_uniform_matrix_cols(rng, 0, 3),
        ],
    )
    def test_zero_dimension_rejected_before_any_draw(self, plant):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=r"^dimension 0 outside \[1, 1048576\]$"):
            plant(rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("classes", [0, -1])
    @pytest.mark.parametrize(
        "plant",
        [
            generators.planted_uniform_vector,
            generators.planted_uniform_matrix_rows,
            generators.planted_uniform_matrix_cols,
        ],
    )
    def test_bad_class_count_rejected_before_any_draw(self, plant, classes):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="^need at least one value class$"):
            plant(rng, 8, classes)
        assert rng.bit_generator.state == state

    def test_bad_class_count_is_validation_error(self, capsys):
        code, out, err = run(capsys, "gen", "--algo", "fig4", "--n", "8",
                             "--h", "0")
        assert code == cli.EXIT_VALIDATION == 3
        assert out == ""
        assert err == "error: need at least one value class\n"

    def test_stdout_when_no_out(self, capsys):
        code, out, _ = run(capsys, "gen", "--algo", "fig4", "--n", "6")
        assert code == 0
        assert out.startswith("format: minplus/1")


class TestCompute:
    def test_structured_matches_naive_byte_for_byte(self, capsys, tmp_path):
        inst = tmp_path / "inst.txt"
        run(capsys, "gen", "--algo", "fig1", "--n", "8", "--m-a", "2",
            "--m-b", "2", "--seed", "3", "--out", str(inst))
        r_fig, r_naive = tmp_path / "fig.txt", tmp_path / "naive.txt"
        assert run(capsys, "compute", str(inst), "--algo", "fig1",
                   "--out", str(r_fig))[0] == 0
        assert run(capsys, "compute", str(inst), "--algo", "naive",
                   "--out", str(r_naive))[0] == 0
        assert values_section(r_fig) == values_section(r_naive)

    def test_result_meta_records_provenance(self, capsys, tmp_path):
        inst = tmp_path / "inst.txt"
        run(capsys, "gen", "--algo", "fig1", "--n", "8", "--m-a", "2",
            "--m-b", "2", "--seed", "3", "--out", str(inst))
        out_file = tmp_path / "res.txt"
        run(capsys, "compute", str(inst), "--algo", "fig1", "--out",
            str(out_file))
        text = out_file.read_text()
        assert "meta algorithm: fig1" in text
        assert "meta witness-matrix-calls: 4" in text
        assert "meta seed: 3" in text

    def test_vector_pipeline_opposed_monotone(self, capsys, tmp_path):
        inst = tmp_path / "v.txt"
        inst.write_text(VECTOR_DOC)
        step1, step2 = tmp_path / "s1.txt", tmp_path / "s2.txt"
        assert run(capsys, "decompose", str(inst), "--mode", "nondec",
                   "--target", "a", "--out", str(step1))[0] == 0
        assert run(capsys, "decompose", str(step1), "--mode", "noninc",
                   "--target", "b", "--out", str(step2))[0] == 0
        res = tmp_path / "vr.txt"
        assert run(capsys, "compute", str(step2), "--algo", "fig3",
                   "--out", str(res))[0] == 0
        naive = tmp_path / "vn.txt"
        run(capsys, "compute", str(step2), "--algo", "naive", "--out",
            str(naive))
        assert values_section(res) == values_section(naive)
        # c_4 = 11 for this input pair
        assert values_section(naive)[0].split()[4] == "11"

    def test_vector_pipeline_uniform(self, capsys, tmp_path):
        inst = tmp_path / "v.txt"
        inst.write_text(VECTOR_DOC)
        dec = tmp_path / "vd.txt"
        assert run(capsys, "decompose", str(inst), "--mode", "uniform",
                   "--target", "b", "--out", str(dec))[0] == 0
        res = tmp_path / "vr.txt"
        assert run(capsys, "compute", str(dec), "--algo", "fig4", "--ell", "3",
                   "--out", str(res))[0] == 0
        naive = tmp_path / "vn.txt"
        run(capsys, "compute", str(dec), "--algo", "naive", "--out", str(naive))
        assert values_section(res) == values_section(naive)

    def test_fig1_validates_each_axis_twice(self, capsys, tmp_path, monkeypatch):
        # Once on parse and once in the product; the direction is inferred
        # from the parts the parser kept.
        inst = tmp_path / "inst.txt"
        run(capsys, "gen", "--algo", "fig1", "--n", "8", "--direction", "noninc",
            "--seed", "3", "--out", str(inst))
        calls = []
        for module in (fileio, cli, product):
            real = module.validate_decomposition
            monkeypatch.setattr(
                module, "validate_decomposition",
                lambda *a, real=real, name=module.__name__:
                    calls.append(name) or real(*a),
            )
        res = tmp_path / "res.txt"
        assert run(capsys, "compute", str(inst), "--algo", "fig1",
                   "--out", str(res))[0] == 0
        assert sorted(calls) == ["minplus.fileio"] * 2 + ["minplus.product"] * 2
        assert "meta direction: noninc" in res.read_text()

    @pytest.mark.parametrize("rows, cols, direction", [
        ("nondec", "nondec", "nondec"),
        ("noninc", "noninc", "noninc"),
        ("nondec", "noninc", None),
    ])
    def test_fig1_direction_from_decomposed_file(self, capsys, tmp_path, rows,
                                                 cols, direction):
        inst, step, dec = (tmp_path / f for f in ("i.txt", "s.txt", "d.txt"))
        run(capsys, "gen", "--algo", "naive", "--kind", "matrix", "--n", "6",
            "--seed", "2", "--out", str(inst))
        run(capsys, "decompose", str(inst), "--mode", rows, "--target", "rows",
            "--out", str(step))
        run(capsys, "decompose", str(step), "--mode", cols, "--target", "cols",
            "--out", str(dec))
        code, out, err = run(capsys, "compute", str(dec), "--algo", "fig1")
        if direction is None:
            assert code == cli.EXIT_VALIDATION
            assert "no direction fits both the row and the column parts" in err
            assert "--direction" not in err
        else:
            assert code == 0
            assert f"meta direction: {direction}" in out

    def test_fig1_in_memory_instances_validate_on_inference(self, capsys,
                                                            monkeypatch):
        # Generated instances carry no parts: inference validates each axis.
        calls = []
        real = cli.validate_decomposition
        monkeypatch.setattr(
            cli, "validate_decomposition", lambda *a: calls.append(1) or real(*a)
        )
        code, out, _ = run(capsys, "verify", "--algo", "fig1", "--trials", "2",
                           "--n", "8")
        assert (code, out.strip()) == (0, "all equal (2 trials)")
        assert len(calls) == 2 * 2

    def test_missing_decompositions_named(self, capsys, tmp_path):
        inst = tmp_path / "inst.txt"
        run(capsys, "gen", "--algo", "naive", "--kind", "matrix", "--n", "6",
            "--seed", "1", "--out", str(inst))
        code, _, err = run(capsys, "compute", str(inst), "--algo", "fig1")
        assert code == cli.EXIT_VALIDATION
        assert "minplus decompose" in err

    def test_malformed_input(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("this is not a document\n")
        code, _, err = run(capsys, "compute", str(bad), "--algo", "naive")
        assert code == cli.EXIT_PARSE
        assert "error:" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "compute", str(tmp_path / "nope.txt"),
                         "--algo", "naive")
        assert code == cli.EXIT_PARSE

    def test_result_document_input_is_refused(self, capsys, tmp_path):
        res = result_file(capsys, tmp_path)
        code, _, err = run(capsys, "compute", str(res), "--algo", "naive")
        assert_refused_as_result(code, err, res)

    def test_overflow_maps_to_its_exit_code(self, capsys, tmp_path,
                                            monkeypatch):
        def boom(args):
            raise OverflowError("synthetic overflow")

        monkeypatch.setattr(cli, "_cmd_compute", boom)
        inst = tmp_path / "v.txt"
        inst.write_text(VECTOR_DOC)
        code, _, err = run(capsys, "compute", str(inst), "--algo", "naive")
        assert code == cli.EXIT_OVERFLOW
        assert "synthetic overflow" in err


class TestDecompose:
    def test_vector_stats(self, capsys, tmp_path):
        inst = tmp_path / "v.txt"
        inst.write_text(VECTOR_DOC)
        out_file = tmp_path / "vd.txt"
        code, out, _ = run(capsys, "decompose", str(inst), "--mode", "nondec",
                           "--target", "a", "--out", str(out_file))
        assert code == 0
        assert "a: count=1 max-parts=3 mode=nondec" in out
        assert "begin decomposition a" in out_file.read_text()

    def test_uniform_constant_vector_single_part(self, capsys, tmp_path):
        inst = tmp_path / "c.txt"
        inst.write_text(CONSTANT_DOC)
        code, out, _ = run(capsys, "decompose", str(inst), "--mode", "uniform",
                           "--target", "a", "--out", str(tmp_path / "o.txt"))
        assert code == 0
        assert "a: count=1 max-parts=1 mode=uniform" in out

    def test_vector_both_targets_keep_their_report(self, capsys, tmp_path):
        inst = tmp_path / "v.txt"
        inst.write_text(VECTOR_DOC)
        out_file = tmp_path / "vd.txt"
        code, out, _ = run(capsys, "decompose", str(inst), "--mode", "nondec",
                           "--target", "both", "--out", str(out_file))
        assert code == 0
        assert out == ("a: count=1 max-parts=3 mode=nondec\n"
                       "b: count=1 max-parts=3 mode=nondec\n")
        text = out_file.read_text()
        assert "meta dec-stats-a: count=1 max-parts=3 mode=nondec\n" in text
        assert "meta dec-stats-b: count=1 max-parts=3 mode=nondec\n" in text

    def test_matrix_targets(self, capsys, tmp_path):
        inst = tmp_path / "m.txt"
        run(capsys, "gen", "--algo", "naive", "--kind", "matrix", "--n", "6",
            "--seed", "2", "--out", str(inst))
        out_file = tmp_path / "md.txt"
        code, out, _ = run(capsys, "decompose", str(inst), "--mode", "noninc",
                           "--target", "both", "--out", str(out_file))
        assert code == 0
        assert "rows: count=6 max-parts=" in out
        assert "cols: count=6 max-parts=" in out
        text = out_file.read_text()
        assert "begin decompositions A rows" in text
        assert "begin decompositions B cols" in text

    def test_unequal_part_counts_end_to_end(self, capsys, tmp_path):
        inst, dec = tmp_path / "m.txt", tmp_path / "md.txt"
        inst.write_text(UNEQUAL_PARTS_DOC)
        code, out, _ = run(capsys, "decompose", str(inst), "--mode", "nondec",
                           "--target", "both", "--out", str(dec))
        assert code == 0
        assert "rows: count=3 max-parts=3 mode=nondec" in out
        assert "cols: count=3 max-parts=3 mode=nondec" in out
        doc = fileio.parse_path(str(dec))
        for decs in (doc.dec_rows, doc.dec_cols):
            assert [d.part_count for d in decs] == [1, 3, 2]
            assert all(len(p) for d in decs for p in d.parts)
        r_fig, r_naive = tmp_path / "fig.txt", tmp_path / "naive.txt"
        assert run(capsys, "compute", str(dec), "--algo", "fig1",
                   "--out", str(r_fig))[0] == 0
        assert run(capsys, "compute", str(dec), "--algo", "naive",
                   "--out", str(r_naive))[0] == 0
        assert values_section(r_fig) == values_section(r_naive)
        assert "meta witness-matrix-calls: 9" in r_fig.read_text()

    @pytest.mark.parametrize("flags", sorted(DECOMPOSE_SHA256))
    def test_output_is_pinned(self, capsys, tmp_path, flags):
        gen_flags, dec_flags = flags
        inst, dec = tmp_path / "i.txt", tmp_path / "d.txt"
        assert run(capsys, "gen", "--algo", *gen_flags.split(), "--n", "16",
                   "--seed", "0", "--out", str(inst))[0] == 0
        assert run(capsys, "decompose", str(inst), *dec_flags.split(),
                   "--out", str(dec))[0] == 0
        digest = hashlib.sha256(dec.read_bytes()).hexdigest()
        assert digest == DECOMPOSE_SHA256[flags]

    def test_result_document_input_is_refused(self, capsys, tmp_path):
        res = result_file(capsys, tmp_path)
        code, _, err = run(capsys, "decompose", str(res), "--mode", "nondec")
        assert_refused_as_result(code, err, res)

    def test_wrong_target_for_kind(self, capsys, tmp_path):
        inst = tmp_path / "v.txt"
        inst.write_text(VECTOR_DOC)
        code, _, err = run(capsys, "decompose", str(inst), "--mode", "nondec",
                           "--target", "rows")
        assert code == cli.EXIT_VALIDATION
        assert "--target" in err


class TestVerify:
    def test_trials_mode(self, capsys):
        code, out, _ = run(capsys, "verify", "--algo", "fig3", "--trials", "5",
                           "--n", "12", "--seed", "3")
        assert code == 0
        assert out.strip() == "all equal (5 trials)"

    @pytest.mark.parametrize("trials", ["0", "-2"])
    def test_trials_mode_needs_a_trial(self, capsys, trials):
        code, out, err = run(capsys, "verify", "--algo", "fig1", "--trials",
                             trials, "--n", "8")
        assert code == cli.EXIT_VALIDATION
        assert out == ""
        assert "--trials must be at least 1" in err

    def test_file_mode_against_naive(self, capsys, tmp_path):
        inst = tmp_path / "i.txt"
        run(capsys, "gen", "--algo", "fig2", "--n", "8", "--seed", "4",
            "--out", str(inst))
        code, out, _ = run(capsys, "verify", str(inst), "--algo", "fig2")
        assert code == 0
        assert out.strip() == "all equal"

    @pytest.mark.parametrize("flag", [
        ("--direction", "noninc"), ("--n", "6"), ("--m-a", "3"), ("--m-b", "2"),
        ("--h", "3"), ("--seed", "0"), ("--kind", "matrix"),
    ])
    def test_file_mode_refuses_generator_flags(self, capsys, tmp_path, flag):
        # With an input file no generator flag is read: each one given,
        # even at its default, is refused by name, not silently ignored.
        inst = tmp_path / "i.txt"
        run(capsys, "gen", "--algo", "fig1", "--n", "6", "--out", str(inst))
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", str(inst), "--algo", "fig1", *flag])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: minplus verify")
        assert f"takes no generator flags, got {flag[0]}" in err
        assert run(capsys, "verify", str(inst), "--algo", "fig1")[0] == 0

    def test_corrupted_result_detected(self, capsys, tmp_path):
        inst = tmp_path / "i.txt"
        run(capsys, "gen", "--algo", "fig1", "--n", "6", "--seed", "9",
            "--out", str(inst))
        res = tmp_path / "r.txt"
        run(capsys, "compute", str(inst), "--algo", "fig1", "--out", str(res))
        lines = res.read_text().splitlines()
        row = lines.index("begin values") + 1
        toks = lines[row].split()
        toks[0] = str(int(toks[0]) + 1)
        lines[row] = " ".join(toks)
        res.write_text("\n".join(lines) + "\n")
        code, out, _ = run(capsys, "verify", str(inst), "--algo", "fig1",
                           "--result", str(res))
        assert code == cli.EXIT_MISMATCH
        assert "mismatch (stored result): entry (1, 1)" in out

    def test_matching_result_accepted(self, capsys, tmp_path):
        inst = tmp_path / "i.txt"
        run(capsys, "gen", "--algo", "fig4", "--n", "10", "--h", "2",
            "--seed", "6", "--out", str(inst))
        res = tmp_path / "r.txt"
        run(capsys, "compute", str(inst), "--algo", "fig4", "--out", str(res))
        code, out, _ = run(capsys, "verify", str(inst), "--algo", "naive",
                           "--result", str(res))
        assert code == 0
        assert out.strip() == "all equal"

    def test_result_document_input_is_refused(self, capsys, tmp_path):
        res = result_file(capsys, tmp_path)
        code, _, err = run(capsys, "verify", str(res), "--result", str(res))
        assert_refused_as_result(code, err, res)


class TestBench:
    def test_pair_count_column(self, capsys, tmp_path):
        out_json = tmp_path / "b.json"
        code, out, _ = run(
            capsys, "bench", "--algo", "fig1,naive", "--n", "64", "--m-a", "2",
            "--m-b", "2", "--seed", "1", "--out", str(out_json),
        )
        assert code == 0
        assert "witness-matrix-calls" in out.splitlines()[0]
        payload = json.loads(out_json.read_text())
        by_algo = {r["algorithm"]: r for r in payload["rows"]}
        assert by_algo["fig1"]["witness_matrix_calls"] == 4
        assert by_algo["naive"]["witness_matrix_calls"] == 0

    def test_boolean_convolution_budget(self, capsys, tmp_path):
        out_json = tmp_path / "b.json"
        code, _, _ = run(
            capsys, "bench", "--algo", "fig4", "--n", "256", "--h", "3",
            "--ell", "16", "--seed", "2", "--out", str(out_json),
        )
        assert code == 0
        payload = json.loads(out_json.read_text())
        row = payload["rows"][0]
        assert row["bool_convolutions"] == 48  # 3 classes x ceil(256/16)

    @pytest.mark.parametrize("argv, algo, key, value", [
        (["fig4,naive", "--n", "256", "--h", "3"], "fig4", "ell", 16),
        (["fig1", "--n", "64"], "fig1", "direction", "nondec"),
    ])
    def test_rows_record_the_parameters_the_run_used(self, capsys, tmp_path,
                                                     argv, algo, key, value):
        # ell defaults to ceil(sqrt(n)); fig1 infers its direction.
        out_json = tmp_path / "b.json"
        code, out, _ = run(capsys, "bench", "--algo", *argv, "--out",
                           str(out_json))
        assert code == 0
        assert out.splitlines()[0].split() == [
            "algorithm", "seconds", "witness-matrix-calls",
            "witness-conv-calls", "bool-products", "bool-convolutions",
        ]
        rows = {r["algorithm"]: r for r in json.loads(out_json.read_text())["rows"]}
        assert rows[algo][key] == value
        assert key not in rows.get("naive", {})

    @pytest.mark.parametrize("argv, params", [
        (["fig3,naive"], {"m-a": 3, "m-b": 3, "direction": "nondec"}),
        (["fig3", "--direction", "noninc", "--m-b", "2"],
         {"m-a": 3, "m-b": 2, "direction": "noninc"}),
        (["fig4,naive", "--m-a", "5"], {"h": 3}),
    ])
    def test_params_are_those_the_generator_used(self, capsys, tmp_path, argv,
                                                 params):
        # Not the raw flags: fig3 infers its direction, fig4 takes only h.
        out_json = tmp_path / "b.json"
        code, _, _ = run(capsys, "bench", "--algo", *argv, "--n", "32",
                         "--out", str(out_json))
        assert code == 0
        assert json.loads(out_json.read_text())["params"] == params

    def test_rejects_two_structured_algorithms(self, capsys):
        code, _, err = run(capsys, "bench", "--algo", "fig1,fig2", "--n", "8")
        assert code == cli.EXIT_VALIDATION
        assert "one structured algorithm" in err


class TestParser:
    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_unknown_algo_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "x.txt", "--algo", "fig9"])
        assert exc.value.code == 2

    def test_removed_greedy_mode_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["decompose", "x.txt", "--mode", "greedy"])
        assert exc.value.code == 2

    def test_two_calls_build_one_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        try:
            for _ in range(2):
                code, _, _ = run(capsys, "gen", "--algo", "naive", "--kind",
                                 "vector", "--n", "4")
                assert code == 0
        finally:
            cli.build_parser.cache_clear()
        assert built.count("minplus") == 1
