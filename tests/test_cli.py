import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import write_matrix_file
from hypothesis import given, settings, strategies as st

from synchro import chartab, cli, matrep, reproduce
from synchro.chartab import bundled_table_path
from synchro.matrep import BitMatrix, StandardGeneratorReport
from synchro.orbitals import CollapsedAdjacency


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCompleteMapping:
    def test_z3_found(self, capsys):
        code, out, _ = run(capsys, "complete-mapping", "--group", "z3")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "found"
        assert payload["phi"] == [0, 1, 2]
        assert payload["criterion_predicts_existence"] is True

    def test_z4_refuted(self, capsys):
        code, out, _ = run(capsys, "complete-mapping", "--group", "z4")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "not-found"
        assert payload["criterion_predicts_existence"] is False
        assert "phi" not in payload

    def test_budget_exhaustion_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "complete-mapping", "--group", "d16", "--budget", "10"
        )
        assert code == 1
        assert json.loads(out)["status"] == "budget-exhausted"

    def test_emit_mapping(self, capsys, tmp_path):
        target = tmp_path / "phi.json"
        code, _, _ = run(
            capsys,
            "complete-mapping",
            "--group",
            "klein",
            "--emit-mapping",
            str(target),
        )
        assert code == 0
        data = json.loads(target.read_text())
        assert sorted(data["phi"]) == [0, 1, 2, 3]


class TestDiagonal:
    def test_even_coloring_verified(self, capsys):
        code, out, _ = run(
            capsys,
            "diagonal",
            "--group",
            "s3",
            "--n",
            "4",
            "--color-even",
            "--verify",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["proper"] is True
        assert payload["colors"] == 6
        assert payload["fiber_sizes"] == [36] * 6

    def test_odd_coloring_with_phi_file(self, capsys, tmp_path):
        phi_file = tmp_path / "phi.json"
        phi_file.write_text(json.dumps({"phi": [0, 1, 2]}))
        code, out, _ = run(
            capsys,
            "diagonal",
            "--group",
            "z3",
            "--n",
            "3",
            "--color-odd",
            "--phi",
            str(phi_file),
            "--verify",
        )
        assert code == 0
        assert json.loads(out)["proper"] is True

    def test_bad_phi_rejected(self, capsys, tmp_path):
        phi_file = tmp_path / "phi.json"
        phi_file.write_text(json.dumps({"phi": [1, 0, 2]}))
        code, _, err = run(
            capsys,
            "diagonal",
            "--group",
            "z3",
            "--n",
            "3",
            "--color-odd",
            "--phi",
            str(phi_file),
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["z2", "--n", "80", "--color-even"],
            ["z3", "--n", "25", "--color-odd"],
        ],
    )
    def test_colouring_above_the_vertex_cap_exits_2(self, capsys, argv):
        # 2^79 and 3^24 vertices: refused before anything is allocated
        code, out, err = run(capsys, "diagonal", "--group", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "colouring cap" in err

    @pytest.mark.parametrize("n", ["4", "5"])
    def test_colour_flags_conflict(self, capsys, n):
        code, out, err = run(capsys, "diagonal", "--group", "z5", "--n", n,
                             "--color-even", "--color-odd")
        assert code == 2
        assert out == ""
        assert "not allowed with argument" in err

    def test_witness_emission(self, capsys, tmp_path):
        target = tmp_path / "witness.json"
        code, _, _ = run(
            capsys,
            "diagonal",
            "--group",
            "z3",
            "--n",
            "4",
            "--color-even",
            "--emit-witness",
            str(target),
        )
        assert code == 0
        cert = json.loads(target.read_text())
        assert len(cert["A"]) == 3
        assert sorted(x for part in cert["P"] for x in part) == list(range(27))


class TestWitness:
    def test_pipeline(self, capsys):
        code, out, _ = run(
            capsys,
            "witness",
            "pipeline",
            "--group",
            "z4",
            "--A",
            "[0,3]",
            "--B",
            "[0,2]",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["partition"] == [[0, 1], [2, 3]]

    def test_sep_failure(self, capsys):
        code, out, _ = run(
            capsys,
            "witness",
            "sep",
            "--group",
            "z4",
            "--A",
            "[0,2]",
            "--B",
            "[0,2]",
        )
        assert code == 1
        assert json.loads(out)["ok"] is False

    @pytest.mark.parametrize("mode", ["sync", "sep", "factorise", "pipeline"])
    def test_missing_second_argument(self, capsys, mode):
        # each used to leak a TypeError traceback and exit 1
        code, out, err = run(
            capsys, "witness", mode, "--group", "z4", "--A", "[0,1]"
        )
        flag = "--P" if mode == "sync" else "--B"
        assert code == 2
        assert out == ""
        assert err == f"error: witness {mode} needs {flag}\n"

    @pytest.mark.parametrize(
        "points", ["5", "[[0]]", "[0,4]", "[-1,0]", '["0",1]']
    )
    def test_malformed_points(self, capsys, tmp_path, points):
        parts = tmp_path / "parts.json"
        parts.write_text("[[0, 2], [1, 3]]")
        for argv in (
            ["sep", "--A", points, "--B", "[0,2]"],
            ["sep", "--A", "[0,1]", "--B", points],
            ["sync", "--A", points, "--P", str(parts)],
        ):
            code, out, err = run(capsys, "witness", "--group", "z4", *argv)
            assert code == 2
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    def test_empty_part_rejected(self, capsys, tmp_path):
        parts = tmp_path / "parts.json"
        parts.write_text("[[0, 2], [1, 3], []]")
        code, _, err = run(
            capsys, "witness", "sync", "--group", "z4", "--A", "[0,1]",
            "--P", str(parts),
        )
        assert code == 2
        assert err == "error: partition has an empty part\n"


class TestOrbitals:
    def test_s3_regular(self, capsys):
        code, out, _ = run(
            capsys, "orbitals", "--group", "s3", "--regular", "--wilcox"
        )
        assert code == 0
        payload = json.loads(out)
        # the regular action has all suborbits singletons
        assert payload["rank"] == 6
        assert payload["subdegrees"] == [1] * 6
        assert len(payload["double_coset_checks"]) == 6

    @pytest.mark.parametrize("number", ["0", "7"])
    def test_collapsed_out_of_range(self, capsys, number):
        # 0 once wrapped round to orbital 6; 7 leaked an IndexError
        code, out, err = run(
            capsys, "orbitals", "--group", "s3", "--regular",
            "--collapsed", number,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: no orbital") and err.count("\n") == 1

    @pytest.mark.parametrize("group", ["s3", "d8", "a4", "q8"])
    def test_regular_flag_is_the_default(self, capsys, group):
        argv = ["orbitals", "--group", group, "--wilcox"]
        default = run(capsys, *argv)
        assert default[0] == 0
        assert run(capsys, *argv, "--regular") == default

    def test_negative_base_rejected(self, capsys):
        code, out, err = run(capsys, "orbitals", "--group", "s3", "--base", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: point -1 out of range\n"


class TestMatrep:
    @pytest.mark.parametrize("number", ["0", "21"])
    def test_collapsed_out_of_range(self, capsys, tmp_path, number):
        gens = tmp_path / "gens.txt"
        swap = BitMatrix.from_entries(2, [[0, 1], [1, 0]])
        write_matrix_file([swap, BitMatrix.identity(2, 2)], gens)
        table = tmp_path / "table.txt"
        table.write_text("1 0 0 0 0\n")
        code, out, err = run(
            capsys, "matrep", "--gens", str(gens), "--collapsed", number,
            "--table", str(table),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: no orbital") and err.count("\n") == 1

    def test_odd_characteristic_file_exits_2(self, capsys, tmp_path):
        gens = tmp_path / "gens.txt"
        gens.write_text("3 2 2 2\n12\n01\n10\n01\n")
        code, out, err = run(
            capsys, "matrep", "--gens", str(gens), "--verify-standard"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "F_2" in err
        assert err.count("\n") == 1

    def test_f2_payload_records_the_field(self, capsys, tmp_path):
        gens = tmp_path / "gens.txt"
        swap = BitMatrix.from_entries(2, [[0, 1], [1, 0]])
        write_matrix_file([swap, BitMatrix.identity(2, 2)], gens)
        code, out, _ = run(
            capsys, "matrep", "--gens", str(gens), "--verify-standard"
        )
        assert code == 1
        payload = json.loads(out)
        assert (payload["p"], payload["dim"], payload["ok"]) == (2, 2, False)


class TestChartab:
    def test_xi_with_scale(self, capsys):
        code, out, _ = run(
            capsys,
            "chartab",
            "--table",
            str(bundled_table_path("s3")),
            "--xi",
            "2a",
            "2a",
            "3a",
            "--scale",
            "6",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["xi"]["value"] == [1, 1]
        assert payload["xi"]["scaled"] == 6

    def test_zero_scale(self, capsys):
        code, out, _ = run(
            capsys, "chartab", "--table", str(bundled_table_path("s3")),
            "--xi", "2a", "2a", "3a", "--scale", "0",
        )
        assert code == 0
        assert json.loads(out)["xi"]["scaled"] == 0

    def test_non_integral_scale_exits_2(self, capsys):
        # xi(3a, 3a, 3a) = 1/3 in s3
        code, out, err = run(
            capsys, "chartab", "--table", str(bundled_table_path("s3")),
            "--xi", "3a", "3a", "3a", "--scale", "7",
        )
        assert code == 2
        assert out == ""
        assert err == "error: scaled value not integral\n"

    def test_value_outside_the_grammar_runs_nothing(self, capsys, tmp_path):
        sentinel = tmp_path / "sentinel"
        data = json.loads(bundled_table_path("s3").read_text())
        data["characters"][1][1] = (
            f"__import__('pathlib').Path({str(sentinel)!r})"
            ".write_text('x') and -1"
        )
        table = tmp_path / "table.json"
        table.write_text(json.dumps(data))
        code, out, err = run(capsys, "chartab", "--table", str(table))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert not sentinel.exists()


    def test_non_real_pair_part_exits_2(self, capsys, tmp_path):
        data = json.loads(bundled_table_path("z2").read_text())
        data["characters"][1][1] = ["1", "I"]
        table = tmp_path / "imag.json"
        table.write_text(json.dumps(data))
        code, out, err = run(capsys, "chartab", "--table", str(table))
        assert code == 2
        assert out == ""
        assert err == "error: non-real part in [re, im] ['1', 'I']\n"


def table_with_value(tmp_path, value):
    """argv for chartab on the z2 table with one character value replaced."""
    data = json.loads(bundled_table_path("z2").read_text())
    data["characters"][1][1] = value
    table = tmp_path / "table.json"
    table.write_text(json.dumps(data))
    return ["chartab", "--table", str(table)]


def f3_matrix_file(tmp_path):
    gens = tmp_path / "f3.txt"
    gens.write_text("3 2 2 2\n12\n01\n10\n01\n")
    return ["matrep", "--gens", str(gens), "--verify-standard"]


# case -> (exit code, argv from a scratch directory)
ENTRY_POINT_ERRORS = {
    "reproduce-without-data": (
        3, lambda tmp: ["reproduce", "table1", "--data-dir", str(tmp)]
    ),
    "witness-sync-without-P": (
        2, lambda tmp: ["witness", "sync", "--group", "z4", "--A", "[0,1]"]
    ),
    "f3-matrix-file": (2, f3_matrix_file),
    "value-outside-the-grammar": (2, lambda tmp: table_with_value(
        tmp, f"__import__('pathlib').Path({str(tmp / 'pwned')!r})"
        ".write_text('x') and -1"
    )),
    "imaginary-pair-part": (2, lambda tmp: table_with_value(tmp, ["1", "I"])),
    "colouring-of-2^79-vertices": (
        2, lambda tmp: ["diagonal", "--group", "z2", "--n", "80", "--color-even"]
    ),
    "s8": (2, lambda tmp: ["complete-mapping", "--group", "s8"]),
}


class TestErrorPaths:
    @pytest.mark.parametrize("case", list(ENTRY_POINT_ERRORS))
    def test_entry_point_exit_codes(self, tmp_path, case):
        # a fresh interpreter through the module entry point, which the
        # console script shares: cli.main
        code, make_argv = ENTRY_POINT_ERRORS[case]
        argv = make_argv(tmp_path)
        before = sorted(tmp_path.iterdir())
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "synchro.cli", *argv],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == code
        assert proc.stdout == ""
        errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1
        assert "Traceback" not in proc.stderr
        assert sorted(tmp_path.iterdir()) == before  # no file written

    def test_usage_error(self, capsys):
        assert run(capsys, "nonsense-command")[0] == 2

    def test_unknown_group(self, capsys):
        code, _, err = run(capsys, "complete-mapping", "--group", "monster")
        assert code == 2
        assert "error" in err

    def test_empty_group_descriptor(self, capsys):
        # used to leak an IndexError
        code, _, err = run(capsys, "complete-mapping", "--group", "")
        assert code == 2
        assert err == "error: unknown group descriptor: ''\n"

    @pytest.mark.parametrize("text", ["[]", "5", '{"group_order": 6}'])
    def test_malformed_character_table(self, capsys, tmp_path, text):
        table = tmp_path / "table.json"
        table.write_text(text)
        code, out, err = run(capsys, "chartab", "--table", str(table))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text", ["[0, 1, 2]", '{"phi": 5}', '{"phi": [0, "1", 2]}']
    )
    def test_malformed_phi_file(self, capsys, tmp_path, text):
        phi = tmp_path / "phi.json"
        phi.write_text(text)
        code, out, err = run(
            capsys, "diagonal", "--group", "z3", "--n", "3", "--color-odd",
            "--phi", str(phi),
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_directory_as_input_file(self, capsys, tmp_path):
        code, out, err = run(capsys, "chartab", "--table", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_deeply_nested_word_is_a_usage_error(self, capsys, tmp_path):
        gens = tmp_path / "gens.txt"
        swap = BitMatrix.from_entries(2, [[0, 1], [1, 0]])
        write_matrix_file([swap, BitMatrix.identity(2, 2)], gens)
        deep = "(" * 3000 + "a" + ")" * 3000
        code, out, err = run(
            capsys, "matrep", "--gens", str(gens), "--fingerprint", deep, "a"
        )
        assert code == 2
        assert out == ""
        assert "word nested too deeply" in err
        assert "Traceback" not in err

    def test_memory_error_exits_4(self, capsys, monkeypatch):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr(cli, "cmd_complete_mapping", exhausted)
        code, out, err = run(capsys, "complete-mapping", "--group", "z3")
        assert code == cli.EXIT_RESOURCE == 4
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_reproduce_without_data_exits_3(self, capsys, tmp_path):
        for target in ("table1", "table2", "A2", "A4", "entry-lists"):
            code, _, err = run(
                capsys, "reproduce", target, "--data-dir", str(tmp_path)
            )
            assert code == 3
            assert "not found" in err


class TestDeterminismAndManifest:
    def test_output_bytes_stable(self, capsys, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        for target in (out1, out2):
            assert (
                run(
                    capsys,
                    "--output",
                    str(target),
                    "complete-mapping",
                    "--group",
                    "s4",
                )[0]
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()

    def test_manifest_records_digests(self, capsys, tmp_path):
        out = tmp_path / "out.json"
        manifest = tmp_path / "run.json"
        phi_file = tmp_path / "phi.json"
        phi_file.write_text(json.dumps({"phi": [0, 1, 2]}))
        code, _, _ = run(
            capsys,
            "--output",
            str(out),
            "--manifest",
            str(manifest),
            "diagonal",
            "--group",
            "z3",
            "--n",
            "3",
            "--color-odd",
            "--phi",
            str(phi_file),
        )
        assert code == 0
        m = json.loads(manifest.read_text())
        assert set(m) == {"command", "version", "inputs", "output_digest"}
        assert str(phi_file) in m["inputs"]
        assert len(m["output_digest"]) == 64
        assert m["version"]


PASSING = StandardGeneratorReport((("order(a)", 2, 2), ("order(b)", 4, 4)))
FAILING = StandardGeneratorReport((("order(a)", 2, 2), ("order(ab)", 37, 5)))


@pytest.fixture
def j4_stubs(monkeypatch, tmp_path):
    """An empty placeholder generator file in tmp_path.  Parsing it, the
    standard-generator checks and the collapsed matrices are stubbed:
    orbitals 2 and 4 come out as the printed A2 and A4."""
    (tmp_path / reproduce.GENS_FILE).write_bytes(b"")
    state = SimpleNamespace(
        report=PASSING,
        matrices={1: reproduce.printed_matrix("A2"),
                  3: reproduce.printed_matrix("A4")},
        calls=[],
    )

    def collapsed(a, b, words, table, i, conjugators=None):
        state.calls.append(i)
        return CollapsedAdjacency(i, state.matrices[i])

    placeholder = BitMatrix.identity(2, 2)
    monkeypatch.setattr(
        matrep, "parse_matrix_file", lambda path: [placeholder] * 2
    )
    monkeypatch.setattr(
        matrep, "verify_standard_generators", lambda a, b: state.report
    )
    monkeypatch.setattr(matrep, "collapsed_adjacency_matrep", collapsed)
    return state


def swap_entry(matrix, row, i, j):
    rows = [list(r) for r in matrix]
    rows[row][i], rows[row][j] = rows[row][j], rows[row][i]
    assert rows[row] != list(matrix[row])
    return tuple(map(tuple, rows))


def reproduce_in(capsys, tmp_path, target, *options):
    code, out, _ = run(
        capsys, *options, "reproduce", target, "--data-dir", str(tmp_path)
    )
    return code, json.loads(out)


class TestReproducePipeline:
    @pytest.mark.parametrize("target", ["A2", "A4"])
    def test_collapsed_matrix_matches_print(
        self, capsys, tmp_path, j4_stubs, target
    ):
        code, payload = reproduce_in(capsys, tmp_path, target)
        assert code == 0 and payload["ok"] is True
        assert payload["reproduces"] == target
        printed = reproduce.printed_matrix(target)
        assert payload["matrix"] == [list(r) for r in printed]

    def test_entry_lists_from_the_real_expansion(
        self, capsys, tmp_path, j4_stubs
    ):
        code, payload = reproduce_in(capsys, tmp_path, "entry-lists")
        assert code == 0 and payload["ok"] is True
        want = reproduce.expected("square_entries")
        assert payload["inverse_in_square"] == want["inverse_in_square"]
        assert payload["self_in_square"] == want["self_in_square"]
        assert sorted(j4_stubs.calls) == [1, 3]

    @pytest.mark.parametrize("target", ["A2", "entry-lists"])
    def test_swapped_a2_entry_fails(self, capsys, tmp_path, j4_stubs, target):
        j4_stubs.matrices[1] = swap_entry(j4_stubs.matrices[1], 1, 1, 2)
        code, payload = reproduce_in(capsys, tmp_path, target)
        assert code == 1 and payload["ok"] is False
        if target == "entry-lists":
            assert payload["differs_from_printed"] == ["A2"]

    @pytest.mark.parametrize("target", ["table2", "A2", "A4", "entry-lists"])
    def test_failed_order_check_stops_the_target(
        self, capsys, tmp_path, j4_stubs, target
    ):
        j4_stubs.report = FAILING
        code, payload = reproduce_in(capsys, tmp_path, target)
        assert code == 1
        assert payload == {
            "ok": False,
            "reproduces": target,
            "standard_generators": [list(c) for c in FAILING.checks],
        }
        assert j4_stubs.calls == []

    def test_table2_counts_orbits_without_listing_them(
        self, capsys, tmp_path, j4_stubs, monkeypatch
    ):
        # a = (0 1) and b = (0 1 2 3 4) as permutation matrices, closed
        # under all of S5: each conjugate of a has the 10 transpositions
        a = BitMatrix(2, 5, [2, 1, 4, 8, 16])
        b = BitMatrix(2, 5, [1 << (i + 1) % 5 for i in range(5)])

        def listed(*args):
            raise AssertionError("orbit listed")

        monkeypatch.setattr(matrep, "parse_matrix_file", lambda path: [a, b])
        monkeypatch.setattr(matrep, "centralizer_generators", lambda a, b: (a, b))
        monkeypatch.setattr(matrep, "orbit_closure", listed)
        code, payload = reproduce_in(capsys, tmp_path, "table2")
        assert code == 1 and payload["ok"] is False
        sizes = [r["orbit_size"] for r in payload["rows"] if "orbit_size" in r]
        assert sizes == [10, 10]

    def test_manifest_records_the_generator_file(
        self, capsys, tmp_path, j4_stubs
    ):
        manifest = tmp_path / "run.json"
        code, _ = reproduce_in(
            capsys, tmp_path, "A2", "--manifest", str(manifest)
        )
        assert code == 0
        inputs = json.loads(manifest.read_text())["inputs"]
        gens = str(tmp_path / reproduce.GENS_FILE)
        assert inputs == {gens: hashlib.sha256(b"").hexdigest()}

    @pytest.mark.parametrize("bad", [None, 3])
    def test_table1_checks_every_unlisted_class(
        self, capsys, tmp_path, monkeypatch, bad
    ):
        # bad = 3 puts a nonzero constant on the fourth unlisted class
        (tmp_path / reproduce.CHARTABLE_FILE).write_bytes(b"")
        rows = reproduce.expected("structure_constants")["rows"]
        listed = {row["class"]: Fraction(*row["xi"]) for row in rows}
        unlisted = ["7A", "7B", "8A", "8B", "13A"]
        table = SimpleNamespace(
            classes=[SimpleNamespace(name=n) for n in [*listed, *unlisted]]
        )

        def xi(t, c1, c2, c3):
            assert t is table and (c1, c2) == ("2A", "2A")
            if c3 in listed:
                return listed[c3]
            return Fraction(int(unlisted.index(c3) == bad), 7)

        monkeypatch.setattr(
            chartab, "load_character_table", lambda path: table
        )
        monkeypatch.setattr(chartab, "structure_constant_xi", xi)
        code, payload = reproduce_in(capsys, tmp_path, "table1")
        assert [r["class"] for r in payload["rows"]] == [*listed, *unlisted]
        mismatched = [r["class"] for r in payload["rows"] if not r["match"]]
        assert mismatched == ([] if bad is None else [unlisted[bad]])
        assert payload["ok"] is (bad is None)
        assert code == (0 if bad is None else 1)


# ---------------------------------------------------------------------------
# contract fuzz: whatever argv is drawn, cli.main raises nothing, exits with
# a documented code, and prints nothing or one JSON document on stdout.
# Draws stay small: group orders <= 64, --n <= 4, --budget <= 10 000, and
# --color-odd only on groups whose complete-mapping search is immediate.

MAPPING_GROUPS = ["z1", "z2", "z7", "klein", "s3", "q8", "a4", "d8", "z64",
                  "z63", "z2 x z2 x z2", "d16"]
SMALL_GROUPS = ["z1", "z2", "z3", "klein", "s3", "z4", "z5", "q8", "a4", "d8"]
REGULAR_GROUPS = SMALL_GROUPS + ["s4", "z2 x a4", "q8 x z8", "elementary 2 6"]
BAD_GROUPS = ["", "z0", "d7", "s", "monster", "elementary 4 2", "z3 x ",
              "cyclic x", "elementary 2 -1", "s8", "z100000000", "z60 x z60"]
POINT_LISTS = ["[0,1]", "[0,3]", "[0,2]", "[0]", "[]", "[0,1,2,3]", "[4]",
               "[-1]", "[[0]]", '["0"]', "5", "null", "{}", "[0,", "[true]"]
WORD_CHARS = "abtcdxz()[]{}^,-0123 "


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    swap = BitMatrix.from_entries(2, [[0, 1, 0, 0], [1, 0, 0, 0],
                                      [0, 0, 1, 0], [0, 0, 0, 1]])
    cycle = BitMatrix(2, 4, [0b0010, 0b0100, 0b1000, 0b0001])
    write_matrix_file([swap, cycle], d / "gens.txt")
    texts = {
        "empty.txt": "",
        "bad.json": "{",
        "list.json": "[]",
        "number.json": "5",
        "group.grp": "order 3\n0 1 2\n1 2 0\n2 0 1\n",
        "badgroup.grp": "order 2\n0 1\n1 2\n",
        "phi.json": '{"phi": [0, 1, 2]}',
        "badphi.json": '{"phi": [0, 0, 0]}',
        "wrongphi.json": '{"phi": 5}',
        "parts.json": "[[0, 2], [1, 3]]",
        "overlap.json": "[[0, 1], [1, 2]]",
        "emptypart.json": "[[0], []]",
        "badparts.json": '[["a"]]',
        "f3.txt": "3 2 2 2\n12\n01\n10\n01\n",
        "truncated.txt": "2 2 4 4\n0100\n",
        "fptable.txt": "1 2 3\n",
        "hostile.json": json.dumps({
            **json.loads(bundled_table_path("z2").read_text()),
            "characters": [[1, 1], [1, "__import__('os').getpid() and -1"]],
        }),
    }
    for name, text in texts.items():
        (d / name).write_text(text)
    for sub, name, text in [
        ("f3data", reproduce.GENS_FILE, texts["f3.txt"]),
        ("smalldata", reproduce.GENS_FILE, (d / "gens.txt").read_text()),
        ("emptychars", reproduce.CHARTABLE_FILE, ""),
    ]:
        (d / sub).mkdir()
        (d / sub / name).write_text(text)
    (d / "emptydir").mkdir()
    return d


@st.composite
def cli_argv(draw, d):
    def pick(good, bad=None):
        # a good value four times in five, so that most draws get past
        # argument checking and reach the computation
        if bad is not None and draw(st.integers(0, 4)) == 0:
            good = bad
        if isinstance(good, st.SearchStrategy):
            return draw(good)
        return draw(st.sampled_from(list(good)))

    def opt(flag, good, bad=None, odds=None):
        # an optional flag is present in one draw out of `odds`, a
        # required one (no odds) is left out in one draw out of ten
        if odds is None:
            if draw(st.integers(0, 9)) == 0:
                return []
        elif draw(st.integers(1, odds)) != 1:
            return []
        return [flag, str(pick(good, bad))]

    def flag(name):
        return [name] if draw(st.booleans()) else []

    def files(*names):
        return [str(d / n) for n in names]

    # every file option also draws a missing file, an empty one and a
    # directory
    no_file = files("missing.txt", "empty.txt") + [str(d)]
    argv = opt("--output", files("out.json"), files("no/out.json") + [str(d)], 6)
    argv += opt("--manifest", files("manifest.json"), [str(d)], 6)
    command = pick(["complete-mapping", "diagonal", "witness", "orbitals",
                    "matrep", "chartab", "reproduce"])
    argv.append(command)
    group_files = files("group.grp", "badgroup.grp")
    if command == "complete-mapping":
        argv += opt("--group", MAPPING_GROUPS, BAD_GROUPS + group_files)
        # always bounded: the default budget is 10^9
        argv += ["--budget", str(pick(st.integers(0, 10_000), [-1]))]
        argv += opt("--emit-mapping", files("phi_out.json"), [str(d)], 3)
    elif command == "diagonal":
        argv += opt("--group", SMALL_GROUPS, BAD_GROUPS + group_files)
        n = pick(st.integers(3, 4), [-1, 0, 1, 2])
        colour = "--color-even" if n % 2 == 0 else "--color-odd"
        argv += ["--n", str(n)] + pick(
            [[colour]], [[], ["--color-even"], ["--color-odd"]]
        )
        argv += flag("--verify")
        argv += opt("--phi", files("phi.json"), no_file + files(
            "badphi.json", "wrongphi.json", "list.json", "bad.json"), 2)
        argv += opt("--emit-witness", files("witness.json"), [str(d)], 3)
    elif command == "witness":
        mode = pick(["sync", "sep", "factorise", "pipeline"], ["bogus"])
        argv += [mode] + opt("--group", ["z4", "klein"],
                             BAD_GROUPS + ["z1", "z3", "s3", "d8"])
        points = st.sampled_from(POINT_LISTS) | st.text(max_size=6)
        argv += opt("--A", ["[0,1]", "[0,2]", "[0,3]", "[0]"], points)
        sync = mode == "sync"
        argv += opt("--B", ["[0,2]", "[0,1]", "[0,1,2,3]"], points,
                    3 if sync else None)
        argv += opt("--P", files("parts.json"), no_file + files(
            "overlap.json", "emptypart.json", "badparts.json",
            "bad.json", "number.json"), None if sync else 3)
    elif command == "orbitals":
        argv += opt("--group", REGULAR_GROUPS, BAD_GROUPS + group_files)
        argv += opt("--base", st.integers(0, 7), [-2, -1, 64, 65], 2)
        argv += opt("--collapsed", st.integers(1, 8), [-1, 0, 64, 65], 2)
        argv += flag("--wilcox") + flag("--regular")
    elif command == "matrep":
        argv += opt("--gens", files("gens.txt"),
                    no_file + files("f3.txt", "truncated.txt"))
        argv += flag("--verify-standard")
        if draw(st.booleans()):
            words = st.sampled_from(["a", "b", "t", "ab", "a^b", "", "(ab"])
            words |= st.text(WORD_CHARS, max_size=8)
            argv += ["--fingerprint", draw(words), draw(words)]
        argv += opt("--collapsed", st.integers(1, 20), [-1, 0, 21], 3)
        argv += opt(
            "--table", [str(reproduce.DATA_DIR / "j4_fingerprint_table.txt")],
            no_file + files("fptable.txt"), 2,
        )
    elif command == "chartab":
        tables = [str(bundled_table_path(n)) for n in ("s3", "a4", "z2")]
        argv += opt("--table", tables, no_file + files(
            "bad.json", "list.json", "number.json", "hostile.json"))
        names = st.sampled_from(["1a", "2a", "3a", "3b", "2A", "zz"])
        if draw(st.booleans()):
            argv += ["--xi"] + [draw(names) for _ in range(3)]
        if draw(st.booleans()):
            argv += ["--hat"] + draw(st.lists(names, min_size=1, max_size=3))
        argv += opt("--scale", st.integers(-3, 12), odds=2)
    else:
        argv.append(pick(list(reproduce.TARGETS), ["table3"]))
        argv += opt("--data-dir", files(
            "emptydir", "f3data", "smalldata", "emptychars", "nodir"), odds=2)
    return argv


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cli_contract_fuzz(fuzz_files, data):
    argv = data.draw(cli_argv(fuzz_files))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in {0, 1, 2, 3, 4}, (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if out.getvalue():
        json.loads(out.getvalue())
