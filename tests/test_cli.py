import hashlib
import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from synchro import chartab, cli, matrep, reproduce
from synchro.chartab import bundled_table_path
from synchro.matrep import (
    BitMatrix,
    StandardGeneratorReport,
    write_matrix_file,
)
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


class TestErrorPaths:
    def test_usage_error(self, capsys):
        assert run(capsys, "nonsense-command")[0] == 2

    def test_unknown_group(self, capsys):
        code, _, err = run(capsys, "complete-mapping", "--group", "monster")
        assert code == 2
        assert "error" in err

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
