import json

import pytest

from synchro import cli
from synchro.chartab import bundled_table_path
from synchro.matrep import BitMatrix, write_matrix_file


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
        assert str(phi_file) in m["inputs"]
        assert len(m["output_digest"]) == 64
        assert m["version"]
