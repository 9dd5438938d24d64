import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import write_group_file, write_matrix_file
from hypothesis import given, settings, strategies as st

from synchro import chartab, cli, diagonal, groups, matrep, orbitals
from synchro import reproduce, witness
from synchro.chartab import bundled_table_path
from synchro.matrep import BitMatrix, StandardGeneratorReport
from synchro.orbitals import CollapsedAdjacency


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fresh_python(*args, timeout=60):
    """Run `python *args` in a fresh interpreter that imports synchro from
    this tree."""
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        timeout=timeout, env={**os.environ, "PYTHONPATH": path},
    )


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
        # s4 passes the balance test, so a budget of 0 selects nothing
        for group, budget in (("d16", 10), ("s4", 0)):
            code, out, _ = run(
                capsys, "complete-mapping", "--group", group,
                "--budget", str(budget),
            )
            assert code == 1
            payload = json.loads(out)
            assert (payload["status"], payload["nodes"]) == (
                "budget-exhausted", budget
            )

    @pytest.mark.parametrize("budget", ["-5", "-1"])
    def test_negative_budget_exits_2(self, capsys, budget):
        code, out, err = run(
            capsys, "complete-mapping", "--group", "s4", "--budget", budget
        )
        assert code == 2
        assert out == ""
        errors = [ln for ln in err.splitlines() if "error:" in ln]
        assert errors == [
            f"synchro complete-mapping: error: argument --budget: "
            f"must be at least 0, not {budget}"
        ]

    @pytest.mark.parametrize(
        "group, status", [("z3", "found"), ("z4", "not-found")]
    )
    def test_zero_budget_decides_at_the_root(self, capsys, group, status):
        # odd order and the balance condition need no search node
        code, out, _ = run(
            capsys, "complete-mapping", "--group", group, "--budget", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["status"], payload["nodes"]) == (status, 0)

    def test_emit_mapping(self, capsys, tmp_path):
        # the flag is gone: the payload's "phi" is what --phi reads
        target = tmp_path / "phi.json"
        code, out, err = run(
            capsys, "complete-mapping", "--group", "klein",
            "--emit-mapping", str(target),
        )
        assert code == 2
        assert out == ""
        assert len([ln for ln in err.splitlines() if "error:" in ln]) == 1
        assert not target.exists()

    def test_output_round_trips_into_diagonal_phi(self, capsys, tmp_path):
        # the README's pair: one group, the mapping passed through --output
        mapping_file = tmp_path / "m.json"
        code, _, _ = run(
            capsys, "--output", str(mapping_file), "complete-mapping",
            "--group", "z2 x z6",
        )
        assert code == 0
        phi = json.loads(mapping_file.read_text())["phi"]
        assert sorted(phi) == list(range(12))
        code, out, _ = run(
            capsys, "diagonal", "--group", "z2 x z6", "--n", "3",
            "--color-odd", "--phi", str(mapping_file), "--verify",
        )
        assert code == 0
        assert json.loads(out)["proper"] is True


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

    def test_empty_phi_path_rejected(self, capsys):
        # an empty path is a path that cannot be read, not an absent --phi
        code, out, err = run(
            capsys, "diagonal", "--group", "z3", "--n", "3", "--color-odd",
            "--phi", "",
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

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

    @pytest.mark.parametrize("n", ["1001", "100000000"])
    def test_n_above_the_cap_exits_2(self, capsys, n):
        # the vertex count |T|^(n-1) is exact, so a huge n would take
        # seconds to form it and then fail to print it
        code, out, err = run(capsys, "diagonal", "--group", "s3", "--n", n)
        assert code == 2
        assert out == ""
        assert err == f"error: need 2 <= n <= 1000, not {n}\n"

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

    @pytest.mark.parametrize("mode, extra, message", [
        # each used to leak a TypeError traceback and exit 1
        pytest.param("sync", [], "needs --P", id="sync"),
        pytest.param("sep", [], "needs --B", id="sep"),
        pytest.param("factorise", [], "needs --B", id="factorise"),
        pytest.param("pipeline", [], "needs --B", id="pipeline"),
        # the flag the mode does not read was once ignored
        pytest.param("sync", ["--B", "[0,2]"], "takes no --B", id="sync-B"),
        pytest.param("sep", ["--P", "p.json"], "takes no --P", id="sep-P"),
        pytest.param("factorise", ["--P", "p.json"], "takes no --P",
                     id="factorise-P"),
        pytest.param("pipeline", ["--P", "p.json"], "takes no --P",
                     id="pipeline-P"),
    ])
    def test_missing_second_argument(self, capsys, mode, extra, message):
        code, out, err = run(
            capsys, "witness", mode, "--group", "z4", "--A", "[0,1]",
            *extra,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: witness {mode} {message}\n"

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

    def test_non_covering_partition_rejected(self, capsys, tmp_path):
        # every translate of A meets each part once, but 2 and 5 are in none
        parts = tmp_path / "parts.json"
        parts.write_text("[[0, 3], [1, 4]]")
        code, out, err = run(
            capsys, "witness", "sync", "--group", "z6", "--A", "[0,1,2]",
            "--P", str(parts),
        )
        assert code == 2
        assert out == ""
        assert err == "error: partition does not cover the 6 points\n"


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

    @pytest.mark.parametrize("number", ["0", "7"])
    def test_collapsed_error_echoes_the_number_given(self, capsys, number):
        code, _, err = run(capsys, "orbitals", "--group", "s3",
                           "--collapsed", number)
        assert code == 2
        assert err == f"error: no orbital {number} in rank 6 (1..6)\n"

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

    def test_wilcox_holds_one_collapsed_matrix_at_a_time(self, capsys):
        # rank 120: the matrices together would hold 120^3 entries
        tracemalloc.start()
        try:
            code = cli.main(["orbitals", "--group", "z120", "--wilcox"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        capsys.readouterr()
        assert code == 0
        assert peak < 4 * 2**20


class TestGroupFiles:
    @pytest.mark.parametrize("spec", ["z12", "s4", "z2 x q8"])
    def test_file_payload_matches_catalog(self, capsys, tmp_path, spec):
        g = groups.make_group(spec)
        path = tmp_path / "g.grp"
        write_group_file(g, path)
        # a sep witness: A = {1, x} for an involution x, and B one element
        # of each right coset {b, x b}
        x = next(a for a in range(1, g.order) if g.mul(a, a) == 0)
        A = [0, x]
        B = sorted({min(b, g.mul(x, b)) for b in range(g.order)})
        for argv in (
            ["orbitals", "--wilcox"],
            ["witness", "sep", "--A", json.dumps(A), "--B", json.dumps(B)],
            ["complete-mapping"],
        ):
            payloads = []
            for group in (spec, str(path)):
                code, out, _ = run(capsys, *argv, "--group", group)
                assert code == 0, (argv, group)
                payload = json.loads(out)
                payload.pop("group", None)
                payloads.append(payload)
            assert payloads[0] == payloads[1], argv
            assert payloads[0].get("ok", True) is True, argv


class TestMatrep:
    @pytest.mark.parametrize("number", ["0", "21"])
    def test_collapsed_out_of_range(self, capsys, tmp_path, monkeypatch, number):
        gens = tmp_path / "gens.txt"
        swap = BitMatrix.from_entries(2, [[0, 1], [1, 0]])
        write_matrix_file([swap, BitMatrix.identity(2, 2)], gens)

        def boom(a, b):
            raise AssertionError("centralizer words evaluated")

        monkeypatch.setattr(matrep, "centralizer_generators", boom)
        code, out, err = run(
            capsys, "matrep", "--gens", str(gens), "--collapsed", number
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: no orbital") and err.count("\n") == 1

    @pytest.mark.parametrize("number", ["0", "21"])
    def test_collapsed_error_echoes_the_number_given(self, capsys, tmp_path,
                                                    number):
        # refused before the generator file, which does not exist, is read
        code, _, err = run(capsys, "matrep", "--gens",
                           str(tmp_path / "absent.txt"), "--collapsed", number)
        assert code == 2
        assert err == f"error: no orbital {number} in rank 20 (1..20)\n"

    def test_collapsed_runs_the_order_checks_first(self, capsys, tmp_path):
        # a pair of 4x4 permutation matrices with o(ab) = 2: J4's words
        # are never evaluated on it, as in reproduce A2
        def perm(images):
            return BitMatrix(2, 4, [1 << j for j in images])

        gens = tmp_path / reproduce.GENS_FILE
        write_matrix_file([perm([1, 0, 2, 3]), perm([0, 1, 3, 2])], gens)
        code, out, err = run(
            capsys, "matrep", "--gens", str(gens), "--collapsed", "2"
        )
        assert (code, err) == (1, "")
        payload = json.loads(out)
        assert payload["ok"] is False and "collapsed" not in payload
        checks = {c["check"]: c["actual"] for c in payload["checks"]}
        assert checks["order(ab)"] == 2
        code, report = reproduce_in(capsys, tmp_path, "A2")
        assert (code, report["ok"]) == (1, False)
        assert report["standard_generators"] == [
            [c["check"], c["expected"], c["actual"]] for c in payload["checks"]
        ]

    def test_duplicate_metadata_fingerprints_exit_2(
        self, capsys, tmp_path, j4_stubs, monkeypatch
    ):
        meta = reproduce.orbital_metadata()
        meta[2]["fingerprint"] = meta[5]["fingerprint"]
        monkeypatch.setattr(reproduce, "orbital_metadata", lambda: meta)
        gens = tmp_path / reproduce.GENS_FILE
        code, out, err = run(
            capsys, "matrep", "--gens", str(gens), "--collapsed", "2"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: duplicate fingerprint")
        assert j4_stubs.calls == []

    def test_collapsed_runs_the_reproduce_pipeline(
        self, capsys, tmp_path, j4_stubs
    ):
        gens = tmp_path / reproduce.GENS_FILE
        code, out, _ = run(
            capsys, "matrep", "--gens", str(gens), "--collapsed", "2"
        )
        assert code == 0
        printed = [list(r) for r in reproduce.printed_matrix("A2")]
        assert json.loads(out)["collapsed"] == printed
        code, payload = reproduce_in(capsys, tmp_path, "A2")
        assert code == 0 and payload["matrix"] == printed
        assert len(j4_stubs.calls) == 2
        assert j4_stubs.calls[0] == j4_stubs.calls[1]
        words, table, i, conjugators = j4_stubs.calls[0]
        meta = reproduce.orbital_metadata()
        assert words == [o["rep_word"] for o in meta]
        assert i == 1 and conjugators == j4_stubs.centralizer

    def test_table_comes_from_the_orbital_metadata(
        self, capsys, tmp_path, j4_stubs
    ):
        assert reproduce_in(capsys, tmp_path, "A4")[0] == 0
        (_, table, i, _), = j4_stubs.calls
        assert i == 3 and len(table) == 20
        assert table[(72, 16, 50, 50)] == 1

    def test_table_flag_is_gone(self, capsys, tmp_path):
        table = tmp_path / "table.txt"
        table.write_text("1 50 0 50 50\n")
        code, out, err = run(
            capsys, "matrep", "--gens", str(tmp_path / "gens.txt"),
            "--collapsed", "2", "--table", str(table),
        )
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --table" in err

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
    "non-integer-exponent": (2, lambda tmp: table_with_value(tmp, "2**0.5")),
    "colouring-of-2^79-vertices": (
        2, lambda tmp: ["diagonal", "--group", "z2", "--n", "80", "--color-even"]
    ),
    "s8": (2, lambda tmp: ["complete-mapping", "--group", "s8"]),
    "phi-without-color-odd": (2, lambda tmp: [
        "diagonal", "--group", "z3", "--n", "4", "--color-even",
        "--phi", str(tmp / "absent.json"),
    ]),
    "scale-without-xi": (2, lambda tmp: [
        "chartab", "--table", str(bundled_table_path("s3")), "--scale", "6",
    ]),
}
# an empty path for each option that takes one: refused by the option's
# name before any file is read or written
EMPTY_PATHS = [
    ["--output", "", "complete-mapping", "--group", "z3"],
    ["--manifest", "", "complete-mapping", "--group", "z3"],
    ["diagonal", "--group", "z3", "--n", "3", "--color-odd", "--phi", ""],
    ["diagonal", "--group", "z3", "--n", "3", "--color-odd",
     "--emit-witness", ""],
    ["witness", "sync", "--group", "z4", "--A", "[0,1]", "--P", ""],
    ["matrep", "--gens", ""],
    ["chartab", "--table", ""],
    ["reproduce", "table1", "--data-dir", ""],
]
ENTRY_POINT_ERRORS.update(
    (f"empty-{argv[argv.index('') - 1][2:]}", (2, lambda tmp, argv=argv: argv))
    for argv in EMPTY_PATHS
)


class TestErrorPaths:
    @pytest.mark.parametrize("case", list(ENTRY_POINT_ERRORS))
    def test_entry_point_exit_codes(self, tmp_path, case):
        # a fresh interpreter through the module entry point, which the
        # console script shares: cli.main
        code, make_argv = ENTRY_POINT_ERRORS[case]
        argv = make_argv(tmp_path)
        before = sorted(tmp_path.iterdir())
        proc = fresh_python("-m", "synchro.cli", *argv)
        assert proc.returncode == code
        assert proc.stdout == ""
        errors = [ln for ln in proc.stderr.splitlines() if ln.startswith("error:")]
        assert len(errors) == 1
        if "" in argv:  # an empty path is named by its option
            assert argv[argv.index("") - 1] in errors[0]
        assert "Traceback" not in proc.stderr
        assert sorted(tmp_path.iterdir()) == before  # no file written

    def test_usage_error(self, capsys):
        assert run(capsys, "nonsense-command")[0] == 2

    def test_cli_import_leaves_mpmath_unloaded(self):
        # a fresh interpreter: only `chartab` and `reproduce table1` import
        # the chartab module, and nothing imports mpmath
        out = fresh_python(
            "-c", "import sys, synchro.cli; "
            "print('synchro.chartab' in sys.modules, 'mpmath' in sys.modules)"
        )
        assert out.stdout == "False False\n"

    def test_cli_import_leaves_matrep_and_orbitals_unloaded(self):
        # a fresh interpreter: `matrep`, `orbitals` and `reproduce`'s
        # targets import them when they run, not when cli loads
        out = fresh_python(
            "-c", "import sys, synchro.cli; print('synchro.matrep' in "
            "sys.modules, 'synchro.orbitals' in sys.modules)"
        )
        assert out.stdout == "False False\n"

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
        "text",
        ["[0, 1, 2]", '{"phi": 5}', '{"phi": [0, "1", 2]}', '{"map": [0, 1, 2]}'],
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
        assert 'the phi file\'s "phi"' in err

    @pytest.mark.parametrize("error", [
        groups.GroupFormatError, groups.SizeOverflowError,
        witness.WitnessError, diagonal.DiagonalError, orbitals.OrbitalError,
        matrep.MatrixError, matrep.WordError, matrep.UnknownOrbitalError,
        chartab.CharacterTableError,
    ])
    def test_package_errors_are_value_errors(self, error):
        # cli.main maps exit 2 from ValueError and OSError alone
        assert issubclass(error, ValueError)

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


# run in a fresh interpreter: each subcommand once through cli.main, then
# the top-level modules loaded since start-up (site's own are the baseline)
STDLIB_ONLY = """
import sys
before = set(sys.modules)
import contextlib, io, json
from synchro import cli
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runs.append([cli.main(argv), out.getvalue()])
loaded = {name.partition(".")[0] for name in set(sys.modules) - before}
foreign = loaded - set(sys.stdlib_module_names) - {"synchro"}
print(json.dumps({"runs": runs, "foreign": sorted(foreign)}))
"""


class TestWholeProcess:
    def test_every_subcommand_runs_on_the_standard_library(self, tmp_path):
        # the test extra's packages (mpmath among them) are installed here,
        # so loading one is what fails
        gens = tmp_path / "gens.txt"
        swap = BitMatrix.from_entries(2, [[0, 1], [1, 0]])
        write_matrix_file([swap, BitMatrix.identity(2, 2)], gens)
        commands = [
            ["complete-mapping", "--group", "a4"],
            ["diagonal", "--group", "z3", "--n", "3", "--color-odd", "--verify"],
            ["witness", "pipeline", "--group", "z4", "--A", "[0,3]",
             "--B", "[0,2]"],
            ["orbitals", "--group", "z2 x s3", "--wilcox"],
            ["matrep", "--gens", str(gens), "--verify-standard",
             "--fingerprint", "a", "b"],
            # the a5 table's irrational 5a/5b values
            ["chartab", "--table", str(bundled_table_path("a5")),
             "--hat", "5a", "5a", "5b", "--xi", "5a", "5a", "5b",
             "--scale", "60"],
            ["reproduce", "table1", "--data-dir", str(tmp_path)],
        ]
        proc = fresh_python("-c", STDLIB_ONLY, json.dumps(commands))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["foreign"] == []
        codes = [code for code, _ in result["runs"]]
        # 2x2 matrices fail the standard-generator orders; no J4 data
        assert codes == [0, 0, 0, 0, 1, 0, 3]
        chartab_payload = json.loads(result["runs"][5][1])
        assert chartab_payload["hat"]["value"] == 12
        assert chartab_payload["xi"]["scaled"] == 12

    @pytest.mark.parametrize("argv, code", [
        pytest.param(["-c", "from synchro import groups; "
                      "assert groups.make_group('a7').order == 2520"],
                     0, id="a7-table"),
        pytest.param(["-m", "synchro.cli", "diagonal", "--group", "s3",
                      "--n", "100000000"], 2, id="diagonal-n-10^8"),
        pytest.param(["-m", "synchro.cli", "complete-mapping", "--group",
                      "z1500"], 0, id="z1500-mapping"),
    ])
    def test_within_ten_seconds(self, argv, code):
        # whole processes, each well under a second on a 2-vCPU host: the
        # a7 table (2520^2 entries) from its generators' rows, the vertex
        # count of n = 10^8 never formed, a 1500^2 table decided at the root
        assert fresh_python(*argv, timeout=10).returncode == code


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

    def test_manifest_command_is_the_argv_given(self, capsys, tmp_path):
        manifest = tmp_path / "run.json"
        argv = ["--manifest", str(manifest), "complete-mapping",
                "--group", "z5"]
        assert run(capsys, *argv)[0] == 0
        assert json.loads(manifest.read_text())["command"] == " ".join(argv)

    def test_manifest_records_every_factor_file(self, capsys, tmp_path):
        manifest = tmp_path / "run.json"
        files = {}
        for name, spec in (("a.grp", "z3"), ("b.grp", "klein")):
            files[str(tmp_path / name)] = groups.make_group(spec)
            write_group_file(files[str(tmp_path / name)], tmp_path / name)
        code, out, _ = run(
            capsys, "--manifest", str(manifest), "complete-mapping",
            "--group", " x ".join(files),
        )
        assert code == 0 and json.loads(out)["order"] == 12
        assert json.loads(manifest.read_text())["inputs"] == {
            path: hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for path in files
        }

    def test_manifest_records_a_repeated_factor_file_once(
        self, capsys, tmp_path
    ):
        manifest = tmp_path / "run.json"
        path = tmp_path / "z3.grp"
        write_group_file(groups.make_group("z3"), path)
        code, out, _ = run(
            capsys, "--manifest", str(manifest), "complete-mapping",
            "--group", f"{path} x {path}",
        )
        assert code == 0 and json.loads(out)["order"] == 9
        assert json.loads(manifest.read_text())["inputs"] == {
            str(path): hashlib.sha256(path.read_bytes()).hexdigest()
        }

    def test_manifest_skips_a_file_named_like_a_catalog_group(
        self, capsys, tmp_path, monkeypatch
    ):
        # the catalog wins over a file of the same name, which is not read
        monkeypatch.chdir(tmp_path)
        write_group_file(groups.make_group("z5"), tmp_path / "z3")
        code, out, _ = run(
            capsys, "--manifest", "run.json", "complete-mapping",
            "--group", "z3",
        )
        assert code == 0 and json.loads(out)["order"] == 3
        assert json.loads((tmp_path / "run.json").read_text())["inputs"] == {}

    @pytest.mark.parametrize("case", ["output", "group-file"])
    def test_manifest_digests_inputs_as_read(self, capsys, tmp_path, case):
        # --output overwrites the run's --phi file ("output") or its --group
        # table file; the manifest records the bytes that were read, not
        # those written
        manifest = tmp_path / "run.json"
        if case == "output":
            source = tmp_path / "phi.json"
            source.write_text(json.dumps({"phi": [0, 1, 2]}))
            argv = ["--output", str(source), "--manifest", str(manifest),
                    "diagonal", "--group", "z3", "--n", "3", "--color-odd",
                    "--phi", str(source)]
        else:
            source = tmp_path / "z5.grp"
            write_group_file(groups.make_group("z5"), source)
            argv = ["--output", str(source), "--manifest", str(manifest),
                    "complete-mapping", "--group", str(source)]
        before = hashlib.sha256(source.read_bytes()).hexdigest()
        assert run(capsys, *argv)[0] == 0
        assert hashlib.sha256(source.read_bytes()).hexdigest() != before
        assert json.loads(manifest.read_text())["inputs"] == {
            str(source): before
        }


PASSING = StandardGeneratorReport((("order(a)", 2, 2), ("order(b)", 4, 4)))
FAILING = StandardGeneratorReport((("order(a)", 2, 2), ("order(ab)", 37, 5)))


@pytest.fixture
def j4_stubs(monkeypatch, tmp_path):
    """An empty placeholder generator file in tmp_path.  Parsing it, the
    standard-generator checks, the centralizer words and the collapsed
    matrices are stubbed: orbitals 2 and 4 come out as the printed A2 and
    A4, and each call's words, table, index and conjugators are kept."""
    (tmp_path / reproduce.GENS_FILE).write_bytes(b"")
    placeholder = BitMatrix.identity(2, 2)
    state = SimpleNamespace(
        report=PASSING,
        matrices={1: reproduce.printed_matrix("A2"),
                  3: reproduce.printed_matrix("A4")},
        centralizer=(BitMatrix.identity(2, 3),),  # told apart from a, b
        calls=[],
    )

    def collapsed(a, b, words, table, i, conjugators):
        state.calls.append((words, table, i, conjugators))
        return CollapsedAdjacency(i, state.matrices[i])

    monkeypatch.setattr(
        matrep, "parse_matrix_file", lambda path: [placeholder] * 2
    )
    monkeypatch.setattr(
        matrep, "verify_standard_generators", lambda a, b: state.report
    )
    monkeypatch.setattr(
        matrep, "centralizer_generators", lambda a, b: state.centralizer
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
        assert sorted(i for _, _, i, _ in j4_stubs.calls) == [1, 3]

    @pytest.mark.parametrize("target", ["A2", "entry-lists"])
    def test_swapped_a2_entry_fails(self, capsys, tmp_path, j4_stubs, target):
        j4_stubs.matrices[1] = swap_entry(j4_stubs.matrices[1], 1, 1, 2)
        code, payload = reproduce_in(capsys, tmp_path, target)
        assert code == 1 and payload["ok"] is False
        if target == "entry-lists":
            assert payload["differs_from_printed"] == ["A2"]

    @pytest.mark.parametrize("target", ["A2", "entry-lists"])
    @pytest.mark.parametrize("broken", ["row sums", "weighted symmetry"])
    def test_broken_identity_named(self, capsys, tmp_path, j4_stubs, target, broken):
        # one more on a diagonal entry changes only a row sum; a swap in a
        # row keeps its sum and breaks s_j (A_i)_jk = s_k (A_i)_kj
        a2 = [list(r) for r in reproduce.printed_matrix("A2")]
        if broken == "row sums":
            a2[1][1] += 1
        else:
            a2 = swap_entry(a2, 1, 1, 2)
        j4_stubs.matrices[1] = tuple(map(tuple, a2))
        code, payload = reproduce_in(capsys, tmp_path, target)
        assert code == 1 and payload["ok"] is False
        assert payload["broken_identities"] == {"A2": [broken]}
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
        code, payload = table1_in(
            capsys, tmp_path, monkeypatch,
            lambda i: Fraction(int(i == bad), 7),
        )
        mismatched = [r["class"] for r in payload["rows"] if not r["match"]]
        assert mismatched == ([] if bad is None else [UNLISTED[bad]])
        assert payload["ok"] is (bad is None)
        assert code == (0 if bad is None else 1)

    @pytest.mark.parametrize("changed", ["s1", "scaled"])
    def test_table1_checks_the_suborbit_sums(
        self, capsys, tmp_path, monkeypatch, changed
    ):
        # the character table and the expected file agree with each other
        # either way; only the orbitals of product class 2B can tell
        if changed == "s1":
            meta = reproduce.orbital_metadata()
            meta[3]["s1"] += 1
            monkeypatch.setattr(reproduce, "orbital_metadata", lambda: meta)
        else:
            want = reproduce.expected("structure_constants")
            row = next(r for r in want["rows"] if r["class"] == "2B")
            row["scaled"] += 1
            xi = Fraction(row["scaled"], want["scale"])
            row["xi"] = [xi.numerator, xi.denominator]
            monkeypatch.setattr(reproduce, "expected", lambda what: want)
        code, payload = table1_in(capsys, tmp_path, monkeypatch)
        assert code == 1 and payload["ok"] is False
        mismatched = [r["class"] for r in payload["rows"] if not r["match"]]
        assert mismatched == ["2B"]

    def test_entry_lists_checks_the_cross_identity(
        self, capsys, tmp_path, j4_stubs
    ):
        # rows 2 and 3 of A4 (1-based) swapped: row 2 no longer matches
        # s_4 (A2)_{4,k} = s_2 (A4)_{2,k*}
        a4 = [list(r) for r in j4_stubs.matrices[3]]
        a4[1], a4[2] = a4[2], a4[1]
        j4_stubs.matrices[3] = tuple(map(tuple, a4))
        code, payload = reproduce_in(capsys, tmp_path, "entry-lists")
        assert code == 1 and payload["ok"] is False
        assert payload["broken_identities"]["A2 and A4"] == ["cross identity"]
        assert payload["differs_from_printed"] == ["A4"]


UNLISTED = ["7A", "7B", "8A", "8B", "13A"]


def table1_in(capsys, tmp_path, monkeypatch, unlisted_xi=lambda i: 0):
    """Run `reproduce table1` on a stub character table whose classes are
    the expected file's listed ones, with their expected xi(2A, 2A, C),
    then UNLISTED, with xi(2A, 2A, UNLISTED[i]) = unlisted_xi(i)."""
    (tmp_path / reproduce.CHARTABLE_FILE).write_bytes(b"")
    rows = reproduce.expected("structure_constants")["rows"]
    listed = {row["class"]: Fraction(*row["xi"]) for row in rows}
    table = SimpleNamespace(
        classes=[SimpleNamespace(name=n) for n in [*listed, *UNLISTED]]
    )

    def xi(t, c1, c2, c3):
        assert t is table and (c1, c2) == ("2A", "2A")
        if c3 in listed:
            return listed[c3]
        return Fraction(unlisted_xi(UNLISTED.index(c3)))

    monkeypatch.setattr(chartab, "load_character_table", lambda path: table)
    monkeypatch.setattr(chartab, "structure_constant_xi", xi)
    code, payload = reproduce_in(capsys, tmp_path, "table1")
    assert [r["class"] for r in payload["rows"]] == [*listed, *UNLISTED]
    return code, payload


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

    # every file option also draws a missing file, an empty one, a
    # directory and an empty path
    no_file = files("missing.txt", "empty.txt") + [str(d), ""]
    argv = opt("--output", files("out.json"),
               files("no/out.json") + [str(d), ""], 6)
    argv += opt("--manifest", files("manifest.json"), [str(d), ""], 6)
    command = pick(["complete-mapping", "diagonal", "witness", "orbitals",
                    "matrep", "chartab", "reproduce"])
    argv.append(command)
    group_files = files("group.grp", "badgroup.grp")
    if command == "complete-mapping":
        argv += opt("--group", MAPPING_GROUPS, BAD_GROUPS + group_files)
        # always bounded: the default budget is 10^9
        argv += ["--budget", str(pick(st.integers(0, 10_000), [-1]))]
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
        argv += opt("--emit-witness", files("witness.json"), [str(d), ""], 3)
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
            "emptydir", "f3data", "smalldata", "emptychars", "nodir"), [""], 2)
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
    if any(f in cli.PATH_FLAGS and v == "" for f, v in zip(argv, argv[1:])):
        assert (code, out.getvalue()) == (2, ""), argv
    if out.getvalue():
        json.loads(out.getvalue())
