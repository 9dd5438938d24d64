import itertools
import json
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from synchro import chartab
from synchro.chartab import (
    CharacterTableError,
    _parse_value,
    brute_force_structure_constants,
    bundled_table_path,
    load_character_table,
    match_classes,
    structure_constant_hat,
    structure_constant_xi,
)
from synchro.groups import conjugacy_classes, make_group

BUNDLED = ["z2", "s3", "d8", "a4", "s4", "a5"]


def s3_with_sign_row(tmp_path, row):
    """The bundled s3 table with its sign row [1, -1, 1] replaced."""
    data = json.loads(bundled_table_path("s3").read_text())
    assert data["characters"][1] == [1, -1, 1]
    data["characters"][1] = row
    path = tmp_path / "s3.json"
    path.write_text(json.dumps(data))
    return path


def brute_force_count(g, t, names):
    """#{(x_1,...,x_n), x_i in the class named names[i] : x_1...x_n = 1}."""
    classing = conjugacy_classes(g)
    mapping = match_classes(t, classing, g)
    members = [
        [x for x in range(g.order)
         if classing.class_of[x] == mapping[t.class_index(name)]]
        for name in names
    ]
    last = set(members[-1])
    count = 0
    for xs in itertools.product(*members[:-1]):
        product = g.identity
        for x in xs:
            product = g.mul(product, x)
        count += g.inverses[product] in last
    return count


@pytest.fixture(scope="module")
def s3_table():
    return load_character_table(bundled_table_path("s3"))


class TestLoading:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_bundled_tables_validate(self, name):
        t = load_character_table(bundled_table_path(name))
        assert t.group_order == make_group(name).order
        assert len(t.values) == len(t.classes)

    def test_unknown_bundle(self):
        with pytest.raises(CharacterTableError):
            bundled_table_path("j4")

    def test_size_law_enforced(self, tmp_path, s3_table):
        data = json.loads(bundled_table_path("s3").read_text())
        data["classes"][1]["size"] = 4
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CharacterTableError):
            load_character_table(path)

    def test_orthonormality_enforced(self, tmp_path):
        data = json.loads(bundled_table_path("s3").read_text())
        data["characters"][2] = [2, 1, -1]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CharacterTableError):
            load_character_table(path)

    def test_identity_class_must_lead(self, tmp_path):
        data = json.loads(bundled_table_path("s3").read_text())
        data["classes"] = data["classes"][::-1]
        data["characters"] = [row[::-1] for row in data["characters"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CharacterTableError):
            load_character_table(path)

    def test_non_integral_degree_refused(self, tmp_path):
        # <chi, chi> = (2 + 3 * 4/3 + 0) / 6 = 1, so only the degree check
        # refuses this row
        path = s3_with_sign_row(tmp_path, ["sqrt(2)", "sqrt(4/3)", 0])
        with pytest.raises(CharacterTableError, match="positive integer"):
            load_character_table(path)

    @pytest.mark.parametrize(
        "key, value", [("group_order", 6.0), ("size", 3.0), ("size", True)]
    )
    def test_class_data_must_be_integers(self, tmp_path, key, value):
        data = json.loads(bundled_table_path("s3").read_text())
        if key == "group_order":
            data[key] = value
        else:
            data["classes"][1][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(CharacterTableError, match="positive integers"):
            load_character_table(path)

    def test_values_held_as_scaled_gaussian_integers(self):
        t = load_character_table(bundled_table_path("a5"))
        assert t.degrees == (1, 3, 3, 4, 5)
        one = 1 << chartab.PRECISION_BITS
        zero = (0, 0)
        assert t.values[4] == ((5 * one, 0), (one, 0), (-one, 0), zero, zero)
        golden = t.values[1][t.class_index("5a")]
        with mpmath.workprec(300):
            exact = (1 + mpmath.sqrt(5)) / 2 * one
            assert golden[1] == 0 and abs(golden[0] - exact) <= 0.5

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        with pytest.raises(CharacterTableError):
            load_character_table(path)

    def test_symbolic_values_parse(self):
        t = load_character_table(bundled_table_path("a5"))
        # golden-ratio entries appear in the degree-3 characters
        idx = t.class_index("5a")
        one = 1 << chartab.PRECISION_BITS
        vals = sorted(round(row[idx][0] / one, 6) for row in t.values)
        assert round((1 + 5 ** 0.5) / 2, 6) in vals

    def test_root_of_unity_forms_agree(self):
        omega = _parse_value("exp(2*pi*I/3)")
        gap = abs(omega - _parse_value("-1/2+sqrt(3)/2*I"))
        assert gap < mpmath.mpf(2) ** -200

    @pytest.mark.parametrize(
        "value",
        [
            "__import__('os')",
            "x",
            "2^3",
            "sqrt(2, 3)",
            "1/0",
            "(" * 300 + "1" + ")" * 300,
            "1+" * 100_000 + "1",
            "-" * 100_000 + "1",
            "9**9**9**9",
        ],
        ids=["import", "name", "xor", "two-args", "zero-division",
             "nested-300", "chain-1e5", "unary-1e5", "power-tower"],
    )
    def test_values_outside_the_grammar_rejected(self, value):
        with pytest.raises(CharacterTableError, match="bad character value"):
            _parse_value(value)

    @pytest.mark.parametrize(
        "pair", [["I", 0], ["1", "I"], [0, "sqrt(-2)"]], ids=["re", "im", "sqrt"]
    )
    def test_non_real_pair_part_rejected(self, pair):
        # each part of [re, im] is a real number; an imaginary part used
        # to be dropped without a word
        with pytest.raises(CharacterTableError, match="non-real") as exc:
            _parse_value(pair)
        assert repr(pair) in str(exc.value)

    def test_real_pair_parts_load(self):
        value = _parse_value(["sqrt(5)/2", "-1/2"])
        assert abs(value - mpmath.mpc(mpmath.sqrt(5) / 2, -0.5)) < 1e-15
        # a real closed form whose evaluation leaves a rounding residue
        assert _parse_value(["exp(pi*I)", 0]) == -1

    def test_indicators_ignored(self, tmp_path):
        # no computation reads Frobenius-Schur indicators: any list, even
        # one of the wrong length, loads
        data = json.loads(bundled_table_path("s3").read_text())
        assert "indicators" in data
        data["indicators"] = [1]
        path = tmp_path / "table.json"
        path.write_text(json.dumps(data))
        t = load_character_table(path)
        assert t == load_character_table(bundled_table_path("s3"))
        assert not hasattr(t, "indicators")

    def test_no_sympy_import(self):
        # a fresh interpreter: loading every bundled table and computing
        # every constant must not pull sympy in
        src = str(Path(chartab.__file__).parents[1])
        code = textwrap.dedent(f"""
            import itertools, sys
            sys.path.insert(0, {src!r})
            from synchro import chartab
            for name in {BUNDLED!r}:
                path = chartab.bundled_table_path(name)
                t = chartab.load_character_table(path)
                names = [c.name for c in t.classes]
                for triple in itertools.product(names, repeat=3):
                    chartab.structure_constant_hat(t, *triple)
                    chartab.structure_constant_xi(t, *triple)
            print("sympy" in sys.modules)
        """)
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True,
        )
        assert out.stdout == "False\n"


class TestSpotValues:
    def test_s3_triple_count(self, s3_table):
        assert structure_constant_hat(s3_table, "2a", "2a", "3a") == 6

    def test_identity_triple(self, s3_table):
        assert structure_constant_hat(s3_table, "1a", "1a", "1a") == 1

    def test_s3_xi(self, s3_table):
        assert structure_constant_xi(s3_table, "2a", "2a", "3a") == Fraction(1)

    def test_non_integral_scale_rejected(self, s3_table):
        # the CLI rejects --scale 7 on this value (tests/test_cli.py)
        assert structure_constant_xi(s3_table, "3a", "3a", "3a") == Fraction(
            1, 3
        )

    def test_unknown_class(self, s3_table):
        with pytest.raises(CharacterTableError):
            structure_constant_hat(s3_table, "2a", "9z")

    def test_higher_arity(self):
        # tuples from the named classes multiplying to 1; a5's 5a and 5b
        # values are irrational
        for name, names in [
            ("s3", ["2a", "2a", "2a", "2a"]),
            ("a5", ["5a", "5b"]),
            ("a5", ["5a", "5a"]),
            ("a5", ["2a", "2a"]),
            ("a5", ["5a", "5a", "5b", "3a"]),
            ("a5", ["2a", "3a", "5a", "5b"]),
            ("a5", ["5b", "5b", "5b", "5b"]),
        ]:
            t = load_character_table(bundled_table_path(name))
            brute = brute_force_count(make_group(name), t, names)
            assert structure_constant_hat(t, *names) == brute, (name, names)

    @pytest.mark.parametrize(
        "row, message",
        [([1, "sqrt(5/3)", 0], "is not near an integer"),
         ([1, "I", 1], "^non-real structure constant")],
        ids=["irrational", "non-real"],
    )
    def test_guards_fire_on_a_table_that_is_not_a_character_table(
        self, tmp_path, row, message
    ):
        # the row has norm 1, so it loads; the guards refuse what follows
        t = load_character_table(s3_with_sign_row(tmp_path, row))
        names = [c.name for c in t.classes]
        errors = []
        for triple in itertools.product(names, repeat=3):
            try:
                structure_constant_hat(t, *triple)
            except CharacterTableError as exc:
                errors.append(str(exc))
        assert any(re.search(message, e) for e in errors), errors


class TestOracleAgreement:
    @pytest.mark.parametrize("name", ["s3", "d8", "a4", "s4", "a5"])
    def test_formula_matches_brute_force(self, name, monkeypatch):
        g = make_group(name)
        t = load_character_table(bundled_table_path(name))

        # mpmath parses and norm-checks at load; no constant touches it
        class NoMpmath:
            def __getattr__(self, attr):
                raise AssertionError(f"mpmath.{attr} used after load")

        monkeypatch.setattr(chartab, "mpmath", NoMpmath())
        table, classing = brute_force_structure_constants(g)
        mapping = match_classes(t, classing, g)
        k = len(t.classes)
        for i in range(k):
            for j in range(k):
                for m in range(k):
                    triple = [t.classes[c].name for c in (i, j, m)]
                    want = table[(mapping[i], mapping[j], mapping[m])]
                    assert structure_constant_hat(t, *triple) == want
                    xi = structure_constant_xi(t, *triple)
                    assert xi == Fraction(want, g.order)

    def test_brute_force_cap(self):
        import synchro.chartab as chartab
        import synchro.groups as groups

        big = groups.cyclic_group(2001)
        with pytest.raises(CharacterTableError):
            chartab.brute_force_structure_constants(big)

    def test_xi_consistent_with_hat(self, s3_table):
        # the two formulas differ by one factor |G|: hat counts the
        # triples in 2a x 2a x 3a with product 1, and xi = hat / |G|
        hat = structure_constant_hat(s3_table, "2a", "2a", "3a")
        xi = structure_constant_xi(s3_table, "2a", "2a", "3a")
        assert hat == 6 and xi == Fraction(hat, 6) == 1

    def test_match_classes_requires_consistency(self):
        g = make_group("s3")
        t = load_character_table(bundled_table_path("d8"))
        classing = brute_force_structure_constants(g)[1]
        with pytest.raises(CharacterTableError):
            match_classes(t, classing, g)
