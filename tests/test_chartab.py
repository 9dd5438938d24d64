import ast
import hashlib
import itertools
import json
import math
import operator
import re
import subprocess
import sys
import textwrap
from collections import Counter
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
from synchro.groups import (
    Permutation,
    PermGroup,
    conjugacy_classes,
    make_group,
)
from synchro.orbitals import orbital_decomposition

BUNDLED = ["z2", "s3", "d8", "a4", "s4", "a5"]
P = chartab.PRECISION_BITS


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


def load_all_in_a_fresh_interpreter(prelude):
    """Run prelude, then load every bundled table and compute every
    constant in a fresh interpreter; returns its output, whether sympy
    was loaded."""
    src = str(Path(chartab.__file__).parents[1])
    code = textwrap.dedent(f"""
        import itertools, sys
        {prelude}
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
    return out.stdout


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
        # each is the Gaussian integer nearest the same number at 2^P
        omega = _parse_value("exp(2*pi*I/3)")
        assert omega == _parse_value("-1/2+sqrt(3)/2*I")
        assert omega[0] == -(1 << P - 1)

    @pytest.mark.parametrize(
        "value, reason",
        [
            ("__import__('os')", ""),
            ("x", ""),
            ("2^3", ""),
            ("sqrt(2, 3)", ""),
            ("1/0", ""),
            ("(" * 300 + "1" + ")" * 300, ""),
            ("1+" * 100_000 + "1", ""),
            ("-" * 100_000 + "1", ""),
            ("9**9**9**9", ""),
            # ** takes an integer exponent only: surds are sqrt, and roots
            # of unity exp(2*pi*I*k/n)
            ("3**0.5", "integer exponent"),
            ("(-8)**(1/3)", "integer exponent"),
            ("I**I", "integer exponent"),
            ("7**(3+4*I)", "integer exponent"),
            ("2**(1/12)", "integer exponent"),
        ],
        ids=["import", "name", "xor", "two-args", "zero-division",
             "nested-300", "chain-1e5", "unary-1e5", "power-tower",
             "half-power", "cube-root", "i-to-the-i", "complex-power",
             "twelfth-root"],
    )
    def test_values_outside_the_grammar_rejected(self, value, reason):
        with pytest.raises(CharacterTableError,
                           match=f"bad character value.*{reason}"):
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
        with mpmath.workprec(2 * P):
            re = int(mpmath.nint(mpmath.sqrt(5) / 2 * 2**P))
        assert value == (re, -(1 << P - 1))
        # a real closed form whose evaluation leaves a rounding residue
        assert _parse_value(["exp(pi*I)", 0]) == (-(1 << P), 0)

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
        # loading every bundled table and computing every constant must
        # not pull sympy in
        assert load_all_in_a_fresh_interpreter("") == "False\n"

    def test_loads_with_mpmath_blocked(self):
        # the runtime needs no third-party package: with mpmath blocked,
        # every bundled table loads and every constant is computed
        prelude = "sys.modules['mpmath'] = None"
        assert load_all_in_a_fresh_interpreter(prelude) == "False\n"


# an oracle for the grammar: the same syntax tree in mpmath, at P + 64
# bits plus 48 for the size of an argument (|Im| <= 2^40 below) and 256
# for the size of a value (|value| < 2^P)
_MP_OPERATORS = {
    ast.UAdd: operator.pos, ast.USub: operator.neg, ast.Add: operator.add,
    ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}


def mpmath_value(text):
    def walk(node):
        match node:
            case ast.Constant(x):
                return mpmath.mpf(x)
            case ast.Name("I"):
                return mpmath.j
            case ast.Name("pi"):
                return +mpmath.pi
            case ast.UnaryOp(op, x):
                return _MP_OPERATORS[type(op)](walk(x))
            case ast.BinOp(x, op, y):
                return _MP_OPERATORS[type(op)](walk(x), walk(y))
            case ast.Call(ast.Name(f), [x], []):
                return getattr(mpmath, f)(walk(x))
        raise AssertionError(ast.dump(node))

    with mpmath.workprec(P + 64 + 48 + 256):
        return mpmath.mpc(walk(ast.parse(text, mode="eval").body))


def bundled_values():
    values = set()
    for name in BUNDLED:
        data = json.loads(bundled_table_path(name).read_text())
        values.update(map(str, itertools.chain(*data["characters"])))
    return sorted(values)


CORPUS = [
    # sqrt of negative and complex values
    "sqrt(-2)", "sqrt(-3-4*I)", "sqrt(1e-20*I)", "sqrt(-7+0.1*I)",
    "sqrt(-7-0.1*I)", "sqrt(12345678901)",
    # exp, with |Im| up to 2^40 and a large real part
    "exp(2*pi*I/37)", "exp(2**40*I)", "exp(-(2**40)*I)", "exp(2**40*I+3)",
    "exp(1e6*pi*I/7)", "exp(100+I)", "exp(-100)", "exp(-3+2*I)",
    "exp(0.5)", "exp(-2*pi*I/62)",
    # ** with positive and negative integer exponents
    "2**-3", "(1+I)**7", "(2-I)**-5", "sqrt(2)**10", "exp(2*pi*I/62)**31",
    # floats and multiples of pi
    "1.5", "0.1", "1e-30", "12345.678", "-2.5e3", "3*pi", "pi/7",
    "-2.5*pi*I", "1e6*pi",
]


class TestEvaluator:
    @pytest.mark.parametrize("text", bundled_values() + CORPUS)
    def test_agrees_with_mpmath(self, text):
        # the value is the Gaussian integer nearest text * 2^P: each part
        # is within half a unit (and the evaluator's 2^-16 more)
        want = mpmath_value(text)
        got = _parse_value(text)
        with mpmath.workprec(P + 64 + 48 + 256):
            for g, w in zip(got, (want.real, want.imag)):
                assert abs(g - mpmath.ldexp(w, P)) <= 0.5 + 2**-16, text

    @pytest.mark.parametrize(
        "text, gain",
        [("1/3*1e30", 1e30), ("exp(100+1/3)", math.exp(100 + 1 / 3)),
         ("1/(1/3-0.333333333333)", 1 / (1 / 3 - 0.333333333333) ** 2)],
    )
    def test_error_follows_the_derivative(self, text, gain):
        # fixed point: a subexpression is held to 2^-W, not to a share of
        # its size, so where the value's derivative in a rounded input
        # (here 1/3) is large, that input's rounding comes through times
        # the derivative
        want = mpmath_value(text)
        got = _parse_value(text)
        bound = 0.5 + 2**-16 + gain * 2.0 ** (P - chartab._W)
        with mpmath.workprec(P + 64 + 48 + 256):
            errors = [abs(g - mpmath.ldexp(w, P))
                      for g, w in zip(got, (want.real, want.imag))]
        assert max(errors) <= bound
        assert max(errors) > 0.5 + 2**-16  # not the nearest at 2^P

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 37, 62, 1000])
    def test_roots_of_unity(self, n):
        re, im = _parse_value(f"exp(2*pi*I/{n})**{n}")
        assert abs(re - (1 << P)) <= 1 << 8 and abs(im) <= 1 << 8

    @pytest.mark.parametrize(
        "x", ["2", "5", "-3", "1+I", "-7-2*I", "0.1", "1e-30", "123456789",
              "-1e20*I", "exp(2*pi*I/37)"]
    )
    def test_square_roots(self, x):
        got = _parse_value(f"sqrt({x})**2")
        want = _parse_value(x)
        assert all(abs(g - w) <= 1 << 8 for g, w in zip(got, want))

    def test_bundled_tables_bit_identical(self):
        # sha256 of repr((values, degrees)) for each bundled table, as
        # the mpmath parser loaded them
        golden = {
            "z2": "a12c76dbe95c2e20a0038d9e681aa29edc6f40e9f5d4eaa423572606828dde2e",
            "s3": "554486369453e1c0972846c6ea1b14ea3eb2639411926e97af8278ae0ae131a5",
            "d8": "5d7b370a839613bf6c14b2e9a518c7a8adfc8c491888010b038c787522b5e886",
            "a4": "5277654d32df5a3d580f2f82f18ffc4416a5c1df6fe99055c396a5b8edfd3764",
            "s4": "c0ca47ca1c46529e9345940817d75345a482a3d61d5a4b515ddd0354fc00643d",
            "a5": "aab11a682fed55da3df4618c9199fb6235f2e567471adb8e5edcb3a945ac9259",
        }
        for name in BUNDLED:
            t = load_character_table(bundled_table_path(name))
            digest = hashlib.sha256(repr((t.values, t.degrees)).encode())
            assert digest.hexdigest() == golden[name], name

    @pytest.mark.parametrize(
        "text, ok",
        [("2**239", True), ("2**240", False), ("-(2**240)*I", False),
         ("exp(166)", True), ("exp(167)", False), ("0.5**-240", False),
         ("1e999", False), ("0**0", True), ("0**-1", False),
         # a non-integer exponent is refused before any power is formed
         ("9.5**(9**9+0.5)", False), ("(2**200)**(3/2)", False),
         ("0**(-0.5)", False),
         # |x| within 2^-44 of 1: the partial powers, not a float
         # estimate of |x|^n, must stop these
         ("(1+2**-50)**(2**239)", False), ("(1+2**-50)**(2.0**239)", False),
         ("(1+2**-280)**(2**239)", True), ("(1-2**-50)**(2**239)", True),
         ("(I*(1+2**-50))**-(2**239)", True)],
    )
    def test_magnitude_bound(self, text, ok):
        # no subexpression may reach 2^P in absolute value
        if ok:
            _parse_value(text)
        else:
            with pytest.raises(CharacterTableError, match="bad character"):
                _parse_value(text)


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
        monkeypatch.setitem(sys.modules, "mpmath", None)
        g = make_group(name)
        t = load_character_table(bundled_table_path(name))

        # values are parsed and norm-checked at load; no constant parses
        def no_parse(v):
            raise AssertionError(f"value {v!r} parsed after load")

        monkeypatch.setattr(chartab, "_evaluated", no_parse)
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

    @pytest.mark.parametrize("name", BUNDLED)
    def test_xi_counts_the_conjugation_suborbits(self, name):
        # G acts on a class X by conjugation.  Each suborbit at x has one
        # product class, that of xy for its points y, so the subdegrees
        # of product class C add up to #{y in X : xy in C}, which is
        # xi(X, X, C^-1) |C(x)|
        g = make_group(name)
        t = load_character_table(bundled_table_path(name))
        classing = conjugacy_classes(g)
        cls = classing.class_of
        mapping = match_classes(t, classing, g)
        name_of = {c: t.classes[i].name for i, c in enumerate(mapping)}
        for X, computed in zip(t.classes, mapping):
            members = [y for y in range(g.order) if cls[y] == computed]
            index = {y: k for k, y in enumerate(members)}
            action = PermGroup(len(members), tuple(
                Permutation(tuple(index[g.conjugate(y, h)] for y in members))
                for h in g.generators
            ))
            sums = Counter()
            for orbit in orbital_decomposition(action, 0).suborbits:
                sums[cls[g.mul(members[0], members[orbit[0]])]] += len(orbit)
            for c, rep in enumerate(classing.representatives):
                inverse = name_of[cls[g.inverses[rep]]]
                xi = structure_constant_xi(t, X.name, X.name, inverse)
                assert sums[c] == xi * X.centralizer_order, (X, c)

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
