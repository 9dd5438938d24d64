import inspect
import itertools
import math
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from conftest import write_matrix_file
from hypothesis import given, settings, strategies as st

from synchro import matrep
from synchro.groups import Permutation, parse_permutation
from synchro.matrep import (
    BitMatrix,
    MatrixError,
    UnknownOrbitalError,
    WordError,
    centralizer_generators,
    collapsed_adjacency_matrep,
    eval_word,
    fingerprint,
    orbit_closure,
    parse_matrix_file,
    standard_environment,
    verify_standard_generators,
)
from synchro.orbitals import collapsed_adjacency, orbital_decomposition
from synchro.groups import PermGroup


def perm_matrix(p: Permutation) -> BitMatrix:
    n = p.degree
    return BitMatrix.from_entries(
        2, [[1 if p(i) == j else 0 for j in range(n)] for i in range(n)]
    )


def random_f2(draw_bits, dim):
    return BitMatrix(2, dim, draw_bits)


bits4 = st.lists(
    st.integers(min_value=0, max_value=15), min_size=4, max_size=4
).map(lambda rows: BitMatrix(2, 4, rows))

perm_mats5 = st.permutations(range(5)).map(
    lambda xs: perm_matrix(Permutation(tuple(xs)))
)


class TestBitMatrix:
    def test_identity_entries(self):
        i = BitMatrix.identity(2, 3)
        assert [[i.entry(r, c) for c in range(3)] for r in range(3)] == [
            [1, 0, 0],
            [0, 1, 0],
            [0, 0, 1],
        ]

    @given(bits4, bits4)
    def test_mul_matches_naive(self, a, b):
        c = a * b
        for i in range(4):
            for j in range(4):
                want = sum(a.entry(i, k) * b.entry(k, j) for k in range(4)) % 2
                assert c.entry(i, j) == want

    @pytest.mark.parametrize("dim", [1, 7, 8, 9, 112])
    def test_product_matches_entrywise(self, dim):
        # one short table, a short last chunk, whole chunks, one bit over
        rng = random.Random(dim)
        a, b = (
            BitMatrix(2, dim, [rng.getrandbits(dim) for _ in range(dim)])
            for _ in range(2)
        )
        ea, eb = (
            [[m.entry(i, j) for j in range(dim)] for i in range(dim)]
            for m in (a, b)
        )
        c = a * b
        for i in range(dim):
            for j in range(dim):
                want = sum(ea[i][k] & eb[k][j] for k in range(dim)) % 2
                assert c.entry(i, j) == want

    @pytest.mark.parametrize("dim", [1, 7, 8, 9, 45, 112, 129, 4096])
    def test_straight_line_kernel_matches_the_table_loop(self, dim):
        # at the 4096 cap, a permutation matrix: vP moves bit j to images[j]
        rng = random.Random(dim)
        images = rng.sample(range(dim), dim)
        if dim == 4096:
            rows = [1 << j for j in images]
        else:
            rows = [rng.getrandbits(dim) for _ in range(dim)]
        tables = matrep._subset_xor_tables(rows)
        times = matrep._times(tables)
        for v in [0, (1 << dim) - 1, *(rng.getrandbits(dim) for _ in range(20))]:
            want = 0
            for table, byte in zip(tables, v.to_bytes(len(tables), "little")):
                want ^= table[byte]
            assert times(v) == want
            if dim == 4096:
                assert want == sum(1 << images[j] for j in range(dim) if v >> j & 1)
        assert matrep._times(tables[:1])(1) == rows[0]

    @given(bits4, bits4, bits4)
    def test_mul_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(perm_mats5)
    def test_inverse_roundtrip(self, m):
        assert m * m.inverse() == BitMatrix.identity(2, 5)

    @pytest.mark.parametrize("dim", [13, 112, 113, 200])
    def test_dense_inverse_roundtrip(self, dim):
        rng = random.Random(dim)
        for _ in range(4):
            m = random_invertible(rng, dim)
            inv = m.inverse()
            one = BitMatrix.identity(2, dim)
            assert m * inv == one and inv * m == one
            assert inv.inverse() == m

    def test_singular_inverse_raises(self):
        z = BitMatrix(2, 3, [0, 0, 0])
        with pytest.raises(MatrixError, match="singular"):
            z.inverse()
        # rank 2: the third row is the sum of the first two
        with pytest.raises(MatrixError, match="singular"):
            BitMatrix(2, 3, [0b011, 0b110, 0b101]).inverse()

    def test_order_matches_permutation_order(self):
        p = parse_permutation("(0 1)(2 3 4)", 5)
        assert perm_matrix(p).order() == 6
        # dense conjugates: orders 1, 2, 4, 15 at dim 8 (a 37-cycle and
        # cycles 3 + 4 + 5 need more points), and 1, 2, 4, 37, 60 at 112
        cycle_types = {8: [[], [2], [4], [3, 5]],
                       112: [[], [2], [4], [37], [3, 4, 5]]}
        for dim, types in cycle_types.items():
            rng = random.Random(dim)
            c = random_invertible(rng, dim)
            for lengths in types:
                points = iter(rng.sample(range(dim), sum(lengths)))
                cycles = [[next(points) for _ in range(n)] for n in lengths]
                p = Permutation.from_cycles(cycles, dim)
                want = math.lcm(*lengths)
                assert perm_matrix(p).conjugate_by(c).order() == want

    def test_order_cutoff(self):
        p = parse_permutation("(0 1 2 3 4)", 5)
        with pytest.raises(MatrixError):
            perm_matrix(p).order(cutoff=3)

    def test_power_negative(self):
        m = perm_matrix(parse_permutation("(0 1 2)", 3))
        env = {"m": m}
        assert eval_word(env, "m^-1") == m.inverse()
        assert eval_word(env, "m^3") == BitMatrix.identity(2, 3)
        assert eval_word(env, "m^-2") == m

    def test_odd_characteristic(self):
        # only F_2 is implemented; every constructor rejects another field
        with pytest.raises(MatrixError, match="F_3"):
            BitMatrix(3, 2, [1, 2])
        with pytest.raises(MatrixError, match="F_3"):
            BitMatrix.identity(3, 2)
        with pytest.raises(MatrixError, match="F_3"):
            BitMatrix.from_entries(3, [[1, 1], [0, 1]])

    def test_f2_only(self):
        # no odd-characteristic arithmetic is left: rows are ints, the one
        # field comparison is the guard, and the F_p-only methods are gone
        src = inspect.getsource(matrep)
        assert "p == 2" not in src and src.count("p != 2") == 1
        assert "p != 2" in inspect.getsource(matrep._check_field)
        for name in ("__add__", "__sub__", "power"):
            assert not hasattr(BitMatrix, name)
        assert not hasattr(matrep.StandardGeneratorReport, "failures")
        assert all(type(r) is int for r in BitMatrix.identity(2, 3).rows)
        assert BitMatrix.identity(2, 3).p == 2

    @given(perm_mats5, perm_mats5)
    def test_hash_consistency(self, a, b):
        if a == b:
            assert hash(a) == hash(b)


class TestMatrixFiles:
    def test_roundtrip(self, tmp_path):
        mats = [
            perm_matrix(parse_permutation("(0 1)", 4)),
            perm_matrix(parse_permutation("(0 1 2 3)", 4)),
        ]
        path = tmp_path / "gens.txt"
        write_matrix_file(mats, path)
        back = parse_matrix_file(path)
        assert back == mats

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("hello\n")
        with pytest.raises(MatrixError):
            parse_matrix_file(path)

    def test_odd_characteristic_file_rejected(self, tmp_path):
        path = tmp_path / "f3.txt"
        path.write_text("3 2 2 2\n12\n01\n10\n01\n")
        with pytest.raises(MatrixError, match="F_2"):
            parse_matrix_file(path)

    def test_truncated_matrix_reports_line(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("2 1 2 2\n10\n")
        with pytest.raises(MatrixError):
            parse_matrix_file(path)

    def test_row_separators_parse_equal(self, tmp_path):
        rows = ["100", "011", "110"]
        forms = {}
        for name, sep in [("packed", ""), ("space", " "), ("tab", "\t")]:
            path = tmp_path / f"{name}.txt"
            path.write_text("2 1 3 3\n" + "\n".join(map(sep.join, rows)) + "\n")
            forms[name] = parse_matrix_file(path)
        assert forms["packed"] == forms["space"] == forms["tab"]
        assert forms["tab"][0].entry(1, 2) == 1

    @pytest.mark.parametrize("row", ["1\t2\t0", "120", "1 x 0", "1 +1 0"])
    def test_entry_outside_f2_names_the_line(self, tmp_path, row):
        path = tmp_path / "bad.txt"
        path.write_text(f"2 1 3 3\n100\n{row}\n001\n")
        where = re.escape(f"{path}:3: entry out of field range")
        with pytest.raises(MatrixError, match=where):
            parse_matrix_file(path)


class TestWords:
    @pytest.fixture
    def env(self):
        x = parse_permutation("(0 1)", 5)
        y = parse_permutation("(0 1 2 3 4)", 5)
        return {"x": x, "y": y}

    def test_juxtaposition(self, env):
        assert eval_word(env, "xy") == env["x"] * env["y"]

    def test_powers(self, env):
        assert eval_word(env, "y^3") == env["y"] * env["y"] * env["y"]
        assert eval_word(env, "y^-1") == env["y"].inverse()

    def test_conjugation(self, env):
        x, y = env["x"], env["y"]
        assert eval_word(env, "x^y") == y.inverse() * x * y

    def test_commutator(self, env):
        x, y = env["x"], env["y"]
        want = x.inverse() * y.inverse() * x * y
        assert eval_word(env, "[x,y]") == want

    def test_braces_group_like_parens(self, env):
        assert eval_word(env, "{xy}^2") == eval_word(env, "(xy)^2")

    def test_nested_conjugator_word(self, env):
        x, y = env["x"], env["y"]
        g = y * x * y
        assert eval_word(env, "x^(yxy)") == g.inverse() * x * g

    def test_empty_word_is_identity(self, env):
        assert eval_word(env, "") == Permutation.identity(5)

    def test_unknown_symbol(self, env):
        with pytest.raises(WordError):
            eval_word(env, "xz")

    def test_unbalanced(self, env):
        with pytest.raises(WordError):
            eval_word(env, "(xy")

    @pytest.mark.parametrize(
        "text",
        ["x^-", "x^\u00b2", "x^", "x^" + "1" * 5000],
        ids=["lone-minus", "non-ascii-digit", "no-exponent", "5000-digits"],
    )
    def test_malformed(self, env, text):
        with pytest.raises(WordError):
            eval_word(env, text)

    def test_too_deep_to_evaluate(self, env):
        with pytest.raises(WordError, match="nested too deeply"):
            eval_word(env, "(" * 3000 + "x" + ")" * 3000)

    def test_conjugation_chain_is_flat(self, env):
        # y has order 5, and 3001 = 1 mod 5
        assert eval_word(env, "x" + "^y" * 3001) == eval_word(env, "x^y")

    def test_standard_environment_derived_names(self):
        a = perm_matrix(parse_permutation("(0 1)", 5))
        b = perm_matrix(parse_permutation("(0 1 2 3 4)", 5))
        env = standard_environment(a, b)
        assert env["c"] == a * b
        assert env["d"] == b * a
        ab2 = a * b * b
        assert env["t"] == ab2 * ab2 * ab2 * ab2


class TestStandardGenerators:
    def test_failing_report_records_orders(self):
        a = perm_matrix(parse_permutation("(0 1)", 5))
        b = perm_matrix(parse_permutation("(0 1 2 3 4)", 5))
        report = verify_standard_generators(a, b)
        assert not report.passed
        by_name = {w: (e, x) for w, e, x in report.checks}
        assert by_name["order(a)"] == (2, 2)
        assert by_name["order(b)"] == (4, 5)


def random_invertible(rng, dim: int) -> BitMatrix:
    while True:
        m = BitMatrix(2, dim, [rng.getrandbits(dim) for _ in range(dim)])
        try:
            m.inverse()
            return m
        except MatrixError:
            continue


def dense_involution(rng, dim: int, swaps: int, c: BitMatrix) -> BitMatrix:
    """A permutation involution with `swaps` transpositions, conjugated
    by c so that it is dense."""
    points = rng.sample(range(dim), 2 * swaps)
    cycles = [tuple(points[k:k + 2]) for k in range(0, 2 * swaps, 2)]
    return perm_matrix(Permutation.from_cycles(cycles, dim)).conjugate_by(c)


def commuting_involutions(rng, dim: int, c: BitMatrix):
    """Commuting permutation involutions x and y, conjugated by c: y
    crosses pairs of x's 2-cycles, (p q)(r s) against (p r)(q s), keeps
    some others and swaps points that x fixes."""
    points = rng.sample(range(dim), dim)
    swaps = rng.randint(0, dim // 2)
    xc = [tuple(points[k:k + 2]) for k in range(0, 2 * swaps, 2)]
    fixed = points[2 * swaps:]
    yc, rest = [], xc[:]
    while len(rest) >= 2 and rng.random() < 0.5:
        (p, q), (r, s) = rest.pop(), rest.pop()
        yc += [(p, r), (q, s)]
    yc += [cyc for cyc in rest if rng.random() < 0.5]
    f = rng.randint(0, len(fixed) // 2)
    yc += [tuple(fixed[k:k + 2]) for k in range(0, 2 * f, 2)]
    return tuple(
        perm_matrix(Permutation.from_cycles(cycles, dim)).conjugate_by(c)
        for cycles in (xc, yc)
    )


def reference_fingerprint(x: BitMatrix, y: BitMatrix) -> tuple:
    """The fingerprint from full products: V_1 = V(1-x) + V(1-y),
    V_2 = V_1(1-x) + V_1(1-y), V(1-x) + V(1-yxy) and V(1-y) + V(1-xyx)."""
    one = BitMatrix.identity(2, x.dim)
    if x * x != one or y * y != one:
        raise MatrixError("not an involution pair")

    def times(v, m):
        acc = 0
        for j in range(m.dim):
            if v >> j & 1:
                acc ^= m.rows[j]
        return acc

    def basis(vectors):
        out = []
        for v in vectors:
            for b in out:
                v = min(v, v ^ b)
            if v:
                out.append(v)
                out.sort(reverse=True)
        return out

    def one_minus(m):
        return BitMatrix(2, m.dim, [r ^ (1 << i) for i, r in enumerate(m.rows)])

    ox, oy = one_minus(x), one_minus(y)
    v1 = basis(ox.rows + oy.rows)
    v2 = basis([times(v, ox) for v in v1] + [times(v, oy) for v in v1])
    d1p = basis(ox.rows + one_minus(y * x * y).rows)
    d2p = basis(oy.rows + one_minus(x * y * x).rows)
    return (len(v1), len(v2), len(d1p), len(d2p))


class TestFingerprint:
    def test_requires_involutions(self):
        i = BitMatrix.identity(2, 4)
        rng = random.Random(7)
        c = random_invertible(rng, 13)
        cases = [
            (perm_matrix(parse_permutation("(0 1 2)", 4)), i),
            # 1-x has rank 1 and (1-x)^2 = 1-x
            (BitMatrix(2, 4, [0b0010, 0b0010, 0b0100, 0b1000]), i),
            (BitMatrix(2, 4, [0, 0, 0, 0]), i),
            (
                perm_matrix(parse_permutation("(0 1 2)(3 4)", 13)).conjugate_by(c),
                dense_involution(rng, 13, 4, c),
            ),
        ]
        for bad, good in cases:
            for args in ((bad, good), (good, bad)):
                with pytest.raises(MatrixError):
                    fingerprint(*args)

    def test_shape_mismatch(self):
        with pytest.raises(MatrixError):
            fingerprint(BitMatrix.identity(2, 4), BitMatrix.identity(2, 5))

    @pytest.mark.parametrize("dim", [8, 9, 13, 64, 112])
    def test_matches_full_product_reference(self, dim):
        rng = random.Random(dim)
        for k in range(6):
            c = random_invertible(rng, dim)
            x = dense_involution(rng, dim, rng.randint(1, dim // 2), c)
            # every other pair shares its conjugator, keeping the
            # permutation pair's (more degenerate) fingerprint
            cy = c if k % 2 else random_invertible(rng, dim)
            y = dense_involution(rng, dim, rng.randint(0, dim // 2), cy)
            assert fingerprint(x, y).as_tuple() == reference_fingerprint(x, y)

    @settings(max_examples=30, deadline=None)
    @given(perm_mats5)
    def test_conjugation_invariance(self, g):
        x = perm_matrix(parse_permutation("(0 1)", 5))
        y = perm_matrix(parse_permutation("(2 3)", 5))
        fp = fingerprint(x, y)
        assert fingerprint(x.conjugate_by(g), y.conjugate_by(g)) == fp

    @pytest.mark.parametrize("dim", [*range(1, 10), 112])
    @pytest.mark.parametrize("case", ["identity", "equal", "commuting"])
    def test_degenerate_pairs_match_reference(self, case, dim):
        # B = 0, K = A = B, and xy = yx, in both orders
        rng = random.Random(dim)
        for _ in range(3):
            c = random_invertible(rng, dim)
            x, y = commuting_involutions(rng, dim, c)
            if case == "identity":
                y = BitMatrix.identity(2, dim)
            elif case == "equal":
                y = x
            assert x * y == y * x
            for u, v in ((x, y), (y, x)):
                assert fingerprint(u, v).as_tuple() == reference_fingerprint(u, v)

    @pytest.mark.parametrize("dim", [4, 5, 8, 9, 112])
    def test_meets_of_k_not_nested(self, dim):
        # W meet K need not lie in U meet K, so d2 needs the last
        # elimination.  The smallest case is this dim-4 pair (xy of
        # order 4, not a permutation pair), here in dim // 4 block copies
        c = random_invertible(random.Random(dim), dim)
        copies = dim // 4

        def blocks(block):
            rows = [r << 4 * k for k in range(copies) for r in block]
            rows += [1 << i for i in range(4 * copies, dim)]
            return BitMatrix(2, dim, rows).conjugate_by(c)

        x, y = blocks((1, 2, 5, 10)), blocks((1, 3, 4, 8))
        for u, v in ((x, y), (y, x)):
            assert fingerprint(u, v).as_tuple() == reference_fingerprint(u, v)

    def test_insert_stops_after_stop_landings(self):
        # 3 reduces to 0 and does not count; the vector after the second
        # landing is left unread
        vectors = iter([1, 2, 3, 4, 8])
        pivots = [0] * 5
        assert matrep._insert(pivots, vectors, 0, 2) == 2
        assert (pivots, next(vectors)) == ([0, 1, 2, 0, 0], 3)
        assert matrep._insert(pivots, vectors, 0) == 2
        assert pivots == [0, 1, 2, 4, 8]

    def test_identity_pair(self):
        x = perm_matrix(parse_permutation("(0 1)", 5))
        fp = fingerprint(x, x)
        # 1-x and 1-y span the same space, and yxy = x
        assert fp.d1 == fp.d1p == fp.d2p


class TestCentralizerWords:
    def test_rejects_identity(self):
        i = BitMatrix.identity(2, 4)
        with pytest.raises(MatrixError):
            centralizer_generators(i, i)

    def test_rejects_non_commuting_result(self):
        a = perm_matrix(parse_permutation("(0 1)", 5))
        b = perm_matrix(parse_permutation("(0 1 2 3 4)", 5))
        with pytest.raises(MatrixError):
            centralizer_generators(a, b)


def naive_closure(seed, conjugators):
    """orbit_closure with every conjugate formed as h^-1 * m * h."""
    pairs = [(h, h.inverse()) for h in conjugators]
    order, seen, frontier = [seed], {seed}, [seed]
    while frontier:
        new = []
        for m in frontier:
            for h, hinv in pairs:
                c = hinv * m * h
                if c not in seen:
                    seen.add(c)
                    order.append(c)
                    new.append(c)
        frontier = new
    return order


class TestOrbitClosure:
    @pytest.mark.parametrize("dim, points", [(13, 13), (112, 8)])
    def test_matches_naive_closure(self, dim, points):
        # transpositions of S_points, made dense; dim 13 is not a
        # multiple of the 8-row table chunks
        c = random_invertible(random.Random(dim), dim)
        cycle = "(" + " ".join(map(str, range(points))) + ")"
        adjacent = [f"({i} {i + 1})" for i in range(points - 1)]
        # conjugator sets of mixed orders, all involutions, and none
        for words in (["(0 1)", cycle], adjacent, [cycle, "(0 1 2)"]):
            seed, *conj = (
                perm_matrix(parse_permutation(w, dim)).conjugate_by(c)
                for w in ("(0 1)", *words)
            )
            orbit = orbit_closure(seed, conj)
            assert len(orbit) == points * (points - 1) // 2
            assert orbit == naive_closure(seed, conj)

    # the 48-element suborbit of x = (0 1)(2 3)(4 5)(6 7) on the
    # fixed-point-free involutions of S8, under C(x) = C2 wr S4 as the
    # benchmark's stand-in lists it (two involutions and a block 4-cycle),
    # as (h, u, h^-1) and as (h, u), with no involution; |u| = |h| = 4
    WREATH = ["(0 1)", "(0 2)(1 3)", "(0 2 4 6)(1 3 5 7)"]
    PAIRED = ["(0 2 4 6)(1 3 5 7)", "(0 2 1 3)", "(0 6 4 2)(1 7 5 3)"]
    NO_INVOLUTION = ["(0 2 4 6)(1 3 5 7)", "(0 2 1 3)"]

    # images formed / images in the plain closure, and inverse() calls
    @pytest.mark.parametrize("words, images, inversions", [
        (WREATH, (96, 144), 1),
        (PAIRED, (98, 144), 3),
        (NO_INVOLUTION, (96, 96), 2),
    ], ids=["wreath", "paired", "no-involution"])
    def test_return_images_are_not_formed(self, monkeypatch, words, images,
                                          inversions):
        dim = 8
        c = random_invertible(random.Random(dim), dim)
        seed, *conj = (
            perm_matrix(parse_permutation(w, dim)).conjugate_by(c)
            for w in ("(1 2)(3 4)(5 6)(7 0)", *words)
        )
        plain = naive_closure(seed, conj)
        calls = {"times": 0, "inverse": 0}

        def counting(h):
            times = matrep._times(matrep._subset_xor_tables(h.rows))

            def counted(v):
                calls["times"] += 1
                return times(v)
            return counted

        inverse = BitMatrix.inverse

        def counted_inverse(m):
            calls["inverse"] += 1
            return inverse(m)

        monkeypatch.setattr(BitMatrix, "inverse", counted_inverse)
        orbit = [m for m, _ in matrep._orbit(seed, conj, list(map(counting, conj)))]
        monkeypatch.undo()
        assert orbit == plain == orbit_closure(seed, conj) and len(orbit) == 48
        # each conjugator's kernel maps its own rows once: the h h = 1 test
        formed = calls["times"] // dim - len(conj)
        assert (formed, len(orbit) * len(conj)) == images
        assert calls["inverse"] == inversions

    def test_streaming_holds_the_frontier_not_the_orbit(self):
        # 378 transpositions at dim 28: a streaming count keeps the queue
        # and packed keys, the list form every element
        dim = 28
        c = random_invertible(random.Random(dim), dim)
        cycle = "(" + " ".join(map(str, range(dim))) + ")"
        seed, *conj = (
            perm_matrix(parse_permutation(w, dim)).conjugate_by(c)
            for w in ("(0 1)", "(0 1)", cycle)
        )
        peaks = []
        for consume in (lambda: sum(1 for _ in matrep._orbit(seed, conj)),
                        lambda: len(orbit_closure(seed, conj))):
            tracemalloc.start()
            try:
                assert consume() == dim * (dim - 1) // 2
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        streaming, listed = peaks
        assert streaming < listed / 2

    def test_shape_mismatch(self):
        with pytest.raises(MatrixError):
            orbit_closure(BitMatrix.identity(2, 4), [BitMatrix.identity(2, 5)])

    def test_transposition_class_of_s5(self):
        seed = perm_matrix(parse_permutation("(0 1)", 5))
        conj = [
            perm_matrix(parse_permutation("(0 1)", 5)),
            perm_matrix(parse_permutation("(0 1 2 3 4)", 5)),
        ]
        orbit = orbit_closure(seed, conj)
        assert len(orbit) == 10
        # deterministic ordering
        assert [m.rows for m in orbit_closure(seed, conj)] == [
            m.rows for m in orbit
        ]


# ---------------------------------------------------------------------------
# cross-validation of the matrix-representation code path against the
# permutation code path, on S5 acting by conjugation on its 10
# transpositions (base involution (0 1), rank 3)


@pytest.fixture(scope="module")
def s5_setup():
    pairs = list(itertools.combinations(range(5), 2))

    def transposition(i, j):
        return Permutation.from_cycles([(i, j)], 5)

    def conj_index(t: Permutation, g: Permutation) -> int:
        image = g.inverse() * t * g
        moved = sorted(i for i in range(5) if image(i) != i)
        return pairs.index(tuple(moved))

    gens5 = [
        parse_permutation("(0 1)", 5),
        parse_permutation("(0 1 2 3 4)", 5),
    ]
    action = PermGroup(
        10,
        tuple(
            Permutation(
                tuple(
                    conj_index(transposition(*pairs[k]), g)
                    for k in range(10)
                )
            )
            for g in gens5
        ),
    )
    base = pairs.index((0, 1))
    dec = orbital_decomposition(action, base)

    # matrix-side data, aligned to the permutation-side suborbit order
    a = perm_matrix(transposition(0, 1))
    b = perm_matrix(gens5[1])
    candidates = [
        Permutation.identity(5),
        parse_permutation("(1 2)", 5),
        parse_permutation("(0 2)(1 3)", 5),
    ]
    reps: list = [None] * dec.rank
    suborbit_of = {}
    for idx, orb in enumerate(dec.suborbits):
        for x in orb:
            suborbit_of[x] = idx
    for g in candidates:
        j = suborbit_of[conj_index(transposition(0, 1), g)]
        reps[j] = perm_matrix(g)
    assert all(r is not None for r in reps)

    table = {}
    for j, r in enumerate(reps):
        fp = fingerprint(a, a.conjugate_by(r)).as_tuple()
        assert fp not in table, "fingerprints must separate the orbitals"
        table[fp] = j

    centralizer = [
        perm_matrix(parse_permutation("(0 1)", 5)),
        perm_matrix(parse_permutation("(2 3)", 5)),
        perm_matrix(parse_permutation("(2 3 4)", 5)),
    ]
    return action, dec, a, b, reps, table, centralizer


class TestMatrepCrossValidation:
    def test_rank_and_subdegrees(self, s5_setup):
        _, dec, *_ = s5_setup
        assert dec.subdegrees == (1, 3, 6)

    def test_collapsed_matrices_agree(self, s5_setup):
        action, dec, a, b, reps, table, centralizer = s5_setup
        for i in range(dec.rank):
            perm_side = collapsed_adjacency(action, dec, i)
            mat_side = collapsed_adjacency_matrep(
                a, b, reps, table, i, conjugators=centralizer
            )
            assert mat_side.matrix == perm_side.matrix

    def test_unknown_fingerprint_raises(self, s5_setup):
        action, dec, a, b, reps, table, centralizer = s5_setup
        partial = dict(list(table.items())[:1])
        with pytest.raises(UnknownOrbitalError):
            collapsed_adjacency_matrep(
                a, b, reps, partial, 1, conjugators=centralizer
            )

    @pytest.mark.parametrize("i", [-1, 3])
    def test_index_out_of_range_rejected(self, s5_setup, monkeypatch, i):
        _, dec, a, b, reps, table, centralizer = s5_setup
        assert len(reps) == dec.rank == 3

        def boom(*args):
            raise AssertionError("orbit closed before the index check")

        monkeypatch.setattr(matrep, "_orbit", boom)
        with pytest.raises(MatrixError, match="no orbital"):
            collapsed_adjacency_matrep(
                a, b, reps, table, i, conjugators=centralizer
            )

    def test_matrix_reps_skip_the_word_environment(self, s5_setup, monkeypatch):
        action, dec, a, b, reps, table, centralizer = s5_setup

        def boom(*args):
            raise AssertionError("standard_environment evaluated")

        monkeypatch.setattr(matrep, "standard_environment", boom)
        ca = collapsed_adjacency_matrep(a, b, reps, table, 1, conjugators=centralizer)
        assert ca.matrix == collapsed_adjacency(action, dec, 1).matrix

    def test_conjugator_outside_centralizer_rejected(self, s5_setup, monkeypatch):
        _, dec, a, b, reps, table, centralizer = s5_setup

        def boom(*args):
            raise AssertionError("orbit closed with a bad conjugator")

        monkeypatch.setattr(matrep, "_orbit", boom)
        # b, the 5-cycle, does not commute with a = (0 1)
        with pytest.raises(MatrixError, match="conjugator 3 does not commute with a"):
            collapsed_adjacency_matrep(
                a, b, reps, table, 1, conjugators=centralizer + [b]
            )

    def test_involution_checked_on_rows_only(self, s5_setup, monkeypatch):
        # orbit elements are conjugates of a, so the rows' checks cover them
        action, dec, a, b, reps, table, centralizer = s5_setup
        checked = []
        check = matrep._Involution.checked
        monkeypatch.setattr(
            matrep._Involution, "checked", lambda d: checked.append(d) or check(d)
        )
        ca = collapsed_adjacency_matrep(a, b, reps, table, 1, conjugators=centralizer)
        assert ca.matrix == collapsed_adjacency(action, dec, 1).matrix
        assert len(checked) == dec.rank
        c = perm_matrix(parse_permutation("(0 1 2)", 5))
        with pytest.raises(MatrixError, match="needs involutions"):
            collapsed_adjacency_matrep(c, b, reps, table, 1, conjugators=[c])

    @pytest.mark.parametrize("rep0", ["(2 3)", "(0 1)(2 3 4)"])
    def test_rep0_in_the_centralizer(self, s5_setup, rep0):
        action, dec, a, b, reps, table, centralizer = s5_setup
        reps = [perm_matrix(parse_permutation(rep0, 5)), *reps[1:]]
        for i in range(dec.rank):
            ca = collapsed_adjacency_matrep(a, b, reps, table, i, conjugators=centralizer)
            assert ca.matrix == collapsed_adjacency(action, dec, i).matrix

    def test_rep0_moving_a_rejected(self, s5_setup, monkeypatch):
        _, dec, a, b, reps, table, centralizer = s5_setup

        def boom(*args):
            raise AssertionError("orbit closed with a bad rep 0")

        monkeypatch.setattr(matrep, "_orbit", boom)
        reps = [perm_matrix(parse_permutation("(1 2)", 5)), *reps[1:]]
        with pytest.raises(MatrixError, match="representative 0"):
            collapsed_adjacency_matrep(a, b, reps, table, 1, conjugators=centralizer)

    def test_row0_from_one_pair(self, s5_setup, monkeypatch):
        # rows 1..rank-1 take one pair per orbit element, row 0 one in all
        action, dec, a, b, reps, table, centralizer = s5_setup
        pairs = []
        pair = matrep._fingerprint
        monkeypatch.setattr(
            matrep, "_fingerprint", lambda x, y: pairs.append(x) or pair(x, y)
        )
        for i, s in enumerate(dec.subdegrees):
            pairs.clear()
            ca = collapsed_adjacency_matrep(a, b, reps, table, i, conjugators=centralizer)
            assert ca.matrix == collapsed_adjacency(action, dec, i).matrix
            assert ca.matrix[0] == tuple(s * (k == i) for k in range(dec.rank))
            assert len(pairs) == 1 + (dec.rank - 1) * s

    def test_shape_mismatch_rejected(self, s5_setup):
        _, _, a, b, reps, table, centralizer = s5_setup
        six = BitMatrix.identity(2, 6)
        for reps, conj in (([*reps[:2], six], centralizer), (reps, [six])):
            with pytest.raises(MatrixError, match="shape mismatch"):
                collapsed_adjacency_matrep(a, b, reps, table, 1, conjugators=conj)

    def test_each_orbit_element_tabulated_once(self, s5_setup, monkeypatch):
        # no conjugator, representative or inverse is a transposition, so
        # the rows of an orbit element are tabulated only as that element
        # or as a row involution t a t^-1
        action, dec, a, b, _, table, _ = s5_setup
        conj = [
            perm_matrix(parse_permutation(w, 5))
            for w in ("(0 1)(2 3 4)", "(0 1)(2 3)")
        ]
        reps: list = [None] * dec.rank
        for g in (
            Permutation.identity(5),
            parse_permutation("(1 2 3)", 5),
            parse_permutation("(0 2)(1 3)", 5),
        ):
            t = perm_matrix(g)
            reps[table[fingerprint(a, a.conjugate_by(t)).as_tuple()]] = t
        row_rows = [(t * a * t.inverse()).rows for t in reps]
        tabulated = []
        tables = matrep._subset_xor_tables

        def record(rows):
            tabulated.append(tuple(rows))
            return tables(rows)

        for i in (1, 2):
            orbit = orbit_closure(a.conjugate_by(reps[i]), conj)
            tabulated.clear()
            monkeypatch.setattr(matrep, "_subset_xor_tables", record)
            ca = collapsed_adjacency_matrep(a, b, reps, table, i, conjugators=conj)
            monkeypatch.undo()
            assert ca.matrix == collapsed_adjacency(action, dec, i).matrix
            for m in orbit:
                assert tabulated.count(m.rows) == 1 + row_rows.count(m.rows)

    def test_dense_block_copies(self, s5_setup):
        # four copies of the 5-dim action (dim 20: the last table chunk
        # has 4 rows), every matrix conjugated by one dense matrix
        action, dec, a, b, reps, table, centralizer = s5_setup
        c = random_invertible(random.Random(20), 20)

        def dense(m):
            rows = [r << 5 * k for k in range(4) for r in m.rows]
            return BitMatrix(2, 20, rows).conjugate_by(c)

        a20, b20 = dense(a), dense(b)
        reps20 = [dense(r) for r in reps]
        conj20 = [dense(h) for h in centralizer]
        table20 = {
            fingerprint(a20, a20.conjugate_by(r)).as_tuple(): j
            for j, r in enumerate(reps20)
        }
        assert len(table20) == dec.rank
        for i in range(dec.rank):
            ca = collapsed_adjacency_matrep(
                a20, b20, reps20, table20, i, conjugators=conj20
            )
            assert ca.matrix == collapsed_adjacency(action, dec, i).matrix

    def test_word_reps(self, s5_setup):
        action, dec, a, b, reps, table, centralizer = s5_setup
        env = standard_environment(a, b)
        words = [None] * dec.rank
        for w in ("", "b", "b^2", "ab", "ba", "bab", "t", "c", "d"):
            fp = fingerprint(a, a.conjugate_by(eval_word(env, w))).as_tuple()
            if words[table[fp]] is None:
                words[table[fp]] = w
        assert None not in words
        for i in range(dec.rank):
            ca = collapsed_adjacency_matrep(a, b, words, table, i, conjugators=centralizer)
            assert ca.matrix == collapsed_adjacency(action, dec, i).matrix


def test_matrep_import_leaves_chartab_unloaded():
    # a fresh interpreter: `import synchro` loads no submodule, importing
    # matrep loads neither chartab nor mpmath, and `synchro.chartab` exists
    # only once chartab itself is imported
    src = str(Path(matrep.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import synchro; "
        "print([m for m in sys.modules if m.startswith('synchro.')]); "
        "import synchro.matrep; "
        "print('synchro.chartab' in sys.modules, 'mpmath' in sys.modules, "
        "hasattr(synchro, 'chartab')); "
        "import synchro.chartab; print(hasattr(synchro, 'chartab'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert out.stdout == "[]\nFalse False False\nTrue\n"
