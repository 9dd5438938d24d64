import functools
import hashlib
import itertools
import math

import pytest
from conftest import write_group_file
from hypothesis import given, strategies as st

from synchro import groups
from synchro.groups import (
    FiniteGroup,
    GroupFormatError,
    PermGroup,
    Permutation,
    SizeOverflowError,
    alternating_group,
    commutator_subgroup,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    direct_product,
    elementary_abelian_group,
    enumerate_elements,
    make_group,
    pair_action,
    parse_permutation,
    quaternion_group,
    read_group_file,
    regular_perm_group,
    sylow2_is_cyclic,
    symmetric_group,
    two_part,
)
from synchro.orbitals import orbital_decomposition


def swap_intercalate(table, r1, r2, c1, c2):
    """The table with its 2x2 Latin subsquare at rows r1, r2 and columns
    c1, c2 transposed: still a Latin square."""
    rows = [list(r) for r in table]
    rows[r1][c1], rows[r1][c2] = rows[r1][c2], rows[r1][c1]
    rows[r2][c1], rows[r2][c2] = rows[r2][c2], rows[r2][c1]
    return tuple(map(tuple, rows))


perms5 = st.permutations(range(5)).map(lambda xs: Permutation(tuple(xs)))


class TestPermutation:
    def test_composition_order(self):
        # p * q applies p first
        p = Permutation.from_cycles([(0, 1)], 3)
        q = Permutation.from_cycles([(1, 2)], 3)
        assert (p * q)(0) == 2

    def test_cycles_roundtrip(self):
        p = Permutation.from_cycles([(0, 3, 4), (1, 5)], 6)
        assert Permutation.from_cycles(p.cycles(), 6) == p

    @given(perms5)
    def test_inverse(self, p):
        assert p * p.inverse() == Permutation.identity(5)
        assert p.inverse() * p == Permutation.identity(5)

    @given(perms5, perms5, perms5)
    def test_associative(self, p, q, r):
        assert (p * q) * r == p * (q * r)

    def test_parse_cycles(self):
        p = parse_permutation("(0 1)(2 3)", degree=5)
        assert p.images == (1, 0, 3, 2, 4)

    def test_parse_rejects_garbage(self):
        # a point in two cycles: not a bijection
        with pytest.raises(GroupFormatError):
            parse_permutation("(0 1)(1 2)", 3)
        # an unclosed cycle, a repeated point, text between cycles
        for text in ["(0 1", "(0 0)", "(0 1)x(2 3)"]:
            with pytest.raises(GroupFormatError):
                parse_permutation(text, 4)


class TestClosure:
    def test_s3_from_generators(self):
        elements = enumerate_elements(
            PermGroup(3, (Permutation((1, 0, 2)), Permutation((1, 2, 0))))
        )
        assert len(elements) == len(set(elements)) == 6
        assert {x * y for x in elements for y in elements} == set(elements)

    def test_identity_is_index_zero(self):
        elements = enumerate_elements(PermGroup(4, (Permutation((1, 2, 3, 0)),)))
        assert elements[0] == Permutation.identity(4)
        assert len(elements) == 4

    def test_enumeration_order_matches_closure(self):
        pg = PermGroup(
            4, (Permutation((1, 0, 2, 3)), Permutation((1, 2, 3, 0)))
        )
        elements = enumerate_elements(pg)
        assert elements[0] == Permutation.identity(4)
        assert elements[1:3] == list(pg.generators)
        assert len(set(elements)) == 24
        # breadth first: each element is a product of one generator with
        # an element listed earlier
        for k, y in enumerate(elements[1:], 1):
            assert any(
                elements.index(y * gen.inverse()) < k for gen in pg.generators
            )

    def test_cap(self):
        with pytest.raises(SizeOverflowError):
            enumerate_elements(
                PermGroup(5, (Permutation((1, 0, 2, 3, 4)),
                              Permutation((1, 2, 3, 4, 0)))),
                cap=10,
            )


class TestCatalog:
    @pytest.mark.parametrize(
        "g,order",
        [
            (cyclic_group(6), 6),
            (dihedral_group(8), 8),
            (symmetric_group(4), 24),
            (alternating_group(4), 12),
            (alternating_group(5), 60),
            (quaternion_group(), 8),
            (elementary_abelian_group(2, 3), 8),
            (direct_product(cyclic_group(2), cyclic_group(3)), 6),
        ],
    )
    def test_orders(self, g, order):
        assert g.order == order

    def test_axioms_across_catalog(self, small_catalog):
        for spec, g in small_catalog:
            if g.order <= 24:
                g.check_axioms()

    @pytest.mark.parametrize("spec", ["z6", "s3", "d8", "q8", "a4", "z2 x s3"])
    def test_light_agrees_with_brute_force(self, spec):
        # every intercalate swap of the table: Light's verdict against
        # the triple loop
        g = make_group(spec)
        n, t = g.order, g.table
        for r1, r2 in itertools.combinations(range(n), 2):
            for c1, c2 in itertools.combinations(range(n), 2):
                if (t[r1][c1], t[r1][c2]) != (t[r2][c2], t[r2][c1]):
                    continue
                loop = swap_intercalate(t, r1, r2, c1, c2)
                brute = all(
                    loop[loop[a][b]][c] == loop[a][loop[b][c]]
                    for a, b, c in itertools.product(range(n), repeat=3)
                ) and all(loop[0][a] == loop[a][0] == a for a in range(n))
                try:
                    FiniteGroup(n, loop, ()).check_axioms()
                    light = True
                except GroupFormatError:
                    light = False
                assert light == brute, (spec, r1, r2, c1, c2)

    def test_inverses(self, small_catalog):
        for spec, g in small_catalog:
            for a in range(g.order):
                assert g.mul(a, g.inv(a)) == g.identity, spec
            assert g.inverses == tuple(map(g.inv, range(g.order))), spec

    def test_missing_inverse_rejected(self):
        # a row without the identity: reported on every read, never cached
        g = FiniteGroup(2, ((0, 1), (1, 1)), (1,))
        for _ in range(2):
            with pytest.raises(GroupFormatError, match="element 1"):
                g.inv(0)

    def test_dihedral_nonabelian(self):
        def abelian(g):
            return all(
                g.mul(a, b) == g.mul(b, a)
                for a in range(g.order)
                for b in range(a)
            )

        assert not abelian(dihedral_group(8))
        assert abelian(dihedral_group(4))

    def test_quaternion_unique_involution(self):
        q = quaternion_group()
        assert sum(q.element_order(a) == 2 for a in range(8)) == 1

    @pytest.mark.parametrize(
        "spec,order",
        [
            ("z5", 5), ("c5", 5), ("d10", 10), ("s3", 6), ("a4", 12),
            ("klein", 4), ("v4", 4), ("q8", 8), ("elementary 3 2", 9),
            ("z2 x z2 x z2", 8), ("cyclic 5", 5), ("dihedral 8", 8),
            ("symmetric 3", 6), ("alternating 4", 12), ("quaternion8", 8),
            ("Z5", 5), ("cyclic  5", 5),
        ],
    )
    def test_make_group_descriptors(self, spec, order):
        assert make_group(spec).order == order

    def test_long_and_short_forms_agree(self):
        for long, short in [("cyclic 5", "z5"), ("dihedral 8", "d8"),
                            ("symmetric 3", "s3"), ("alternating 4", "a4"),
                            ("quaternion8", "q8"), ("klein", "v4")]:
            assert make_group(long) == make_group(short)

    @pytest.mark.parametrize(
        "spec",
        ["s8", "a8", "z3163", "d3164", "elementary 2 12", "z60 x z60",
         "z100000000", "s1000000000", "a1000000000", "elementary 2 1000000000",
         "elementary 1000003 1"],
    )
    def test_table_bound(self, spec):
        # refused from the order alone, before any element is built
        with pytest.raises(GroupFormatError, match="table would exceed"):
            make_group(spec)

    @pytest.mark.parametrize(
        "spec", ["z1500 x z1500", "a7 x z2", "klein x s6 x d4"]
    )
    def test_product_bound_before_any_factor_is_built(self, spec, monkeypatch):
        # each factor passes the bound alone; their product does not
        def build(*args):
            raise AssertionError("a factor's table was built")

        monkeypatch.setattr(groups, "_from_elements", build)
        with pytest.raises(GroupFormatError, match="table would exceed"):
            make_group(spec)

    @pytest.mark.parametrize(
        "spec", ["elementary 2 -1", "elementary 1" + "0" * 400 + " -1"],
        ids=["p=2", "p=10^400"],
    )
    def test_negative_elementary_rank(self, spec):
        with pytest.raises(GroupFormatError, match="rank"):
            make_group(spec)

    def test_make_group_rejects_unknown(self):
        with pytest.raises(GroupFormatError):
            make_group("monster")


def all_pairs(elements, mul, gens):
    """(table, generators, identity) with every product taken through the
    family's own arithmetic: the reference `_from_elements` is held to."""
    index = {e: i for i, e in enumerate(elements)}
    table = tuple(tuple(index[mul(a, b)] for b in elements) for a in elements)
    return table, tuple(sorted(index[s] for s in gens)), 0


def ref_cyclic(n):
    return all_pairs(range(n), lambda a, b: (a + b) % n, [1 % n] * (n > 1))


def ref_dihedral(order):
    n = order // 2
    elements = [(i, s) for i in range(n) for s in (0, 1)]

    def mul(a, b):
        (i, s), (j, t) = a, b
        return ((i - j) % n if s else (i + j) % n, s ^ t)

    return all_pairs(elements, mul, [(1 % n, 0), (0, 1)])


def ref_permutations(n, even):
    elements = [Permutation(p) for p in itertools.permutations(range(n))]
    # an n-cycle, or for A_n with n even the (n-1)-cycle on 1..n-1
    start = int(even and n % 2 == 0)
    long_cycle = "(" + " ".join(map(str, range(start, n))) + ")"
    if even:
        elements = [
            p for p in elements if sum(len(c) - 1 for c in p.cycles()) % 2 == 0
        ]
        cycles = ["(0 1 2)", long_cycle][: max(n - 2, 0)]
    else:
        cycles = ["(0 1)", long_cycle][: max(n - 1, 0)]
    gens = [parse_permutation(c, n) for c in cycles]
    return all_pairs(elements, lambda a, b: a * b, gens)


def ref_elementary(p, k):
    elements = list(itertools.product(range(p), repeat=k))
    gens = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    return all_pairs(
        elements, lambda a, b: tuple((x + y) % p for x, y in zip(a, b)), gens
    )


def ref_quaternion():
    # Hamilton's product on coefficient 4-tuples (1, i, j, k)
    def mul(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    units = [tuple(int(i == axis) for i in range(4)) for axis in range(4)]
    elements = [tuple(sign * x for x in u) for u in units for sign in (1, -1)]
    return all_pairs(elements, mul, [units[1], units[2]])


def ref_product(g, h):
    (gt, gg, ge), (ht, hg, he) = g, h
    elements = sorted(
        ((a, b) for a in range(len(gt)) for b in range(len(ht))),
        key=lambda e: (e != (ge, he), e[0] + e[1], e[0]),
    )
    gens = [(a, he) for a in gg] + [(ge, b) for b in hg]
    return all_pairs(
        elements, lambda x, y: (gt[x[0]][y[0]], ht[x[1]][y[1]]), gens
    )


REFERENCES = {
    **{f"z{n}": functools.partial(ref_cyclic, n) for n in range(1, 31)},
    **{f"d{n}": functools.partial(ref_dihedral, n) for n in range(2, 41, 2)},
    **{f"s{n}": functools.partial(ref_permutations, n, False)
       for n in range(1, 6)},
    **{f"a{n}": functools.partial(ref_permutations, n, True)
       for n in range(1, 7)},
    **{f"elementary 2 {k}": functools.partial(ref_elementary, 2, k)
       for k in range(1, 7)},
    **{f"elementary 3 {k}": functools.partial(ref_elementary, 3, k)
       for k in range(1, 4)},
    "klein": functools.partial(ref_elementary, 2, 2),
    "q8": ref_quaternion,
}


class TestTableOracle:
    """Every catalog table against the all-pairs reference, and the tables
    too large for it against sha256 goldens of the all-pairs tables."""

    @pytest.mark.parametrize("spec", list(REFERENCES))
    def test_catalog_matches_all_pairs(self, spec):
        g = make_group(spec)
        assert (g.table, g.generators, g.identity) == REFERENCES[spec]()

    @pytest.mark.parametrize(
        "spec",
        ["z2 x s3", "s3 x z2", "q8 x klein", "a4 x z3 x d4", "d6 x a1",
         "FILE x z4", "z2 x FILE", "FILE x FILE", "q8 x FILE x elementary 3 1"],
    )
    def test_products_match_all_pairs(self, spec, tmp_path):
        # the file holds s3 relabelled so that its identity is element 5
        # and its generators are the ones its associativity check found
        s3 = REFERENCES["s3"]()[0]
        table = [[5 - s3[5 - a][5 - b] for b in range(6)] for a in range(6)]
        path = tmp_path / "s3.grp"
        write_group_file(FiniteGroup(6, table, ()), path)
        f = read_group_file(path)
        assert f.identity == 5
        factors = [
            (f.table, f.generators, f.identity) if name == "FILE"
            else REFERENCES[name]()
            for name in spec.split(" x ")
        ]
        g = make_group(spec.replace("FILE", str(path)))
        want = functools.reduce(ref_product, factors)
        assert (g.table, g.generators, g.identity) == want

    # sha256 of repr((table, generators)), as the all-pairs build made them
    GOLDENS = {
        "s6": "eddfb0b74aee85e047ff55f79a1d47b408567cc5d85ea28f1dd6950534307ecb",
        "a6": "a4df26cbd17d91ec22be2c3c22db08b527c6428abc4c51e4ca4f91ce3e6fbb6f",
        "z2 x s5":
            "4a556c463cb9de19a3d9700b03cc9c2a496ad1da5724d8a466d9f203275af472",
        "elementary 3 7":
            "bd6bdb360c7e5108076f2735fbb6e50a9252bbbdb6dbd1aa9a3bed3c5b3d69c8",
    }

    @pytest.mark.parametrize("spec", list(GOLDENS))
    def test_golden_tables(self, spec):
        g = make_group(spec)
        got = hashlib.sha256(repr((g.table, g.generators)).encode())
        assert got.hexdigest() == self.GOLDENS[spec]

    def test_generators_that_miss_an_element(self):
        add = lambda a, b: (a + b) % 4  # noqa: E731
        with pytest.raises(GroupFormatError, match="reach 2 of 4"):
            groups._from_elements(list(range(4)), add, [2])
        with pytest.raises(GroupFormatError, match="reach 1 of 4"):
            groups._from_elements(list(range(4)), add, [])

    def test_element_0_must_be_the_identity(self):
        # z3 listed from 1: every table entry is defined, but 1 + 1 != 1
        with pytest.raises(GroupFormatError, match="not the identity"):
            groups._from_elements([1, 0, 2], lambda a, b: (a + b) % 3, [1])


class TestConjugacyClasses:
    def test_s3(self):
        c = conjugacy_classes(make_group("s3"))
        assert c.sizes == (1, 3, 2)

    def test_s4(self):
        c = conjugacy_classes(symmetric_group(4))
        assert sorted(c.sizes) == [1, 3, 6, 6, 8]
        # ordered by element order first
        g = symmetric_group(4)
        orders = [g.element_order(r) for r in c.representatives]
        assert orders == sorted(orders)

    def test_sizes_partition_group(self, small_catalog):
        for spec, g in small_catalog:
            c = conjugacy_classes(g)
            assert sum(c.sizes) == g.order
            assert all(g.order % s == 0 for s in c.sizes)


class TestSylow:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("z2", True),
            ("z4", True),
            ("z6", True),
            ("z12", True),
            ("s3", True),
            ("d10", True),
            ("z3", False),
            ("z9", False),
            ("klein", False),
            ("d8", False),
            ("q8", False),
            ("a4", False),
            ("s4", False),
        ],
    )
    def test_known_cases(self, spec, expected):
        assert sylow2_is_cyclic(make_group(spec)) is expected

    def test_two_part(self):
        assert two_part(1) == 1
        assert two_part(48) == 16
        assert two_part(37) == 1


def all_pairs_commutator_subgroup(g):
    """Oracle: the subgroup generated by every commutator [a, b]."""
    gens = {
        g.mul(g.mul(g.inv(a), g.inv(b)), g.mul(a, b))
        for a in range(g.order)
        for b in range(a)
    }
    closed, frontier = {g.identity}, [g.identity]
    while frontier:
        x = frontier.pop()
        for s in gens:
            y = g.mul(x, s)
            if y not in closed:
                closed.add(y)
                frontier.append(y)
    return frozenset(closed)


class TestDerivedSubgroup:
    def test_abelian_trivial(self):
        g = cyclic_group(12)
        assert commutator_subgroup(g) == frozenset({g.identity})

    def test_s3_derived_is_a3(self):
        g = make_group("s3")
        d = commutator_subgroup(g)
        assert len(d) == 3
        assert all(g.element_order(x) in (1, 3) for x in d)

    def test_perfect_group(self):
        a5 = alternating_group(5)
        assert len(commutator_subgroup(a5)) == 60

    def test_matches_all_pairs_oracle(self, small_catalog, a5):
        extra = [(s, make_group(s)) for s in ("s5", "q8 x z3", "z2 x a4")]
        for spec, g in [*small_catalog, ("a5", a5), *extra]:
            assert commutator_subgroup(g) == all_pairs_commutator_subgroup(
                g
            ), spec

    def test_generator_less_table_file(self, tmp_path):
        # the file names no generators; the group keeps the greedy set
        # its associativity check verified
        path = tmp_path / "s4.grp"
        write_group_file(make_group("s4"), path)
        g = read_group_file(path)
        assert len(g.generators) <= math.log2(g.order)
        assert len(enumerate_elements(regular_perm_group(g))) == g.order
        d = commutator_subgroup(g)
        assert len(d) == 12
        assert d == all_pairs_commutator_subgroup(g)

    def test_products_are_few_on_an_abelian_group(self, monkeypatch):
        # the normal closure of one generator's commutators, not the
        # order^2 / 2 commutators of every pair
        g = cyclic_group(1500)
        calls = []
        real = FiniteGroup.mul

        def counted(self, a, b):
            calls.append(None)
            return real(self, a, b)

        monkeypatch.setattr(FiniteGroup, "mul", counted)
        assert commutator_subgroup(g) == frozenset({g.identity})
        assert len(calls) < 1500


class TestActions:
    def test_regular_action_is_transitive_and_faithful(self):
        g = make_group("d8")
        pg = regular_perm_group(g)
        elems = enumerate_elements(pg)
        assert len(elems) == 8
        assert sorted(p(0) for p in elems) == list(range(8))

    def test_orbit_stabilizer(self):
        s4 = PermGroup(
            4,
            (
                Permutation((1, 0, 2, 3)),
                Permutation((1, 2, 3, 0)),
            ),
        )
        dec = orbital_decomposition(s4, 0)
        assert sorted(x for orb in dec.suborbits for x in orb) == [0, 1, 2, 3]
        assert dec.suborbits == ((0,), (1, 2, 3))
        assert all(
            t(0) == orb[0] for t, orb in zip(dec.transversal, dec.suborbits)
        )
        assert sum(p(0) == 0 for p in enumerate_elements(s4)) == 6

    def test_pair_action_degree(self):
        s4 = PermGroup(
            4,
            (
                Permutation((1, 0, 2, 3)),
                Permutation((1, 2, 3, 0)),
            ),
        )
        action, pairs = pair_action(s4)
        assert action.degree == 6
        assert len(pairs) == 6
        assert pairs == sorted(pairs)


class TestGroupFiles:
    def test_roundtrip(self, tmp_path):
        g = make_group("d8")
        path = tmp_path / "d8.grp"
        rows = [" ".join(map(str, row)) for row in g.table]
        labels = [f"g{a}" for a in range(g.order)]
        path.write_text("\n".join(
            [f"order {g.order}", *rows, "labels", " ".join(labels)]
        ) + "\n")
        h = read_group_file(path)
        assert (h.order, h.table, h.identity) == (g.order, g.table, g.identity)

    def test_trivial_group_has_empty_generators(self, tmp_path):
        path = tmp_path / "z1.grp"
        path.write_text("order 1\n0\n")
        for g in (cyclic_group(1), read_group_file(path)):
            assert g.generators == ()
            assert regular_perm_group(g).generators == ()
            assert commutator_subgroup(g) == frozenset({0})

    @pytest.mark.parametrize("spec", ["z400", "elementary 2 8"])
    def test_file_group_acts_by_at_most_log2_generators(self, tmp_path, spec):
        # each greedy generator at least doubles the subgroup reached
        g = make_group(spec)
        path = tmp_path / "g.grp"
        write_group_file(g, path)
        h = read_group_file(path)
        assert len(regular_perm_group(h).generators) <= math.log2(g.order)
        assert len(enumerate_elements(regular_perm_group(h))) == g.order

    Z3 = "order 3\n0 1 2\n1 2 0\n2 0 1\n"

    @pytest.mark.parametrize(
        "text,match",
        [
            pytest.param(Z3 + "labels\ne a\n", "3 labels", id="two-labels"),
            pytest.param(Z3 + "labels e a b c", "3 labels", id="four-labels"),
            pytest.param(Z3 + "names\ne a b\n", "trailer", id="not-labels"),
            pytest.param(Z3 + "0", "trailer", id="extra-entry"),
            pytest.param(Z3[:-3], "truncated", id="truncated"),
            pytest.param(Z3[:-2] + "x", "invalid literal", id="non-integer"),
            pytest.param("order\n", "bad order", id="no-order"),
            pytest.param("order 0\n", "order must be", id="order-0"),
            pytest.param("orderly 1\n0\n", "header", id="orderly"),
            # the order alone refuses a table past the bound
            pytest.param("order 3163\n0\n", "table would exceed",
                         id="order-3163"),
            pytest.param("order 3162\n0\n", "truncated", id="order-3162"),
        ],
    )
    def test_malformed_file_rejected(self, tmp_path, text, match):
        path = tmp_path / "bad.grp"
        path.write_text(text)
        with pytest.raises(GroupFormatError, match=match):
            read_group_file(path)

    def test_tokens_may_span_lines(self, tmp_path):
        path = tmp_path / "z3.grp"
        path.write_text("order\n3 0 1\n2 1 2 0 2\n0 1 labels e\na b")
        assert read_group_file(path).table == cyclic_group(3).table

    def test_bad_table_rejected(self, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("order 2\n0 1\n1 2\n")
        with pytest.raises(GroupFormatError):
            read_group_file(path)

    def test_non_latin_table_rejected_above_associativity_cap(
        self, tmp_path
    ):
        # z1001 with one repeated entry in row 5: identity and inverses
        # survive, and the Latin check runs first
        n = 1001
        rows = [[(a + b) % n for b in range(n)] for a in range(n)]
        rows[5][7] = rows[5][8]
        path = tmp_path / "z1001_bad.grp"
        path.write_text(
            f"order {n}\n" + "\n".join(" ".join(map(str, r)) for r in rows)
        )
        with pytest.raises(GroupFormatError, match="Latin"):
            read_group_file(path)

    def test_non_associative_loop_rejected_above_1000(self, tmp_path):
        # z1002 with the intercalate at rows/columns 1 and 502 swapped: a
        # Latin square with identity 0, so only associativity rejects it
        n = 1002
        table = cyclic_group(n).table
        rows = swap_intercalate(table, 1, 502, 1, 502)
        path = tmp_path / "loop1002.grp"
        path.write_text(
            f"order {n}\n" + "\n".join(" ".join(map(str, r)) for r in rows)
        )
        with pytest.raises(GroupFormatError, match="associativity fails"):
            read_group_file(path)

    def test_latin_check_on_columns(self):
        g = FiniteGroup(2, ((0, 1), (0, 1)), (1,))
        with pytest.raises(GroupFormatError, match="column 0"):
            g.check_latin()
        cyclic_group(5).check_latin()

    def test_make_group_from_file(self, tmp_path):
        path = tmp_path / "z3.grp"
        path.write_text("order 3\n0 1 2\n1 2 0\n2 0 1\nlabels\ne a b\n")
        g = make_group(str(path))
        assert g.table == cyclic_group(3).table
        assert not hasattr(g, "labels")


def test_element_order_divides_group_order(small_catalog):
    for spec, g in small_catalog:
        for a in range(g.order):
            assert g.order % g.element_order(a) == 0


def test_lagrange_for_cyclic_subgroups(small_catalog):
    for spec, g in small_catalog:
        assert math.lcm(*(g.element_order(a) for a in range(g.order))) <= g.order
