import itertools
import math
from collections import Counter

import pytest

from synchro import reproduce
from synchro.groups import (
    PermGroup,
    Permutation,
    enumerate_elements,
    make_group,
    pair_action,
    parse_permutation,
    regular_perm_group,
)
from synchro.orbitals import (
    CollapsedAdjacency,
    OrbitalDecomposition,
    OrbitalError,
    collapsed_adjacency,
    intersection_algebra_expand,
    orbital_decomposition,
    wilcox_check,
)


def a5_natural() -> PermGroup:
    return PermGroup(
        5,
        (
            parse_permutation("(0 1 2)", 5),
            parse_permutation("(0 1 2 3 4)", 5),
        ),
    )


@pytest.fixture(scope="module")
def a5_pairs():
    action, pairs = pair_action(a5_natural())
    return action, pairs


@pytest.fixture(scope="module")
def a5_pairs_decomposition(a5_pairs):
    action, _ = a5_pairs
    return action, orbital_decomposition(action, 0)


class TestDecomposition:
    def test_subdegrees(self, a5_pairs_decomposition):
        _, dec = a5_pairs_decomposition
        assert dec.subdegrees == (1, 3, 6)
        assert dec.rank == 3

    def test_pairing_is_identity(self, a5_pairs_decomposition):
        _, dec = a5_pairs_decomposition
        assert dec.pairing == (0, 1, 2)

    def test_base_suborbit_first(self, a5_pairs_decomposition):
        _, dec = a5_pairs_decomposition
        assert dec.suborbits[0] == (0,)

    def test_transversal_reaches_suborbits(self, a5_pairs_decomposition):
        _, dec = a5_pairs_decomposition
        for i, rep in enumerate(dec.transversal):
            assert rep(0) in dec.suborbits[i]

    def test_intransitive_rejected(self):
        g = PermGroup(4, (Permutation((1, 0, 2, 3)),))
        with pytest.raises(OrbitalError):
            orbital_decomposition(g, 0)


def petersen_oracle(action, pairs, dec):
    """Brute-force path counting on the 10-vertex disjointness graph,
    independent of the collapsed-adjacency code path."""
    edges = {
        (u, v)
        for u in range(10)
        for v in range(10)
        if not (set(pairs[u]) & set(pairs[v]))
    }
    suborbit_of = {}
    for i, orb in enumerate(dec.suborbits):
        for x in orb:
            suborbit_of[x] = i
    matrix = []
    for j in range(3):
        w = dec.suborbits[j][0]
        row = [0, 0, 0]
        for z in range(10):
            if (w, z) in edges:
                row[suborbit_of[z]] += 1
        matrix.append(tuple(row))
    return tuple(matrix)


class TestCollapsedAdjacency:
    def test_first_matrix_is_identity(self, a5_pairs_decomposition):
        action, dec = a5_pairs_decomposition
        a1 = collapsed_adjacency(action, dec, 0)
        assert a1.matrix == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_valency_three_matrix(self, a5_pairs_decomposition):
        action, dec = a5_pairs_decomposition
        a2 = collapsed_adjacency(action, dec, 1)
        assert a2.matrix == ((0, 3, 0), (1, 0, 2), (0, 1, 2))

    def test_against_path_counting_oracle(self, a5_pairs, a5_pairs_decomposition):
        action, pairs = a5_pairs
        _, dec = a5_pairs_decomposition
        a2 = collapsed_adjacency(action, dec, 1)
        oracle = petersen_oracle(action, pairs, dec)
        # the oracle counts neighbours of a suborbit representative;
        # both describe the disjointness orbital
        assert a2.matrix == oracle

    def test_row_sums_equal_subdegree(self, a5_pairs_decomposition):
        action, dec = a5_pairs_decomposition
        for i in range(dec.rank):
            m = collapsed_adjacency(action, dec, i)
            for row in m.matrix:
                assert sum(row) == dec.subdegrees[i]

    @pytest.mark.parametrize("i", [-1, 3])
    def test_index_out_of_range_rejected(self, a5_pairs_decomposition, i):
        # -1 would otherwise wrap round to the last orbital
        action, dec = a5_pairs_decomposition
        assert dec.rank == 3
        with pytest.raises(OrbitalError, match="no orbital"):
            collapsed_adjacency(action, dec, i)


FIXTURE_ACTIONS = [
    ("z5 regular", lambda: regular_perm_group(make_group("z5"))),
    ("z6 regular", lambda: regular_perm_group(make_group("z6"))),
    ("s3 regular", lambda: regular_perm_group(make_group("s3"))),
    ("d8 regular", lambda: regular_perm_group(make_group("d8"))),
    ("q8 regular", lambda: regular_perm_group(make_group("q8"))),
    ("a4 regular", lambda: regular_perm_group(make_group("a4"))),
    (
        "s4 natural",
        lambda: PermGroup(
            4,
            (
                parse_permutation("(0 1)", 4),
                parse_permutation("(0 1 2 3)", 4),
            ),
        ),
    ),
    ("s4 pairs", lambda: pair_action(
        PermGroup(
            4,
            (
                parse_permutation("(0 1)", 4),
                parse_permutation("(0 1 2 3)", 4),
            ),
        )
    )[0]),
    ("a5 natural", a5_natural),
    ("a5 pairs", lambda: pair_action(a5_natural())[0]),
]


@pytest.mark.parametrize("name,build", FIXTURE_ACTIONS)
def test_invariants_across_fixture_actions(name, build):
    action = build()
    dec = orbital_decomposition(action, 0)
    assert sum(dec.subdegrees) == action.degree
    # pairing is an involution and pairs equal-sized suborbits
    for i, j in enumerate(dec.pairing):
        assert dec.pairing[j] == i
        assert dec.subdegrees[i] == dec.subdegrees[j]
    # the point -> suborbit map agrees with the suborbits it indexes
    assert len(dec.suborbit_of) == action.degree
    for k, orb in enumerate(dec.suborbits):
        for x in orb:
            assert dec.suborbit_of[x] == k
    for i in range(dec.rank):
        m = collapsed_adjacency(action, dec, i)
        for row in m.matrix:
            assert sum(row) == dec.subdegrees[i]


@pytest.mark.parametrize(
    "build",
    [
        lambda: regular_perm_group(make_group("z12")),
        lambda: pair_action(a5_natural())[0],
    ],
    ids=["z12 regular", "a5 pairs"],
)
def test_collapsed_adjacency_reads_no_subdegrees(monkeypatch, build):
    # each row counts every point of suborbit i once, so its sum is the
    # subdegree by construction and is not recomputed per row
    action = build()
    dec = orbital_decomposition(action, 0)
    expected = [collapsed_adjacency(action, dec, i) for i in range(dec.rank)]

    def boom(self):
        raise AssertionError("subdegrees read")

    monkeypatch.setattr(OrbitalDecomposition, "subdegrees", property(boom))
    got = [collapsed_adjacency(action, dec, i) for i in range(dec.rank)]
    assert got == expected


def brute_force_orbitals(action, base):
    """Suborbits and pairing from the full element list: the orbits of
    the elements fixing the base, and for suborbit x the suborbit
    holding h(base) for any element h with h(x) = base."""
    elements = enumerate_elements(action)
    stab = [p for p in elements if p(base) == base]
    orbits = {frozenset(p(x) for p in stab) for x in range(action.degree)}
    raw = sorted(
        (sorted(o) for o in orbits),
        key=lambda o: (o != [base], len(o), o[0]),
    )
    index = {x: i for i, o in enumerate(raw) for x in o}
    pairing = [
        index[next(h(base) for h in elements if h(o[0]) == base)]
        for o in raw
    ]
    return tuple(map(tuple, raw)), tuple(pairing)


@pytest.mark.parametrize("name,build", FIXTURE_ACTIONS)
def test_decomposition_matches_brute_force_at_every_base(name, build):
    action = build()
    for base in range(action.degree):
        dec = orbital_decomposition(action, base)
        assert dec.base == base
        oracle = brute_force_orbitals(action, base)
        assert (dec.suborbits, dec.pairing) == oracle
        for orb, t in zip(dec.suborbits, dec.transversal):
            assert t(base) == orb[0]


def symmetric_natural(n) -> PermGroup:
    return PermGroup(
        n,
        (
            parse_permutation("(0 1)", n),
            Permutation(tuple(range(1, n)) + (0,)),
        ),
    )


def test_s10_on_pairs_needs_no_element_list():
    # |S10| = 3 628 800 is past every closure cap; the Schreier search
    # never lists the group
    action, _ = pair_action(symmetric_natural(10))
    dec = orbital_decomposition(action, 0)
    assert dec.subdegrees == (1, 16, 28)
    assert dec.pairing == (0, 1, 2)
    for i in range(dec.rank):
        for row in collapsed_adjacency(action, dec, i).matrix:
            assert sum(row) == dec.subdegrees[i]


def test_decomposition_forms_no_permutation_product(monkeypatch):
    # the Schreier generators are streamed into the union-find as image
    # pairs; none is formed as a product of permutations
    action, _ = pair_action(symmetric_natural(5))
    expected = orbital_decomposition(action, 0)

    def boom(self, other):
        raise AssertionError("Permutation product formed")

    monkeypatch.setattr(Permutation, "__mul__", boom)
    assert orbital_decomposition(action, 0) == expected
    assert expected.subdegrees == (1, 3, 6)


def test_triangular_graph_closed_form():
    # S_n on pairs is the triangular graph T(n), strongly regular with
    # parameters (C(n,2), 2(n-2), n-2, 4)
    n = 20
    action, _ = pair_action(symmetric_natural(n))
    assert action.degree == math.comb(n, 2)
    dec = orbital_decomposition(action, 0)
    assert dec.subdegrees == (1, 2 * (n - 2), math.comb(n - 2, 2))
    assert dec.pairing == (0, 1, 2)
    assert collapsed_adjacency(action, dec, 1).matrix == (
        (0, 2 * (n - 2), 0),
        (1, n - 2, n - 3),
        (0, 4, 2 * n - 8),
    )


class TestIntersectionAlgebra:
    def test_recovers_all_matrices_for_petersen_action(
        self, a5_pairs_decomposition
    ):
        action, dec = a5_pairs_decomposition
        mats = [collapsed_adjacency(action, dec, i) for i in range(3)]
        recovered = intersection_algebra_expand(mats[1], mats[1], 3)
        for want, got in zip(mats, recovered):
            assert got.matrix == want.matrix

    @pytest.mark.parametrize("spec", ["s3", "q8", "d8", "a4", "s4"])
    def test_recovers_a_non_commutative_regular_algebra(self, spec):
        # in a regular action each suborbit is one point, so the matrices
        # of the two generators span the group algebra, which does not
        # commute: only left products are formed, in either order
        action = regular_perm_group(make_group(spec))
        dec = orbital_decomposition(action, 0)
        mats = [
            collapsed_adjacency(action, dec, i).matrix for i in range(dec.rank)
        ]
        p, q = (dec.suborbit_of[s(0)] for s in action.generators)

        def product(x, y):
            return [[sum(map(math.prod, zip(r, c))) for c in zip(*y)] for r in x]

        assert product(mats[p], mats[q]) != product(mats[q], mats[p])
        for a, b in ((p, q), (q, p)):
            got = intersection_algebra_expand(mats[a], mats[b], dec.rank)
            assert [ca.matrix for ca in got] == mats

    def test_wrong_rank_rejected(self, a5_pairs_decomposition):
        action, dec = a5_pairs_decomposition
        mats = [collapsed_adjacency(action, dec, i) for i in range(3)]
        with pytest.raises(OrbitalError):
            intersection_algebra_expand(mats[1], mats[2], 4)

    def test_algebra_larger_than_rank_rejected(self):
        # two transposition matrices: first rows and columns look like
        # collapsed matrices and their first rows already span rank 3,
        # but they generate the 5-dimensional algebra of S3 acting on 3
        # points, so only the structure-constant products can reject them
        swap01 = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
        swap02 = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        with pytest.raises(OrbitalError, match="does not expand"):
            intersection_algebra_expand(swap01, swap02, 3)

    def test_degenerate_input_rejected(self):
        ident = tuple(
            tuple(1 if i == j else 0 for j in range(3)) for i in range(3)
        )
        with pytest.raises(OrbitalError):
            intersection_algebra_expand(ident, ident, 3)


@pytest.fixture(scope="module")
def rank20_fixture():
    a2 = reproduce.printed_matrix("A2")
    a4 = reproduce.printed_matrix("A4")
    return a2, a4, reproduce.orbital_metadata()


@pytest.fixture(scope="module")
def expansion(rank20_fixture):
    a2, a4, meta = rank20_fixture
    return intersection_algebra_expand(a2, a4, 20), rank20_fixture


class TestRank20Expansion:
    """The two bundled valency-1386 and valency-18480 matrices generate
    a 20-dimensional intersection algebra; expanding it must return the
    generators unchanged and reproduce the known double-coset entries."""

    def test_generators_recovered_bit_identically(self, expansion):
        basis, (a2, a4, meta) = expansion
        assert basis[1].matrix == a2
        assert basis[3].matrix == a4
        assert basis[0].matrix == tuple(
            tuple(int(i == j) for j in range(20)) for i in range(20)
        )

    def test_row_sums_match_suborbit_sizes(self, expansion):
        basis, (a2, a4, meta) = expansion
        sizes = [o["s1"] for o in meta]
        for k, ca in enumerate(basis):
            for row in ca.matrix:
                assert sum(row) == sizes[k]

    def test_row_swap_in_a2_rejected(self, rank20_fixture):
        # the swap keeps every row sum, so only the algebra checks can
        # tell the corrupted matrix from a collapsed adjacency matrix
        a2, a4, _ = rank20_fixture
        bad = [list(row) for row in a2]
        bad[1][1], bad[1][2] = bad[1][2], bad[1][1]
        assert bad[1] != list(a2[1])
        assert [sum(row) for row in bad] == [sum(row) for row in a2]
        with pytest.raises(OrbitalError):
            intersection_algebra_expand(bad, a4, 20)

    def test_double_coset_entries(self, expansion):
        basis, (a2, a4, meta) = expansion
        pairing = [o["pair"] - 1 for o in meta]
        expected = reproduce.expected("square_entries")
        report = wilcox_check(basis, pairing)
        assert [r["inverse_entry"] for r in report] == expected[
            "inverse_in_square"
        ]
        assert [r["self_entry"] for r in report] == expected["self_in_square"]
        assert all(r["inverse_in_square"] and r["self_in_square"] for r in report)


class TestTablesAgree:
    """Table 1's scaled xi(2A, 2A, C) |C(2A)| counts the y in 2A with ay
    in C; Table 2 counts the same y by orbitals of product class C."""

    def test_scaled_constants_are_suborbit_sums(self):
        sums = Counter()
        for o in reproduce.orbital_metadata():
            sums[o["product_class"]] += o["s1"]
        rows = reproduce.expected("structure_constants")["rows"]
        assert {r["class"]: r["scaled"] for r in rows} == dict(sums)
        assert sum(sums.values()) == 3_980_549_947  # |2A|

    def test_printed_matrices_satisfy_the_cross_identity(self, rank20_fixture):
        # s_4 (A2)_{4,k} = s_2 (A4)_{2,k*}: 1-based, k* paired with k
        a2, a4, meta = rank20_fixture
        s = [o["s1"] for o in meta]
        pair = [o["pair"] - 1 for o in meta]
        assert [s[3] * x for x in a2[3]] == [
            s[1] * a4[1][pair[k]] for k in range(20)
        ]


class TestWilcoxSemantics:
    def test_zero_entries_reported(self):
        mats = [
            CollapsedAdjacency(0, ((1, 0), (0, 1))),
            CollapsedAdjacency(1, ((0, 1), (1, 0))),
        ]
        report = wilcox_check(mats, [0, 1])
        assert report[0]["inverse_in_square"] is True
        assert report[1]["inverse_in_square"] is False
        assert report[1]["self_in_square"] is False
