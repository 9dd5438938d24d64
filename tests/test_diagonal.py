import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from synchro.diagonal import (
    Coloring,
    DiagonalError,
    DiagonalGraph,
    canonical_cliques,
    diagonal_coloring_even,
    diagonal_coloring_odd,
    verify_proper_coloring,
)
from synchro.groups import cyclic_group, make_group
from synchro.mapping import CompleteMapping, find_complete_mapping


@pytest.fixture(scope="module")
def z3_3():
    return DiagonalGraph(cyclic_group(3), 3)


@pytest.fixture(scope="module")
def s3_4():
    return DiagonalGraph(make_group("s3"), 4)


@pytest.fixture(scope="module")
def s3_2():
    # one coordinate: the A1 and A2 cliques through a vertex coincide
    return DiagonalGraph(make_group("s3"), 2)


class TestGraph:
    def test_sizes(self, z3_3, s3_4):
        assert z3_3.num_vertices == 9
        assert s3_4.num_vertices == 216
        assert z3_3.degree_of_vertex() == 6
        assert s3_4.degree_of_vertex() == 20

    def test_rejects_small_n(self):
        with pytest.raises(DiagonalError):
            DiagonalGraph(cyclic_group(3), 1)

    def test_single_coordinate_rule(self, z3_3):
        tag = z3_3.adjacency((0, 0), (1, 0))
        assert tag == ("A1", 2)
        tag = z3_3.adjacency((0, 0), (0, 2))
        assert tag == ("A1", 3)

    def test_translate_rule(self, z3_3):
        tag = z3_3.adjacency((0, 0), (1, 1))
        assert tag == ("A2", 1)
        assert z3_3.adjacency((0, 0), (2, 2)) == ("A2", 2)

    def test_non_adjacent(self, z3_3):
        assert z3_3.adjacency((0, 0), (1, 2)) is None
        assert z3_3.adjacency((0, 0), (0, 0)) is None

    def test_neighbour_iterator_matches_predicate(self, z3_3, s3_2):
        for spec, degree in ((z3_3, 6), (s3_2, 5)):
            for u in spec.vertices():
                nbs = list(spec.neighbours(u))
                assert len(nbs) == len(set(nbs)) == degree
                for v in spec.vertices():
                    assert (v in nbs) == spec.adjacent(u, v)

    def test_degree_matches_neighbour_count(self, s3_4, s3_2):
        for spec, u in ((s3_4, (1, 2, 3)), (s3_2, (4,))):
            assert len(set(spec.neighbours(u))) == spec.degree_of_vertex()

    @given(st.integers(min_value=0, max_value=215))
    def test_rank_unrank_roundtrip(self, r):
        spec = DiagonalGraph(make_group("s3"), 4)
        assert spec.rank(spec.unrank(r)) == r


class TestCliques:
    def test_z3_cliques_through_origin(self, z3_3):
        cliques = [set(c) for c in canonical_cliques(z3_3, (0, 0))]
        assert {(0, 0), (1, 0), (2, 0)} in cliques
        assert {(0, 0), (0, 1), (0, 2)} in cliques
        assert {(0, 0), (1, 1), (2, 2)} in cliques

    def test_count_and_size(self, s3_4):
        cliques = canonical_cliques(s3_4, (0, 0, 0))
        assert len(cliques) == s3_4.n
        assert all(len(c) == 6 for c in cliques)

    @pytest.mark.parametrize("u", [(0,), (3,)])
    def test_one_clique_at_n_2(self, s3_2, u):
        # the coordinate and translation cliques are both the vertex set
        cliques = canonical_cliques(s3_2, u)
        assert cliques == [[(t,) for t in range(6)]]
        assert set(cliques[0]) - {u} == set(s3_2.neighbours(u))

    def test_neighbourhood_splits_into_cliques(self, s3_4):
        u = (2, 4, 1)
        cliques = canonical_cliques(s3_4, u)
        union = set()
        for c in cliques:
            others = set(c) - {u}
            assert not (union & others)
            union |= others
        assert union == set(s3_4.neighbours(u))


class TestColorings:
    def test_even_identity_vertex(self, s3_4):
        c = diagonal_coloring_even(s3_4)
        e = s3_4.T.identity
        assert c.color_of[s3_4.rank((e, e, e))] == e

    def test_even_s3_proper_with_six_equal_fibers(self, s3_4):
        c = diagonal_coloring_even(s3_4)
        assert verify_proper_coloring(s3_4, c) is None
        assert c.num_colors() == 6
        assert set(c.fiber_sizes().values()) == {36}

    def test_even_rejects_odd_n(self, z3_3):
        with pytest.raises(DiagonalError):
            diagonal_coloring_even(z3_3)

    def test_odd_z3_identity_phi(self, z3_3):
        phi = CompleteMapping(z3_3.T, (0, 1, 2))
        c = diagonal_coloring_odd(z3_3, phi)
        assert c.color_of[z3_3.rank((0, 0))] == 0
        assert verify_proper_coloring(z3_3, c) is None
        assert c.num_colors() == 3

    def test_odd_rejects_bad_phi(self, z3_3):
        with pytest.raises(DiagonalError):
            diagonal_coloring_odd(z3_3, CompleteMapping(z3_3.T, (1, 0, 2)))

    def test_constant_coloring_rejected(self, z3_3):
        bad = Coloring(z3_3, (0,) * 9)
        violation = verify_proper_coloring(z3_3, bad)
        assert violation is not None

    def test_corrupted_vertex_detected(self, z3_3):
        phi = CompleteMapping(z3_3.T, (0, 1, 2))
        good = diagonal_coloring_odd(z3_3, phi)
        colors = list(good.color_of)
        colors[4] = (colors[4] + 1) % 3
        violation = verify_proper_coloring(z3_3, Coloring(z3_3, tuple(colors)))
        assert violation is not None
        assert 4 in (z3_3.rank(violation[0]), z3_3.rank(violation[1]))

    def test_odd_klein_n3(self):
        spec = DiagonalGraph(make_group("klein"), 3)
        phi = find_complete_mapping(spec.T).mapping
        c = diagonal_coloring_odd(spec, phi)
        assert verify_proper_coloring(spec, c) is None
        assert c.num_colors() == 4

    def test_odd_z5_n5(self):
        spec = DiagonalGraph(cyclic_group(5), 5)
        phi = find_complete_mapping(spec.T).mapping
        c = diagonal_coloring_odd(spec, phi)
        assert verify_proper_coloring(spec, c) is None
        assert c.num_colors() == 5


def walk_both_ends(spec, coloring):
    """The reference walk: every neighbour of every vertex from
    `DiagonalGraph.neighbours`, keeping only the upper end."""
    color = coloring.color_of
    for coords in spec.vertices():
        u = spec.rank(coords)
        for nb in spec.neighbours(coords):
            v = spec.rank(nb)
            if v > u and color[u] == color[v]:
                return (coords, nb)
    return None


def base_coloring(spec, kind):
    if kind == "rainbow":  # n = 2: the graph is complete on T
        return Coloring(spec, tuple(range(spec.T.order)))
    if kind == "even":
        return diagonal_coloring_even(spec)
    return diagonal_coloring_odd(spec, find_complete_mapping(spec.T).mapping)


def recolour(coloring, changes, seed):
    """The colouring with `changes` distinct vertices given another colour."""
    rng = random.Random(seed)
    colors = list(coloring.color_of)
    order = coloring.spec.T.order
    for r in rng.sample(range(len(colors)), changes):
        colors[r] = rng.choice([c for c in range(order) if c != colors[r]])
    return Coloring(coloring.spec, tuple(colors))


# abelian and non-abelian T, n from 2 to 5, even and odd colourings
ORACLE_CASES = [
    ("z5", 2, "rainbow"),
    ("s3", 2, "rainbow"),
    ("z3", 3, "odd"),
    ("q8", 3, "odd"),
    ("klein", 4, "even"),
    ("z4", 4, "even"),
    ("s3", 4, "even"),
    ("q8", 4, "even"),
    ("z3", 5, "odd"),
    ("d8", 5, "odd"),
]


@pytest.fixture(
    scope="module", params=ORACLE_CASES, ids=lambda c: "-".join(map(str, c))
)
def oracle_case(request):
    spec_name, n, kind = request.param
    spec = DiagonalGraph(make_group(spec_name), n)
    return base_coloring(spec, kind)


class TestVerifierOracle:
    def test_proper_coloring(self, oracle_case):
        assert walk_both_ends(oracle_case.spec, oracle_case) is None
        assert verify_proper_coloring(oracle_case.spec, oracle_case) is None

    @pytest.mark.parametrize("changes", [1, 2, 5])
    def test_recoloured_matches_the_walk(self, oracle_case, changes):
        spec = oracle_case.spec
        for seed in range(5):
            bad = recolour(oracle_case, changes, seed)
            expected = walk_both_ends(spec, bad)
            assert verify_proper_coloring(spec, bad) == expected, seed

    def test_recolourings_break_both_rules(self):
        # the oracle cases reach violations through A1 and through A2
        rules = set()
        for spec_name, n, kind in ORACLE_CASES[2:]:
            good = base_coloring(DiagonalGraph(make_group(spec_name), n), kind)
            for seed in range(5):
                bad = recolour(good, 5, seed)
                u, v = verify_proper_coloring(good.spec, bad)
                rules.add(good.spec.adjacency(u, v)[0])
        assert rules == {"A1", "A2"}

    def test_each_edge_built_once(self, oracle_case, monkeypatch):
        # one rank for the vertex itself, one for each upper neighbour
        ranked = []
        rank = DiagonalGraph.rank
        monkeypatch.setattr(
            DiagonalGraph,
            "rank",
            lambda self, coords: ranked.append(coords) or rank(self, coords),
        )
        spec = oracle_case.spec
        assert verify_proper_coloring(spec, oracle_case) is None
        edges = spec.num_vertices * spec.degree_of_vertex() // 2
        assert len(ranked) == spec.num_vertices + edges


class TestHamming:
    def test_dropping_translate_rule_gives_hamming(self, s3_4):
        for u in itertools.islice(s3_4.vertices(), 30):
            for v in s3_4.neighbours(u):
                tag = s3_4.adjacency(u, v)
                hamming = sum(a != b for a, b in zip(u, v)) == 1
                assert (tag[0] == "A1") == hamming
