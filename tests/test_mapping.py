import itertools

import pytest
from hypothesis import given, settings, strategies as st

from synchro.groups import cyclic_group, make_group
from synchro.mapping import (
    SearchStatus,
    find_complete_mapping,
    hall_paige_predicate,
    verify_complete_mapping,
)


class TestVerify:
    def test_identity_works_in_odd_order(self):
        g = cyclic_group(7)
        assert verify_complete_mapping(g, range(7))

    def test_identity_fails_in_even_order(self):
        g = cyclic_group(4)
        assert not verify_complete_mapping(g, range(4))

    def test_rejects_non_bijection(self):
        g = cyclic_group(3)
        assert not verify_complete_mapping(g, [0, 0, 1])
        assert not verify_complete_mapping(g, [0, 1])

    def test_z2_exhaustive(self):
        # neither bijection of Z2 is a complete mapping
        g = cyclic_group(2)
        assert not verify_complete_mapping(g, [0, 1])
        assert not verify_complete_mapping(g, [1, 0])

    def test_klein_example(self):
        g = make_group("klein")
        found = [
            phi
            for phi in itertools.permutations(range(4))
            if verify_complete_mapping(g, phi)
        ]
        # Hall-Paige holds for the Klein group; some mapping must exist
        assert found


class TestPredicate:
    @pytest.mark.parametrize(
        "spec,expected",
        [
            ("z3", True),
            ("z2", False),
            ("z12", False),
            ("klein", True),
            ("q8", True),
            ("d8", True),
            ("s3", False),
            ("s4", True),
            ("a4", True),
        ],
    )
    def test_known(self, spec, expected):
        assert hall_paige_predicate(make_group(spec)) is expected


class TestSearch:
    def test_odd_order_shortcut(self):
        r = find_complete_mapping(cyclic_group(9))
        assert r.status is SearchStatus.FOUND
        assert r.mapping.phi == tuple(range(9))
        assert r.nodes == 0

    def test_deterministic(self, small_catalog):
        # same status, nodes and phi: the results compare as dataclasses
        for spec, g in small_catalog:
            assert find_complete_mapping(g) == find_complete_mapping(g), spec

    @pytest.mark.parametrize(
        "spec",
        ["a5", "elementary 2 5", "s4 x z2", "z3 x a4", "d32", "z2 x q8"],
    )
    def test_hard_groups_found_within_budget(self, spec):
        g = make_group(spec)
        r = find_complete_mapping(g, budget=100_000)
        assert r.status is SearchStatus.FOUND
        assert verify_complete_mapping(g, r.mapping.phi)

    def test_refutation_is_definitive(self):
        r = find_complete_mapping(cyclic_group(8))
        assert r.status is SearchStatus.NOT_FOUND
        assert r.mapping is None

    def test_budget_exhaustion_reported(self):
        r = find_complete_mapping(make_group("d16"), budget=10)
        assert r.status is SearchStatus.BUDGET_EXHAUSTED
        assert r.mapping is None
        # nodes counts the selections made, and exhaustion makes budget many
        assert r.nodes == 10

    def test_zero_budget_exhausts_before_any_selection(self):
        # s4 passes the balance test, so only a search could decide it
        r = find_complete_mapping(make_group("s4"), budget=0)
        assert (r.status, r.nodes) == (SearchStatus.BUDGET_EXHAUSTED, 0)

    def test_budget_of_exactly_the_selections_made_suffices(self):
        g = make_group("z2 x q8")
        r = find_complete_mapping(g)
        assert r.status is SearchStatus.FOUND and r.nodes > 1
        assert find_complete_mapping(g, budget=r.nodes) == r
        short = find_complete_mapping(g, budget=r.nodes - 1)
        assert (short.status, short.nodes) == (
            SearchStatus.BUDGET_EXHAUSTED, r.nodes - 1
        )

    def test_search_agrees_with_criterion(self, small_catalog):
        for spec, g in small_catalog:
            r = find_complete_mapping(g)
            found = r.status is SearchStatus.FOUND
            assert found == hall_paige_predicate(g), spec
            if found:
                assert verify_complete_mapping(g, r.mapping.phi), spec
            else:
                # Hall and Paige's balance test refutes at the root
                assert r.status is SearchStatus.NOT_FOUND, spec
                assert r.nodes == 0, spec

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=1, max_value=15))
    def test_cyclic_families(self, n):
        r = find_complete_mapping(cyclic_group(n))
        assert (r.status is SearchStatus.FOUND) == (n % 2 == 1)
