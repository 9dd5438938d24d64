import random

import pytest

from synchro.groups import (
    cyclic_group,
    dihedral_group,
    direct_product,
    make_group,
    regular_perm_group,
)
from synchro.witness import (
    ExactFactorisation,
    SyncWitness,
    WitnessError,
    canonical_partition,
    factorisation_to_partition,
    make_sep_witness,
    make_sync_witness,
    sync_witness_to_sep,
    verify_sep_witness,
    verify_sync_witness,
    witness_to_factorisation,
)


@pytest.fixture
def z4():
    return cyclic_group(4)


@pytest.fixture
def z4_regular(z4):
    return regular_perm_group(z4)


class TestConstruction:
    def test_sync_witness_requires_nontrivial_inputs(self):
        with pytest.raises(WitnessError):
            make_sync_witness([0], [[0, 1], [2, 3]])
        with pytest.raises(WitnessError):
            make_sync_witness([0, 1], [[0], [1], [2], [3]])

    def test_sep_witness_requires_product(self):
        with pytest.raises(WitnessError):
            make_sep_witness([0, 1], [0, 2], 6)
        make_sep_witness([0, 1], [0, 2], 4)

    def test_canonical_partition_sorted_by_min(self):
        parts = canonical_partition([[2, 3], [0, 1]])
        assert [min(p) for p in parts] == [0, 2]

    def test_overlapping_parts_rejected(self):
        with pytest.raises(WitnessError):
            canonical_partition([[0, 1], [1, 2]])

    def test_overlap_names_the_repeated_element(self):
        with pytest.raises(WitnessError, match="element 3 lies in two parts"):
            canonical_partition([[0, 3], [1, 2], [3, 4]], range(5))

    def test_non_covering_points_rejected(self):
        with pytest.raises(WitnessError, match="does not cover the 5 points"):
            canonical_partition([[0, 3], [1, 2]], range(5))
        with pytest.raises(WitnessError, match="does not cover the 4 points"):
            canonical_partition([[0, 3], [1, 2], [4]], range(4))
        assert canonical_partition([[0, 3], [1, 2]], range(4)) == (
            frozenset([0, 3]), frozenset([1, 2]))


class TestVerification:
    def test_z4_sync_witness(self, z4, z4_regular):
        w = make_sync_witness([0, 1], [[0, 2], [1, 3]])
        assert verify_sync_witness(z4_regular, w) is None

    def test_z4_sync_failure_reported(self, z4, z4_regular):
        w = make_sync_witness([0, 1], [[0, 1], [2, 3]])
        failure = verify_sync_witness(z4_regular, w)
        assert failure is not None
        perm, part = failure
        image = {perm(a) for a in w.A}
        assert len(image & part) != 1

    def test_non_covering_partition_rejected(self):
        # every translate {g, g+1, g+2} meets each part once, but the
        # parts leave out 2 and 5
        w = make_sync_witness([0, 1, 2], [[0, 3], [1, 4]])
        with pytest.raises(WitnessError, match="does not cover the 6 points"):
            verify_sync_witness(regular_perm_group(cyclic_group(6)), w)

    def test_empty_part_raises(self, z4_regular):
        # built directly, past make_sync_witness's check
        w = SyncWitness(frozenset([0, 1]), (frozenset([0, 1, 2, 3]), frozenset()))
        with pytest.raises(WitnessError, match="empty part"):
            verify_sync_witness(z4_regular, w)

    def test_z4_sep_witness(self, z4, z4_regular):
        w = make_sep_witness([0, 3], [0, 2], 4)
        assert verify_sep_witness(z4_regular, w) is None

    def test_z4_sep_failure(self, z4, z4_regular):
        w = make_sep_witness([0, 2], [0, 2], 4)
        assert verify_sep_witness(z4_regular, w) is not None


class TestTransfers:
    def test_sync_to_sep(self, z4, z4_regular):
        w = make_sync_witness([0, 1], [[0, 2], [1, 3]])
        sep = sync_witness_to_sep(z4_regular, w)
        assert sep.B == frozenset([0, 2])
        assert verify_sep_witness(z4_regular, sep) is None

    def test_sync_to_sep_rejects_bad_witness(self, z4, z4_regular):
        w = make_sync_witness([0, 1], [[0, 1], [2, 3]])
        with pytest.raises(WitnessError):
            sync_witness_to_sep(z4_regular, w)

    def test_factorisation_from_sep(self, z4):
        w = make_sep_witness([0, 3], [0, 2], 4)
        f = witness_to_factorisation(z4, w)
        products = {z4.mul(a, b) for a in f.A for b in f.B}
        assert products == set(range(4))

    def test_factorisation_partition_example(self, z4):
        # Z4 = {0,1} * {0,2} exactly; the induced parts are the translates
        f = ExactFactorisation(z4, frozenset([0, 1]), frozenset([0, 2]))
        parts = factorisation_to_partition(f)
        assert parts == (frozenset([0, 1]), frozenset([2, 3]))

    def test_inexact_factorisation_rejected(self, z4):
        f = ExactFactorisation(z4, frozenset([0, 2]), frozenset([0, 2]))
        with pytest.raises(WitnessError):
            factorisation_to_partition(f)

    def test_overlapping_factorisation_names_the_element(self, z4):
        # {0, 1} * {0, 1}: 1 = 1 + 0 = 0 + 1
        f = ExactFactorisation(z4, frozenset([0, 1]), frozenset([0, 1]))
        with pytest.raises(WitnessError, match="element 1 lies in two parts"):
            factorisation_to_partition(f)

    def test_non_covering_factorisation_rejected(self, z4):
        # {0, 1} * {0}: disjoint, but 2 and 3 are left out
        f = ExactFactorisation(z4, frozenset([0, 1]), frozenset([0]))
        with pytest.raises(WitnessError, match="does not cover the 4 points"):
            factorisation_to_partition(f)

    def test_full_round_trip(self, z4, z4_regular):
        w = make_sync_witness([0, 1], [[0, 2], [1, 3]])
        sep = sync_witness_to_sep(z4_regular, w)
        f = witness_to_factorisation(z4, sep)
        parts = factorisation_to_partition(f)
        back = make_sync_witness(f.B, parts)
        assert verify_sync_witness(z4_regular, back) is None


def random_subgroup_factorisation(g, rng):
    """An exact factorisation subgroup * transversal, or None when the
    sampled subgroup is trivial or everything."""
    seed = rng.randrange(1, g.order)
    sub = {g.identity, seed}
    frontier = [seed]
    while frontier:
        x = frontier.pop()
        for y in list(sub):
            z = g.mul(x, y)
            if z not in sub:
                sub.add(z)
                frontier.append(z)
    if len(sub) in (1, g.order):
        return None
    cosets = {}
    for x in rng.sample(range(g.order), g.order):
        key = frozenset(g.mul(a, x) for a in sub)
        cosets.setdefault(key, x)
    return ExactFactorisation(
        g, frozenset(sub), frozenset(cosets.values())
    )


SAMPLE_GROUPS = [
    cyclic_group(12),
    cyclic_group(30),
    dihedral_group(12),
    dihedral_group(20),
    make_group("q8"),
    make_group("a4"),
    make_group("s4"),
    direct_product(cyclic_group(2), cyclic_group(6)),
    make_group("s3"),
    cyclic_group(60),
]


def test_random_factorisations_round_trip():
    rng = random.Random(20240817)
    done = 0
    while done < 100:
        g = rng.choice(SAMPLE_GROUPS)
        f = random_subgroup_factorisation(g, rng)
        if f is None:
            continue
        parts = factorisation_to_partition(f)
        w = make_sync_witness(f.B, parts)
        reg = regular_perm_group(g)
        assert verify_sync_witness(reg, w) is None
        sep = sync_witness_to_sep(reg, w)
        assert verify_sep_witness(reg, sep) is None
        done += 1
