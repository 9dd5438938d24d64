"""End-to-end acceptance checks.

Criteria 1-3 re-run the large sporadic-group computations through
synchro.reproduce, the pipeline behind `synchro reproduce`, and need two
externally supplied files (not bundled for size/licensing reasons):

  $SYNCHRO_J4_DATA/j4_characters.json   exported character table
  $SYNCHRO_J4_DATA/j4_112_f2_gens.txt   112-dim mod-2 generator pair

When the environment variable or the files are absent these three are
skipped; criteria 4-8 always run.  Each criterion reports a single
PASS line (visible with -v via the test name, or with -s via stdout).
"""

import itertools
import os
import random

import pytest

from synchro import chartab, diagonal, groups, mapping, orbitals, reproduce
from synchro import witness


def j4_target(name: str) -> dict:
    """Run a reproduce target on $SYNCHRO_J4_DATA; it must pass."""
    base = os.environ.get("SYNCHRO_J4_DATA")
    if not base:
        pytest.skip("SYNCHRO_J4_DATA not set; external data criteria skipped")
    try:
        payload, _ = reproduce.TARGETS[name](base)
    except reproduce.DataMissing as exc:
        pytest.skip(str(exc))
    assert payload["ok"], payload
    return payload


def report(n: int, text: str) -> None:
    print(f"criterion {n}: PASS ({text})")


# -- criterion 1: structure-constant table reproduction ---------------------


def test_criterion_1_structure_constants():
    rows = j4_target("table1")["rows"]
    others = [r["class"] for r in rows if "scaled" not in r]
    assert len(others) >= 3, rows
    report(1, f"14 nonzero rows exact, all {len(others)} other classes vanish")


# -- criterion 2: fingerprints and orbit sizes ------------------------------


def test_criterion_2_fingerprints_and_orbits():
    j4_target("table2")
    report(2, "20 fingerprints exact; orbit sizes 1386 and 18480")


# -- criterion 3: collapsed matrices and double-coset entry lists -----------


def test_criterion_3_collapsed_matrices():
    j4_target("entry-lists")
    report(3, "A2/A4 bit-identical; both entry lists reproduced")


# -- criterion 4: search agrees with the existence criterion ----------------


def test_criterion_4_hall_paige_desk_scale(small_catalog):
    for spec, g in small_catalog:
        r = mapping.find_complete_mapping(g)
        assert r.status is not mapping.SearchStatus.BUDGET_EXHAUSTED, spec
        found = r.status is mapping.SearchStatus.FOUND
        assert found == mapping.hall_paige_predicate(g), spec
        if found:
            assert mapping.verify_complete_mapping(g, r.mapping.phi), spec
    report(4, f"{len(small_catalog)} catalog groups, search == criterion")


# -- criterion 5: diagonal colouring certificates ---------------------------


def check_coloring_certificate(spec, coloring):
    assert diagonal.verify_proper_coloring(spec, coloring) is None
    assert coloring.num_colors() == spec.T.order
    for clique in diagonal.canonical_cliques(spec, spec.unrank(0)):
        assert len(clique) == spec.T.order


def test_criterion_5_diagonal_certificates(a5, a5_mapping):
    z3_3 = diagonal.DiagonalGraph(groups.cyclic_group(3), 3)
    phi = mapping.CompleteMapping(z3_3.T, (0, 1, 2))
    check_coloring_certificate(z3_3, diagonal.diagonal_coloring_odd(z3_3, phi))

    s3_4 = diagonal.DiagonalGraph(groups.make_group("s3"), 4)
    check_coloring_certificate(s3_4, diagonal.diagonal_coloring_even(s3_4))

    a5_3 = diagonal.DiagonalGraph(a5, 3)
    check_coloring_certificate(
        a5_3, diagonal.diagonal_coloring_odd(a5_3, a5_mapping)
    )
    report(5, "(Z3,3), (S3,4), (A5,3) all certified with |T| colors")


# -- criterion 6: witness pipeline on random exact factorisations -----------


def subgroup_factorisation(g, rng):
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
        cosets.setdefault(frozenset(g.mul(a, x) for a in sub), x)
    return witness.ExactFactorisation(
        g, frozenset(sub), frozenset(cosets.values())
    )


def test_criterion_6_witness_pipeline():
    pool = [
        groups.cyclic_group(12),
        groups.cyclic_group(30),
        groups.cyclic_group(60),
        groups.dihedral_group(12),
        groups.dihedral_group(20),
        groups.make_group("q8"),
        groups.make_group("a4"),
        groups.make_group("s4"),
        groups.make_group("s3"),
        groups.direct_product(groups.cyclic_group(2), groups.cyclic_group(6)),
    ]
    rng = random.Random(20240817)
    done = 0
    while done < 100:
        g = rng.choice(pool)
        f = subgroup_factorisation(g, rng)
        if f is None:
            continue
        parts = witness.factorisation_to_partition(f)
        w = witness.make_sync_witness(f.B, parts)
        reg = groups.regular_perm_group(g)
        assert witness.verify_sync_witness(reg, w) is None
        sep = witness.sync_witness_to_sep(reg, w)
        assert witness.verify_sep_witness(reg, sep) is None
        done += 1
    report(6, "100 factorisations round-tripped, sync and sep both verify")


# -- criterion 7: orbital engine against an independent oracle --------------


def test_criterion_7_orbital_oracle():
    natural = groups.PermGroup(
        5,
        (
            groups.parse_permutation("(0 1 2)", 5),
            groups.parse_permutation("(0 1 2 3 4)", 5),
        ),
    )
    action, pairs = groups.pair_action(natural)
    dec = orbitals.orbital_decomposition(action, 0)
    assert dec.subdegrees == (1, 3, 6)
    a2 = orbitals.collapsed_adjacency(action, dec, 1)
    assert a2.matrix == ((0, 3, 0), (1, 0, 2), (0, 1, 2))

    # independent oracle: neighbour counting on the disjointness graph
    suborbit_of = {
        x: i for i, orb in enumerate(dec.suborbits) for x in orb
    }
    oracle = []
    for j in range(3):
        w = dec.suborbits[j][0]
        row = [0, 0, 0]
        for z in range(10):
            if z != w and not (set(pairs[w]) & set(pairs[z])):
                row[suborbit_of[z]] += 1
        oracle.append(tuple(row))
    assert a2.matrix == tuple(oracle)

    fixtures = [
        groups.regular_perm_group(groups.make_group(s))
        for s in ("z5", "z6", "s3", "d8", "q8", "a4")
    ] + [
        natural,
        action,
        groups.pair_action(
            groups.PermGroup(
                4,
                (
                    groups.parse_permutation("(0 1)", 4),
                    groups.parse_permutation("(0 1 2 3)", 4),
                ),
            )
        )[0],
        groups.PermGroup(
            4,
            (
                groups.parse_permutation("(0 1)", 4),
                groups.parse_permutation("(0 1 2 3)", 4),
            ),
        ),
    ]
    for pg in fixtures:
        d = orbitals.orbital_decomposition(pg, 0)
        assert sum(d.subdegrees) == pg.degree
        for i, j in enumerate(d.pairing):
            assert d.pairing[j] == i
            assert d.subdegrees[i] == d.subdegrees[j]
        for i in range(d.rank):
            m = orbitals.collapsed_adjacency(pg, d, i)
            for row in m.matrix:
                assert sum(row) == d.subdegrees[i]
    report(7, "oracle match on pairs action; invariants on 10 actions")


# -- criterion 8: structure constants against brute force -------------------


def test_criterion_8_structure_constant_oracle():
    for name in ("s3", "d8", "a4", "s4", "a5"):
        g = groups.make_group(name)
        t = chartab.load_character_table(chartab.bundled_table_path(name))
        table, classing = chartab.brute_force_structure_constants(g)
        cmap = chartab.match_classes(t, classing, g)
        k = len(t.classes)
        for i, j, m in itertools.product(range(k), repeat=3):
            got = chartab.structure_constant_hat(
                t,
                t.classes[i].name,
                t.classes[j].name,
                t.classes[m].name,
            )
            assert got == table[(cmap[i], cmap[j], cmap[m])], (name, i, j, m)
    report(8, "formula == brute force on all triples for 5 groups")
