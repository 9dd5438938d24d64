"""orbital-algebra: mostly `orbitals` and `groups`, with no `mapping` or
`matrep` work.

Jobs, in order:
- decomposition, every collapsed matrix and the Wilcox checks for S6
  and S5 on unordered pairs (S6 runs through the full 720x720 table),
  checked against the pair-intersection oracle of acceptance criterion 7;
- the same for the regular actions of a5, d48 and s4 x z2, checked
  against the group table;
- `intersection_algebra_expand` at rank 20 on the bundled J4 A2/A4
  matrices, checked against the bundled entry lists and suborbit sizes;
- `chartab` structure constants (xi and hat) for every class triple of
  five bundled tables, checked against the brute-force count.

The seed relabels the points of the pair actions and picks the base
point of the regular actions; the J4 matrices and character tables are
fixed data.  S7 on pairs (~200 s) is too long to repeat, so S6 stands in
for the full-table case.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path

from jobs import Job, check, check_algebra, sha256_json
from synchro import chartab, groups, orbitals

PAIR_DEGREES = (6, 5)
REGULAR = ("a5", "d48", "s4 x z2")
CHARTABS = ("s3", "d8", "a4", "s4", "a5")
J4_RANK = 20


@dataclass
class PairAction:
    n: int
    group: groups.PermGroup
    rel: list  # rel[u][v] = |pair u & pair v|
    # counts[(ri, rj, rk)] = #{y : rel(w, y) = ri, rel(base, y) = rk} for
    # any w with rel(base, w) = rj: the collapsed matrices by relation
    counts: dict


@dataclass
class RegularAction:
    spec: str
    g: groups.FiniteGroup
    group: groups.PermGroup
    base: int


@dataclass
class CharTab:
    name: str
    order: int
    table: chartab.CharacterTable
    brute: dict
    cmap: list


@dataclass
class Fixture:
    pairs: list
    regular: list
    j4: dict
    chartabs: list


def _pair_action(n: int, rng, tr) -> PairAction:
    natural = groups.PermGroup(n, (
        groups.parse_permutation("(0 1)", n),
        groups.Permutation(tuple(range(1, n)) + (0,)),
    ))
    action, pairs = tr.call("groups.action", groups.pair_action, natural)
    with tr.span("bench.inputs", f"S{n} pairs relabelled"):
        images = list(range(action.degree))
        rng.shuffle(images)
        pi = groups.Permutation(tuple(images))
        # point pi(i) is the pair pairs[i]
        gens = tuple(pi.inverse() * g * pi for g in action.generators)
        relabelled = groups.PermGroup(action.degree, gens)
        pair_of = [None] * action.degree
        for i, p in enumerate(pairs):
            pair_of[pi(i)] = set(p)
    with tr.span("bench.oracle", f"S{n} pairs intersections"):
        m = action.degree
        rel = [[len(pair_of[u] & pair_of[v]) for v in range(m)] for u in range(m)]
        counts = {}
        for rj in (0, 1, 2):
            w = rel[0].index(rj)
            for y in range(m):
                key = (rel[w][y], rj, rel[0][y])
                counts[key] = counts.get(key, 0) + 1
    return PairAction(n, relabelled, rel, counts)


def _load_matrix(path: Path):
    lines = path.read_text().splitlines()
    return tuple(tuple(map(int, row.split())) for row in lines[1:])


def setup(seed: int, tr, root: Path) -> Fixture:
    rng = random.Random(seed)
    pair_actions = [_pair_action(n, rng, tr) for n in PAIR_DEGREES]
    regular = []
    for spec in REGULAR:
        g = tr.call("groups.make_group", groups.make_group, spec)
        pg = tr.call("groups.action", groups.regular_perm_group, g)
        regular.append(RegularAction(spec, g, pg, rng.randrange(g.order)))
    data = root / "src" / "synchro" / "data"
    with tr.span("bench.inputs", "J4 data files"):
        meta = json.loads((data / "j4_orbitals.json").read_text())["orbitals"]
        j4 = {
            "A2": _load_matrix(data / "j4_a2_expected.txt"),
            "A4": _load_matrix(data / "j4_a4_expected.txt"),
            "subdegrees": [o["s1"] for o in meta],
            "pairing": [o["pair"] - 1 for o in meta],
            "expected": json.loads((data / "j4_square_entries_expected.json").read_text()),
        }
    tabs = []
    for name in CHARTABS:
        g = tr.call("groups.make_group", groups.make_group, name)
        path = chartab.bundled_table_path(name)
        t = tr.call("chartab.load", chartab.load_character_table, path)
        brute, classing = tr.call("chartab.brute_force",
                                  chartab.brute_force_structure_constants, g)
        cmap = tr.call("chartab.match", chartab.match_classes, t, classing, g)
        tabs.append(CharTab(name, g.order, t, brute, cmap))
    return Fixture(pair_actions, regular, j4, tabs)


# ---------------------------------------------------------------------------
# jobs


def _decompose(tr, group, base: int, order: int):
    dec = tr.call("orbitals.decomposition", orbitals.orbital_decomposition, group, base)
    tr.count("orbitals.group_elements", order)
    with tr.span("orbitals.collapsed"):
        mats = [orbitals.collapsed_adjacency(group, dec, i) for i in range(dec.rank)]
    report = tr.call("orbitals.wilcox", orbitals.wilcox_check, mats, dec.pairing)
    return dec, [m.matrix for m in mats], report


def _pair_job(pa: PairAction) -> Job:
    def run(tr, ctx):
        dec, mats, report = _decompose(tr, pa.group, 0, factorial(pa.n))
        rel = pa.rel
        # each suborbit must be one intersection class of the base pair
        classes = [rel[0][orb[0]] for orb in dec.suborbits]
        for orb, c in zip(dec.suborbits, classes):
            want = [y for y in range(len(rel)) if rel[0][y] == c]
            check(list(orb) == want, f"S{pa.n} pairs: suborbit {orb}")
        check(sorted(classes) == [0, 1, 2], f"S{pa.n} pairs: rank {dec.rank}")
        oracle = [
            tuple(tuple(pa.counts.get((ri, rj, rk), 0) for rk in classes) for rj in classes)
            for ri in classes
        ]
        check(mats == oracle, f"S{pa.n} pairs: collapsed matrices differ from the oracle")
        # intersection size is symmetric, so every orbital is self-paired
        check(list(dec.pairing) == list(range(dec.rank)), f"S{pa.n} pairs: pairing")
        check_algebra(f"S{pa.n} pairs", mats, dec.subdegrees, dec.pairing, report)
        return {"subdegrees": list(dec.subdegrees), "pairing": list(dec.pairing),
                "matrices": mats, "wilcox": report}

    return Job(f"orbitals S{pa.n} on pairs", run)


def _regular_job(ra: RegularAction) -> Job:
    def run(tr, ctx):
        g, b = ra.g, ra.base
        dec, mats, report = _decompose(tr, ra.group, b, g.order)
        points = [orb[0] for orb in dec.suborbits]
        want = [b] + [x for x in range(g.order) if x != b]
        check([list(o) for o in dec.suborbits] == [[x] for x in want],
              f"{ra.spec}: suborbits are not the singletons from the base")
        index = {x: i for i, x in enumerate(points)}
        inv = [g.table[a].index(g.identity) for a in range(g.order)]
        # t_j is right multiplication by b^-1 x_j, so A_i[j][k] = 1 iff
        # x_k = x_i b^-1 x_j, and orbital i pairs with b x_i^-1 b
        binv = inv[b]
        for i, xi in enumerate(points):
            xib = g.table[xi][binv]
            for j, xj in enumerate(points):
                k = index[g.table[xib][xj]]
                row = mats[i][j]
                check(row[k] == 1 and sum(row) == 1, f"{ra.spec}: A_{i} row {j}")
            pair = index[g.table[g.table[b][inv[xi]]][b]]
            check(dec.pairing[i] == pair, f"{ra.spec}: pairing of {i}")
        check_algebra(ra.spec, mats, dec.subdegrees, dec.pairing, report)
        return {"base": b, "pairing": list(dec.pairing), "matrices": sha256_json(mats)}

    return Job(f"orbitals regular {ra.spec}", run)


def _expand_job(j4: dict) -> Job:
    def run(tr, ctx):
        basis = tr.call("orbitals.expand", orbitals.intersection_algebra_expand,
                        j4["A2"], j4["A4"], J4_RANK)
        report = tr.call("orbitals.wilcox", orbitals.wilcox_check, basis, j4["pairing"])
        mats = [b.matrix for b in basis]
        check(len(mats) == J4_RANK and mats[1] == j4["A2"] and mats[3] == j4["A4"],
              "expansion does not return A2 and A4")
        check_algebra("J4", mats, j4["subdegrees"], j4["pairing"], report)
        inv = [r["inverse_entry"] for r in report]
        slf = [r["self_entry"] for r in report]
        check(inv == j4["expected"]["inverse_in_square"], "inverse_in_square entries")
        check(slf == j4["expected"]["self_in_square"], "self_in_square entries")
        return {"matrices": sha256_json(mats), "inverse_in_square": inv, "self_in_square": slf}

    return Job("orbitals J4 expand rank 20", run)


def _chartab_job(ct: CharTab) -> Job:
    def run(tr, ctx):
        names = [c.name for c in ct.table.classes]
        k = len(names)
        hats, xis = [], []
        for i, j, m in itertools.product(range(k), repeat=3):
            triple = (names[i], names[j], names[m])
            with tr.span("chartab.constants"):
                hat = chartab.structure_constant_hat(ct.table, *triple)
                xi = chartab.structure_constant_xi(ct.table, *triple)
            tr.count("chartab.constants", 2)
            count = ct.brute[(ct.cmap[i], ct.cmap[j], ct.cmap[m])]
            check(hat == count, f"{ct.name} {triple}: hat {hat}, brute force {count}")
            check(xi == Fraction(count, ct.order), f"{ct.name} {triple}: xi {xi}")
            hats.append(hat)
            xis.append([xi.numerator, xi.denominator])
        return {"hat": hats, "xi": xis}

    return Job(f"chartab {ct.name}", run)


def jobs(fx: Fixture) -> list[Job]:
    return (
        [_pair_job(pa) for pa in fx.pairs]
        + [_regular_job(ra) for ra in fx.regular]
        + [_expand_job(fx.j4)]
        + [_chartab_job(ct) for ct in fx.chartabs]
    )


def describe(fx: Fixture) -> list[str]:
    return [
        f"pair actions: S{', S'.join(map(str, PAIR_DEGREES))}; regular actions: "
        f"{', '.join(REGULAR)}; J4 expansion at rank {J4_RANK} (bundled A2/A4); "
        f"character tables: {', '.join(CHARTABS)}",
    ]
