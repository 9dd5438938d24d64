"""matrep-j4scale: mostly `matrep` at dimension 112, using
`orbitals.intersection_algebra_expand` only at rank 5.

The J4 generator files are not in the repository, so the fixture is a
synthetic stand-in of the same dimension, not J4: the fixed-point-free
involutions of S8 on the 8-point permutation module over F_2, as a
14-fold direct sum (dim 112, 1 - x of rank 56), conjugated by a seeded
random invertible matrix so every matrix is dense.  The conjugation
action on the 105 involutions has rank 5 with suborbits 1/12/12/32/48.
C(x) = C2 wr S4 is passed as `conjugators` and the orbital
representatives as `BitMatrix`, so the public API runs without J4 words.

Jobs mirror the `reproduce` targets: fingerprint every representative
(table2), close every suborbit, compute A2 and A5 in the matrix
representation, and expand them to all five matrices (entry-lists).
Everything is checked against a permutation-side oracle that labels
each orbital by the cycle type of x*y, not by fingerprints.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from jobs import Job, check, check_algebra
from synchro import groups, matrep, orbitals
from synchro.matrep import BitMatrix

STAND_IN = (
    "synthetic stand-in, not J4: fixed-point-free involutions of S8 on "
    "14 copies of the 8-point permutation module over F_2 (dim 112), "
    "conjugated by a seeded random invertible matrix"
)
POINTS = 8
COPIES = 14
X = "(0 1)(2 3)(4 5)(6 7)"
B = "(0 1 2 3 4 5 6 7)"
# generators of C(x) = C2 wr S4
CENTRALIZER = ("(0 1)", "(0 2)(1 3)", "(0 2 4 6)(1 3 5 7)")
SUBDEGREES = [1, 12, 12, 32, 48]
# the A2/A4 analogue: orbitals 2 and 5 (1-based), sizes 12 and 48
COLLAPSED = (1, 4)


class FixtureError(Exception):
    """The stand-in does not have the structure the jobs assume."""


@dataclass
class Fixture:
    a: BitMatrix
    b: BitMatrix
    reps: list
    conjugators: list
    table: dict
    oracle: list  # oracle[i] = collapsed matrix A_i from the permutations
    pairing: list


def _involutions(points: list[int]) -> list[list[tuple[int, int]]]:
    """All perfect matchings of the points."""
    if not points:
        return [[]]
    first, rest = points[0], points[1:]
    out = []
    for k, other in enumerate(rest):
        for m in _involutions(rest[:k] + rest[k + 1:]):
            out.append([(first, other)] + m)
    return out


def _cycle_type(p: groups.Permutation) -> tuple[int, ...]:
    lengths = [len(c) for c in p.cycles()]
    return tuple(sorted(lengths + [1] * (p.degree - sum(lengths))))


def _permutation_oracle(rng):
    """Orbital labels, class representatives y_j, conjugating sigma_j
    (sigma_j^-1 x sigma_j = y_j) and the collapsed matrices, all computed
    on the 105 involutions by the cycle type of products."""
    x = groups.parse_permutation(X, POINTS)
    matchings = _involutions(list(range(POINTS)))
    invs = [groups.Permutation.from_cycles(m, POINTS) for m in matchings]
    classes: dict[tuple, list[int]] = {}
    for k, y in enumerate(invs):
        classes.setdefault(_cycle_type(x * y), []).append(k)
    types = sorted(classes, key=lambda t: (len(classes[t]), t))
    sizes = [len(classes[t]) for t in types]
    if sizes != SUBDEGREES:
        raise FixtureError(f"suborbit sizes {sizes}, expected {SUBDEGREES}")
    label = {t: i for i, t in enumerate(types)}
    sigmas, reps = [], []
    for t in types:
        k = rng.choice(classes[t])
        pairs = [rng.sample(pair, 2) for pair in matchings[k]]
        rng.shuffle(pairs)
        sigma = groups.Permutation(tuple(p for pair in pairs for p in pair))
        if sigma.inverse() * x * sigma != invs[k]:
            raise FixtureError("representative conjugator is wrong")
        sigmas.append(sigma)
        reps.append(invs[k])
    r = len(types)
    oracle = []
    for i in range(r):
        rows = []
        for w in reps:
            row = [0] * r
            for y in invs:
                if label[_cycle_type(w * y)] == i:
                    row[label[_cycle_type(x * y)]] += 1
            rows.append(tuple(row))
        oracle.append(tuple(rows))
    pairing = [label[_cycle_type(w * x)] for w in reps]
    return x, sigmas, oracle, pairing


def _random_invertible(rng, dim: int, tr) -> tuple[BitMatrix, BitMatrix]:
    while True:
        m = BitMatrix(2, dim, [rng.getrandbits(dim) for _ in range(dim)])
        try:
            return m, tr.call("matrep.inverse", m.inverse)
        except matrep.MatrixError:
            continue


def setup(seed: int, tr, root: Path) -> Fixture:
    rng = random.Random(seed)
    with tr.span("bench.oracle", "S8 involutions"):
        x, sigmas, oracle, pairing = _permutation_oracle(rng)
    dim = POINTS * COPIES
    with tr.span("bench.inputs", "dense 112-dim matrices"):
        c, c_inv = _random_invertible(rng, dim, tr)

        def matrix(p: groups.Permutation) -> BitMatrix:
            rows = [1 << (k * POINTS + p(i)) for k in range(COPIES) for i in range(POINTS)]
            return tr.call("matrep.mul", lambda: c_inv * BitMatrix(2, dim, rows) * c)

        a = matrix(x)
        b = matrix(groups.parse_permutation(B, POINTS))
        conjugators = [matrix(groups.parse_permutation(h, POINTS)) for h in CENTRALIZER]
        reps = [matrix(s) for s in sigmas]
    table = {}
    for j, t in enumerate(reps):
        z = tr.call("matrep.conjugate", a.conjugate_by, t)
        table[tr.call("matrep.fingerprint", matrep.fingerprint, a, z).as_tuple()] = j
    if len(table) != len(reps):
        raise FixtureError(f"fingerprint table not injective: {len(table)} keys")
    return Fixture(a, b, reps, conjugators, table, oracle, pairing)


# ---------------------------------------------------------------------------
# jobs


def _table2_job(fx: Fixture) -> Job:
    def run(tr, ctx):
        fps = []
        for j, t in enumerate(fx.reps):
            z = tr.call("matrep.conjugate", fx.a.conjugate_by, t)
            fp = tr.call("matrep.fingerprint", matrep.fingerprint, fx.a, z).as_tuple()
            check(fx.table.get(fp) == j, f"representative {j} fingerprints as {fp}")
            fps.append(list(fp))
        check(len(set(map(tuple, fps))) == len(fps), "fingerprints not injective")
        return fps

    return Job("matrep table2 fingerprints", run)


def _closure_job(fx: Fixture, j: int) -> Job:
    def run(tr, ctx):
        seed = tr.call("matrep.conjugate", fx.a.conjugate_by, fx.reps[j])
        orbit = tr.call("matrep.orbit_closure", matrep.orbit_closure, seed, fx.conjugators)
        tr.count("matrep.orbit_elements", len(orbit))
        check(len(orbit) == SUBDEGREES[j], f"suborbit {j}: {len(orbit)} elements")
        return len(orbit)

    return Job(f"matrep orbit closure {j + 1}", run)


def _collapsed_job(fx: Fixture, i: int) -> Job:
    def run(tr, ctx):
        ca = tr.call("matrep.collapsed", matrep.collapsed_adjacency_matrep,
                     fx.a, fx.b, fx.reps, fx.table, i, conjugators=fx.conjugators)
        tr.count("matrep.fingerprints", SUBDEGREES[i] * len(fx.reps))
        check(ca.matrix == fx.oracle[i], f"A{i + 1} differs from the permutation oracle")
        ctx[i] = ca
        return [list(row) for row in ca.matrix]

    return Job(f"matrep collapsed A{i + 1}", run)


def _entry_lists_job(fx: Fixture) -> Job:
    p, q = COLLAPSED

    def run(tr, ctx):
        check(p in ctx and q in ctx, "collapsed matrices missing from their jobs")
        basis = tr.call("orbitals.expand", orbitals.intersection_algebra_expand,
                        ctx[p], ctx[q], len(fx.reps))
        report = tr.call("orbitals.wilcox", orbitals.wilcox_check, basis, fx.pairing)
        mats = [b.matrix for b in basis]
        check(mats == fx.oracle, "expanded matrices differ from the permutation oracle")
        check_algebra("stand-in", mats, SUBDEGREES, fx.pairing, report)
        return {"inverse_in_square": [r["inverse_entry"] for r in report],
                "self_in_square": [r["self_entry"] for r in report]}

    return Job("matrep entry lists", run)


def jobs(fx: Fixture) -> list[Job]:
    return (
        [_table2_job(fx)]
        + [_closure_job(fx, j) for j in range(len(fx.reps))]
        + [_collapsed_job(fx, i) for i in COLLAPSED]
        + [_entry_lists_job(fx)]
    )


def describe(fx: Fixture) -> list[str]:
    return [
        f"fixture: {STAND_IN}",
        f"rank {len(fx.reps)}, suborbits {'/'.join(map(str, SUBDEGREES))}; "
        f"collapsed A{COLLAPSED[0] + 1} and A{COLLAPSED[1] + 1} expanded to all {len(fx.reps)}",
    ]
