"""A J4-shaped stand-in for the collapsed matrices, with a closed-form
oracle.

The fixed-point-free involutions of S_10 act by conjugation.  In the
F_2 permutation module of the 2-subsets of the 10 points (dim 45), with
every matrix conjugated by one seeded dense matrix, the base involution
x = (0 1)(2 3)...(8 9) has rank(1 + x) = 20, so a fingerprint pair has
J4's shape rather than the rank-1 shape of a transposition class.

The orbitals of x correspond to the partitions lambda of 5: x*y has two
lambda_i-cycles for each part.  Every orbital is self-paired, its
subdegree is 2^5 5! / (prod 2 lambda_i * prod m_j!) with m_j the
multiplicity of part j, and the collapsed matrices are counted from the
cycle types of products of permutations.  C(x) = C2 wr S5 is generated
by three permutations.
"""

import itertools
import math
import random
from collections import Counter

import pytest

from synchro import matrep
from synchro.groups import Permutation, parse_permutation
from synchro.matrep import BitMatrix, collapsed_adjacency_matrep, fingerprint

K = 5
POINTS = 2 * K
SUBSETS = list(itertools.combinations(range(POINTS), 2))
X = "(0 1)(2 3)(4 5)(6 7)(8 9)"
CENTRALIZER = ("(0 1)", "(0 2)(1 3)", "(0 2 4 6 8)(1 3 5 7 9)")


def partitions(n: int, most: int | None = None):
    """The partitions of n, parts in decreasing order."""
    if n == 0:
        yield ()
    for part in range(min(n, most or n), 0, -1):
        for rest in partitions(n - part, part):
            yield (part, *rest)


def matchings(points: list[int]) -> list[list[tuple[int, int]]]:
    """All perfect matchings of the points."""
    if not points:
        return [[]]
    first, rest = points[0], points[1:]
    return [
        [(first, other), *m]
        for k, other in enumerate(rest)
        for m in matchings(rest[:k] + rest[k + 1:])
    ]


def half_cycle_type(p: Permutation) -> tuple[int, ...]:
    """lambda for p = x*y: every cycle length of p occurs an even number
    of times, and lambda takes each length once per pair."""
    lengths = [len(c) for c in p.cycles()]
    lengths += [1] * (p.degree - sum(lengths))
    return tuple(sorted(lengths, reverse=True)[::2])


def subdegree(lam: tuple[int, ...]) -> int:
    multiplicities = Counter(lam).values()
    return (
        2**K * math.factorial(K)
        // math.prod(2 * part for part in lam)
        // math.prod(map(math.factorial, multiplicities))
    )


def module_matrix(p: Permutation) -> BitMatrix:
    """p acting on the 2-subsets, one row per subset."""
    index = {s: j for j, s in enumerate(SUBSETS)}
    return BitMatrix(
        2, len(SUBSETS), [1 << index[tuple(sorted((p(i), p(j))))] for i, j in SUBSETS]
    )


@pytest.fixture(scope="module")
def standin():
    rng = random.Random(45)
    x = parse_permutation(X, POINTS)
    all_matchings = matchings(list(range(POINTS)))
    invs = [Permutation.from_cycles(m, POINTS) for m in all_matchings]
    label_of = [half_cycle_type(x * y) for y in invs]
    lams = sorted(set(label_of), key=lambda lam: (subdegree(lam), lam))
    label = {lam: i for i, lam in enumerate(lams)}
    # sigma_j sends x's pairs onto y_j's, so sigma_j^-1 x sigma_j = y_j
    sigmas, ys = [], []
    for lam in lams:
        k = rng.choice([k for k, t in enumerate(label_of) if t == lam])
        pairs = [rng.sample(pair, 2) for pair in all_matchings[k]]
        rng.shuffle(pairs)
        sigma = Permutation(tuple(p for pair in pairs for p in pair))
        assert sigma.inverse() * x * sigma == invs[k]
        sigmas.append(sigma)
        ys.append(invs[k])
    rank = len(lams)
    oracle = [[[0] * rank for _ in range(rank)] for _ in range(rank)]
    for j, w in enumerate(ys):
        for y, k in zip(invs, label_of):
            oracle[label[half_cycle_type(w * y)]][j][label[k]] += 1
    sizes = [label_of.count(lam) for lam in lams]

    dim = len(SUBSETS)
    while True:
        c = BitMatrix(2, dim, [rng.getrandbits(dim) for _ in range(dim)])
        try:
            c.inverse()
            break
        except matrep.MatrixError:
            continue

    def dense(p: Permutation) -> BitMatrix:
        return module_matrix(p).conjugate_by(c)

    return {
        "lams": lams,
        "sizes": sizes,
        "oracle": [tuple(map(tuple, m)) for m in oracle],
        "a": dense(x),
        "b": dense(parse_permutation("(" + " ".join(map(str, range(POINTS))) + ")")),
        "reps": [dense(s) for s in sigmas],
        "conjugators": [dense(parse_permutation(h, POINTS)) for h in CENTRALIZER],
    }


def test_shape_of_the_standin(standin):
    a = standin["a"]
    one_plus_a = BitMatrix(2, a.dim, [r ^ 1 << i for i, r in enumerate(a.rows)])
    pivots = [0] * (a.dim + 1)
    assert (a.dim, matrep._insert(pivots, one_plus_a.rows, 0)) == (45, 20)
    assert len(matrep._subset_xor_tables(a.rows)[-1]) == 2**5
    assert standin["lams"] == sorted(
        partitions(K), key=lambda lam: (subdegree(lam), lam)
    )
    # rep 0 centralizes a without being the identity
    assert standin["reps"][0] != BitMatrix.identity(2, 45)
    assert a.conjugate_by(standin["reps"][0]) == a


def test_subdegrees_match_the_formula(standin):
    assert standin["sizes"] == [subdegree(lam) for lam in standin["lams"]]
    assert standin["sizes"] == [1, 20, 60, 80, 160, 240, 384]
    assert sum(standin["sizes"]) == 945


def test_fingerprints_separate_every_orbital(standin):
    a, reps = standin["a"], standin["reps"]
    fps = {fingerprint(a, a.conjugate_by(t)).as_tuple() for t in reps}
    assert len(fps) == len(reps) == 7


def test_every_collapsed_matrix_against_the_oracle(standin):
    a, reps = standin["a"], standin["reps"]
    table = {fingerprint(a, a.conjugate_by(t)).as_tuple(): j for j, t in enumerate(reps)}
    s = standin["sizes"]
    for i, want in enumerate(standin["oracle"]):
        m = collapsed_adjacency_matrep(
            a, standin["b"], reps, table, i, conjugators=standin["conjugators"]
        ).matrix
        assert m == want
        assert all(sum(row) == s[i] for row in m)
        assert all(
            s[j] * m[j][k] == s[k] * m[k][j] for j in range(7) for k in range(7)
        )


def test_rank_stopped_basis_is_the_full_basis(standin):
    # every orbit element is conjugate to a, so stopping its elimination
    # at rank(1 + a) = 20 leaves the pivots of the full elimination
    a = standin["a"]
    rank = len(matrep._Involution.of(a.rows).basis)
    assert rank == 20
    elements = 0
    for t in standin["reps"]:
        for m, mt in matrep._orbit(a.conjugate_by(t), standin["conjugators"]):
            full = matrep._Involution.of(m.rows, mt)
            assert matrep._Involution.of(m.rows, mt, rank) == full
            elements += 1
    assert elements == sum(standin["sizes"]) == 945
