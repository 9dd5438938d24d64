"""Suborbits, orbital pairing, collapsed adjacency matrices, and the
intersection-algebra machinery for transitive actions.

The suborbits of a transitive group are the orbits of a point
stabilizer.  They come from one breadth-first pass from the base: each
Schreier generator of the stabilizer is streamed into a union-find over
the points and dropped, so no group element is listed or stored and no
multiplication table is built; the union-find's answer is kept as the
point -> suborbit map.  Each suborbit corresponds to an orbital graph,
whose collapsed adjacency matrix A_i records, for a representative of
each suborbit j, how its orbital-i neighbourhood of s_i points spreads
over the suborbits (each row sums to s_i).  The matrices span an algebra of
dimension equal to the rank, and any two matrices that generate the
whole algebra recover the rest: the span is closed on first rows modulo
the prime 2^61 - 1, and the lifted integer matrices are certified over Z
by their structure constants.  That is how the double-coset checks
scale past the point where direct counting is possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .groups import PermGroup, Permutation


class OrbitalError(ValueError):
    pass


@dataclass(frozen=True)
class OrbitalDecomposition:
    base: int
    suborbits: tuple[tuple[int, ...], ...]
    pairing: tuple[int, ...]  # 0-based suborbit index -> paired index
    suborbit_of: tuple[int, ...]  # point -> 0-based index of its suborbit
    # one group element per suborbit mapping base into it
    transversal: tuple

    @property
    def rank(self) -> int:
        return len(self.suborbits)

    @property
    def subdegrees(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.suborbits)


@dataclass(frozen=True)
class CollapsedAdjacency:
    orbital: int  # 0-based suborbit index
    matrix: tuple[tuple[int, ...], ...]


def orbital_decomposition(g: PermGroup, base: int) -> OrbitalDecomposition:
    """Suborbits ordered by (size, least point) with {base} first.  A
    breadth-first search keeps back[v], the images of t_v^-1 for the
    t_v = t_u * gen carrying the base to v.  Off the search tree, u -gen->
    v gives the Schreier generator t_u gen t_v^-1: back[u][y] ->
    back[v][gen(y)].  These generate the stabilizer (Schreier's lemma),
    so a union-find over those pairs gives the suborbits.  Suborbit x
    pairs with the one holding t_x^-1(base)."""
    d = g.degree
    if not 0 <= base < d:
        raise OrbitalError(f"point {base} out of range")
    gens = [(gen.images, gen.inverse().images) for gen in g.generators]
    back = [None] * d
    back[base] = tuple(range(d))
    parent = list(range(d))  # roots are least members: parent[x] <= x
    queue = [base]
    for u in queue:  # grows while it is walked
        bu = back[u]
        for images, inv in gens:
            v = images[u]
            if back[v] is None:  # a tree edge: its Schreier generator is 1
                back[v] = tuple(map(bu.__getitem__, inv))
                queue.append(v)
                continue
            for x, y in zip(bu, map(back[v].__getitem__, images)):
                while parent[x] != x:  # path halving
                    parent[x] = x = parent[parent[x]]
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                if y < x:
                    x, y = y, x
                parent[y] = x
    if len(queue) != d:
        raise OrbitalError("group is not transitive")
    classes: dict[int, list[int]] = {}
    for x in range(d):  # each smaller point holds its root already
        root = parent[x] = parent[parent[x]]
        classes.setdefault(root, []).append(x)
    raw = sorted(classes.values(), key=lambda o: (o != [base], len(o), o[0]))
    index = {orb[0]: i for i, orb in enumerate(raw)}  # keyed by root
    suborbit_of = tuple(index[root] for root in parent)
    return OrbitalDecomposition(
        base,
        tuple(map(tuple, raw)),
        tuple(suborbit_of[back[orb[0]][base]] for orb in raw),
        suborbit_of,
        tuple(Permutation(back[orb[0]]).inverse() for orb in raw),
    )


def collapsed_adjacency(
    g: PermGroup, dec: OrbitalDecomposition, i: int
) -> CollapsedAdjacency:
    """(j,k) entry: how many points of suborbit i land in suborbit k
    under the transversal element carrying the base to suborbit j's
    representative."""
    r = dec.rank
    if not 0 <= i < r:
        raise OrbitalError(f"no orbital {i} (0-based) in rank {r}")
    matrix = []
    for tj in dec.transversal:
        row = [0] * r
        for x in dec.suborbits[i]:
            row[dec.suborbit_of[tj(x)]] += 1
        matrix.append(tuple(row))
    return CollapsedAdjacency(i, tuple(matrix))


# ---------------------------------------------------------------------------
# intersection algebra

# the Mersenne prime 2^61 - 1: the span closure runs modulo P
P = (1 << 61) - 1


def _matmul(a, b, modulus=None):
    cols = list(zip(*b))
    if modulus is None:
        return [[sum(map(mul, row, col)) for col in cols] for row in a]
    return [[sum(map(mul, row, col)) % modulus for col in cols] for row in a]


def _identity(r):
    return tuple(tuple(int(i == j) for j in range(r)) for i in range(r))


def intersection_algebra_expand(a_p, a_q, rank: int):
    """Recover every collapsed matrix A_k from two that generate the
    intersection algebra.

    Row 0 of sum_k c_k A_k is (c_k s_k)_k, with s_k the k-th subdegree,
    so first rows are faithful coordinates.  The span of {I, A_p, A_q}
    is closed under left multiplication by A_p and A_q, on first rows
    modulo P = 2^61 - 1; every word in them is a left product of I, so
    right-hand products add nothing.  For each k the element whose
    first row is e_k is solved for, scaled so its single first-column
    entry is 1, and lifted symmetrically to Z.

    The lift is certified with integer products: A_0 = I; A_p and A_q
    come back unchanged at the indices their first rows name; each A_k
    has one nonzero in row 0 and a single 1 in column 0; and for a in
    {p, q} and every b, A_a A_b = sum_c (s_a / s_c) (A_b)_{ac} A_c with
    every coefficient an exact integer.  The span of the A_k then holds
    I and is closed under left multiplication by A_p and A_q, so it
    holds the algebra they generate, whose dimension is at least r as
    the closure's first rows have rank r modulo P.  So each A_k is the
    algebra's unique element with its first row and column, and an
    unlucky prime can only cause a false OrbitalError, never a wrong
    matrix.  Errors when the closure dimension is not the stated rank
    or any check fails."""
    r = rank
    gens = [
        tuple(map(tuple, a.matrix if isinstance(a, CollapsedAdjacency) else a))
        for a in (a_p, a_q)
    ]
    if r < 1 or any(
        len(m) != r or any(len(row) != r for row in m) for m in gens
    ):
        raise OrbitalError("input matrices must be rank x rank")
    words = []  # closure words whose first rows are independent mod P
    # pivot column -> first row of a combination of words, then its word
    # coefficients; kept fully reduced, so at rank r the row for column k
    # is e_k and its coefficients give the element with that first row
    pivots: dict[int, list[int]] = {}

    def add(first_row) -> bool:
        if len(words) == r:
            return False
        vec = [x % P for x in first_row] + [0] * r
        vec[r + len(words)] = 1
        for col, row in pivots.items():
            if vec[col]:
                c = vec[col]
                vec = [(x - c * y) % P for x, y in zip(vec, row)]
        col = next((j for j in range(r) if vec[j]), None)
        if col is None:
            return False
        inv = pow(vec[col], -1, P)
        vec = [x * inv % P for x in vec]
        for other, row in pivots.items():
            if row[col]:
                c = row[col]
                pivots[other] = [(x - c * y) % P for x, y in zip(row, vec)]
        pivots[col] = vec
        return True

    for m in (_identity(r), *gens):
        if add(m[0]):
            words.append(m)
    for m in words:  # grows while it is walked
        for g in gens:
            # the first row of g m is g[0] m, so the product is formed in
            # full only when that row is new
            if add(_matmul([g[0]], m)[0]):
                words.append(_matmul(g, m, P))
    if len(words) != r:
        raise OrbitalError(
            f"intersection algebra has dimension {len(words)}, expected {r}"
        )
    flat = [[x for row in w for x in row] for w in words]
    coeffs = [pivots[k][r:] for k in range(r)]
    out = []
    for k, elem in enumerate(_matmul(coeffs, flat, P)):
        col0 = [x for x in elem[::r] if x]
        if len(col0) != 1:
            raise OrbitalError(f"column 0 of A_{k} has {len(col0)} nonzeros")
        inv = pow(col0[0], -1, P)
        lifted = [x * inv % P for x in elem]
        lifted = [x - P if x > P // 2 else x for x in lifted]
        out.append(CollapsedAdjacency(k, tuple(
            tuple(lifted[i * r:(i + 1) * r]) for i in range(r)
        )))
    _certify([ca.matrix for ca in out], gens)
    return out


def _certify(mats, gens) -> None:
    """The integer checks listed in `intersection_algebra_expand`."""
    r = len(mats)
    if mats[0] != _identity(r):
        raise OrbitalError("recovered A_0 is not the identity")
    for k, m in enumerate(mats):
        if [j for j, x in enumerate(m[0]) if x] != [k]:
            raise OrbitalError(f"row 0 of A_{k} is not a multiple of e_{k}")
        if [row[0] for row in m if row[0]] != [1]:
            raise OrbitalError(f"column 0 of A_{k} is not a single 1")
    sub = [m[0][k] for k, m in enumerate(mats)]
    # an input with a zero first row names 0, and A_0 = I differs from it
    named = [next((j for j, x in enumerate(g[0]) if x), 0) for g in gens]
    if any(mats[a] != g for a, g in zip(named, gens)):
        raise OrbitalError("an input matrix is not returned unchanged")
    flat = [[x for row in m for x in row] for m in mats]
    for a in named:
        for b, mb in enumerate(mats):
            want = [0] * (r * r)
            for c, x in enumerate(mb[a]):
                coef, rem = divmod(sub[a] * x, sub[c])
                if rem:
                    raise OrbitalError(
                        f"A_{a} A_{b} has a non-integral coefficient at {c}"
                    )
                if coef:
                    want = [w + coef * y for w, y in zip(want, flat[c])]
            if [x for row in _matmul(mats[a], mb) for x in row] != want:
                raise OrbitalError(
                    f"A_{a} A_{b} does not expand in the recovered matrices"
                )


def wilcox_check(matrices, pairing):
    """Per-orbital double-coset containment checks read off the
    collapsed matrices A_0, A_1, ..., an iterable consumed one at a time:
    inverse containment needs (A_i)_{i,i*} != 0, self containment needs
    (A_i)_{i,i} != 0.  Returns witnessing entries alongside the
    booleans."""
    report = []
    for i, ca in enumerate(matrices):
        m = ca.matrix
        istar = pairing[i]
        report.append(
            {
                "orbital": i,
                "inverse_in_square": m[i][istar] != 0,
                "inverse_entry": m[i][istar],
                "self_in_square": m[i][i] != 0,
                "self_entry": m[i][i],
            }
        )
    return report
