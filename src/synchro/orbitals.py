"""Suborbits, orbital pairing, collapsed adjacency matrices, and the
intersection-algebra machinery for desk-scale transitive actions.

The suborbits of a transitive group are the orbits of a point
stabilizer; each corresponds to an orbital graph, whose collapsed
adjacency matrix A_i records, for a representative of each suborbit j,
how its orbital-i neighbourhood distributes over the suborbits.  The
matrices span an algebra of dimension equal to the rank, and any two
matrices that generate the whole algebra recover the rest by linear
algebra, which is how the double-coset checks scale past the point
where direct counting is possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .groups import PermGroup, group_closure


class OrbitalError(Exception):
    pass


@dataclass(frozen=True)
class OrbitalDecomposition:
    base: int
    suborbits: tuple[tuple[int, ...], ...]
    pairing: tuple[int, ...]  # 0-based suborbit index -> paired index
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
    """Suborbits ordered by (size, least point) with {base} first;
    pairing located via (base, x) <-> (x, base)."""
    elements = group_closure(g, cap=10**6).perms
    point_rep = {}
    for perm in elements:
        u = perm(base)
        if u not in point_rep:
            point_rep[u] = perm
    if len(point_rep) != g.degree:
        raise OrbitalError("group is not transitive")
    stab = [p for p in elements if p(base) == base]
    unseen = set(range(g.degree))
    raw = []
    while unseen:
        x = min(unseen)
        orb = sorted({p(x) for p in stab})
        unseen -= set(orb)
        raw.append(orb)
    raw.sort(key=lambda orb: (orb != [base], len(orb), orb[0]))
    suborbit_of = {}
    for i, orb in enumerate(raw):
        for x in orb:
            suborbit_of[x] = i
    pairing = []
    for orb in raw:
        x = orb[0]
        rep = point_rep[x]
        pairing.append(suborbit_of[rep.inverse()(base)])
    transversal = tuple(point_rep[orb[0]] for orb in raw)
    return OrbitalDecomposition(
        base,
        tuple(tuple(orb) for orb in raw),
        tuple(pairing),
        transversal,
    )


def _suborbit_of_map(dec: OrbitalDecomposition) -> dict[int, int]:
    out = {}
    for i, orb in enumerate(dec.suborbits):
        for x in orb:
            out[x] = i
    return out


def collapsed_adjacency(
    g: PermGroup, dec: OrbitalDecomposition, i: int
) -> CollapsedAdjacency:
    """(j,k) entry: how many points of suborbit i land in suborbit k
    under the transversal element carrying the base to suborbit j's
    representative."""
    r = dec.rank
    suborbit_of = _suborbit_of_map(dec)
    matrix = []
    for j in range(r):
        tj = dec.transversal[j]
        row = [0] * r
        for x in dec.suborbits[i]:
            row[suborbit_of[tj(x)]] += 1
        matrix.append(tuple(row))
    out = CollapsedAdjacency(i, tuple(matrix))
    for j, row in enumerate(out.matrix):
        if sum(row) != dec.subdegrees[i]:
            raise OrbitalError(f"row {j} of A_{i} does not sum to subdegree")
    return out


# ---------------------------------------------------------------------------
# intersection algebra

Matrix = tuple[tuple[Fraction, ...], ...]


def _mat(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    r = len(a)
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt)
        for row in a
    )


def _flatten(m: Matrix):
    return [x for row in m for x in row]


class _Span:
    """Row-echelon span of flattened matrices over the rationals."""

    def __init__(self, length: int):
        self.length = length
        self.pivots: dict[int, list[Fraction]] = {}

    def reduce(self, vec):
        vec = list(vec)
        for col, row in self.pivots.items():
            if vec[col]:
                c = vec[col]
                vec = [a - c * b for a, b in zip(vec, row)]
        return vec

    def add(self, vec) -> bool:
        vec = self.reduce(vec)
        for col, x in enumerate(vec):
            if x:
                vec = [a / x for a in vec]
                self.pivots[col] = vec
                return True
        return False

    @property
    def dim(self) -> int:
        return len(self.pivots)


def intersection_algebra_expand(a_p, a_q, rank: int):
    """Close the span of {I, A_p, A_q} under products; recover, for each
    orbital k, the unique algebra element whose first row is supported
    on column k, rescaled so its single first-column entry is 1.  With
    genuine collapsed adjacency matrices as input this reproduces every
    A_k as an integer matrix.  Errors when the closure dimension is not
    the stated rank."""
    r = rank
    mats = [
        _mat([[1 if i == j else 0 for j in range(r)] for i in range(r)]),
        _mat(a_p.matrix if isinstance(a_p, CollapsedAdjacency) else a_p),
        _mat(a_q.matrix if isinstance(a_q, CollapsedAdjacency) else a_q),
    ]
    if any(len(m) != r or any(len(row) != r for row in m) for m in mats):
        raise OrbitalError("input matrices must be rank x rank")
    span = _Span(r * r)
    basis: list[Matrix] = []
    for m in mats:
        if span.add(_flatten(m)):
            basis.append(m)
    frontier = list(basis)
    while frontier and span.dim < r:
        new = []
        for m in frontier:
            for g in mats[1:]:
                for prod in (_matmul(m, g), _matmul(g, m)):
                    if span.add(_flatten(prod)):
                        basis.append(prod)
                        new.append(prod)
        frontier = new
    # confirm the span is closed under multiplication at dimension r
    probe = _Span(r * r)
    for m in basis:
        probe.add(_flatten(m))
    for m in basis:
        for g in mats[1:]:
            if probe.add(_flatten(_matmul(m, g))):
                raise OrbitalError("span not closed at stated rank")
    if span.dim != r:
        raise OrbitalError(
            f"intersection algebra has dimension {span.dim}, expected {r}"
        )
    # solve for elements with first row e_k: first rows of the basis span
    # the full row space, so the r x r system below is invertible
    first_rows = [[m[0][j] for m in basis] for j in range(r)]
    out = []
    for k in range(r):
        coeffs = _solve(first_rows, [Fraction(j == k) for j in range(r)])
        elem = [
            [
                sum(c * m[i][j] for c, m in zip(coeffs, basis))
                for j in range(r)
            ]
            for i in range(r)
        ]
        col = [elem[i][0] for i in range(r)]
        nz = [x for x in col if x]
        if len(nz) != 1 or sum(1 for x in elem[0] if x) != 1:
            raise OrbitalError(
                f"basis element {k} lacks weight-1 first row/column"
            )
        scale = nz[0]
        scaled = [[x / scale for x in row] for row in elem]
        ints = []
        for row in scaled:
            irow = []
            for x in row:
                if x.denominator != 1:
                    raise OrbitalError(
                        f"non-integral entry {x} in recovered matrix {k}"
                    )
                irow.append(int(x))
            ints.append(tuple(irow))
        out.append(CollapsedAdjacency(k, tuple(ints)))
    return out


def _solve(matrix, rhs):
    """Dense rational linear solve (Gaussian elimination)."""
    n = len(rhs)
    aug = [list(map(Fraction, row)) + [Fraction(rhs[i])]
           for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(
            (i for i in range(col, n) if aug[i][col]), None
        )
        if piv is None:
            raise OrbitalError("singular system in basis recovery")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                c = aug[i][col]
                aug[i] = [a - c * b for a, b in zip(aug[i], aug[col])]
    return [aug[i][n] for i in range(n)]


def wilcox_check(matrices, pairing):
    """Per-orbital double-coset containment checks read off the
    collapsed matrices: inverse containment needs (A_i)_{i,i*} != 0,
    self containment needs (A_i)_{i,i} != 0.  Returns witnessing
    entries alongside the booleans."""
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


def rank_and_selfpaired(multiplicities, indicators) -> tuple[int, int]:
    """Permutation-character arithmetic: rank = sum of squared
    constituent multiplicities, self-paired orbital count = indicator
    sum with multiplicity."""
    if len(multiplicities) != len(indicators):
        raise OrbitalError("parallel lists required")
    rank = sum(m * m for m in multiplicities)
    selfpaired = sum(m * ind for m, ind in zip(multiplicities, indicators))
    return rank, selfpaired
