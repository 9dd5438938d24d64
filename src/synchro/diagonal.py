"""Diagonal groups D(T,n), their graph, and proper colourings.

Vertices are (n-1)-tuples over a finite group T.  Two vertices are
adjacent when they differ in exactly one coordinate (rule A1) or when
one is a common left translate of the other (rule A2).  The graph is
kept implicit (adjacency predicate + neighbour iterator) so that large
vertex sets stay checkable by streaming edges.

For n > 2 the graph carries a proper colouring with |T| colours, built
from coordinate quotients when n is even and additionally from a
complete mapping of T when n is odd; together with the canonical
cliques of size |T| this certifies clique number = chromatic number,
which is the non-synchronization certificate for any group of
automorphisms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .groups import FiniteGroup
from .mapping import CompleteMapping, verify_complete_mapping


# largest vertex set a colouring is tabulated for: |T|^(n-1) entries
MAX_COLORED_VERTICES = 10**7
MAX_N = 1000  # |T|^(n-1) stays printable: 3497 digits at |T| = 3162


class DiagonalError(ValueError):
    pass


@dataclass(frozen=True)
class DiagonalGraph:
    T: FiniteGroup
    n: int

    def __post_init__(self):
        if not 2 <= self.n <= MAX_N:
            raise DiagonalError(f"need 2 <= n <= {MAX_N}, not {self.n}")

    @property
    def num_vertices(self) -> int:
        return self.T.order ** (self.n - 1)

    def rank(self, coords) -> int:
        # mixed radix, first coordinate most significant
        r = 0
        for t in coords:
            r = r * self.T.order + t
        return r

    def unrank(self, r: int) -> tuple[int, ...]:
        coords = []
        for _ in range(self.n - 1):
            r, t = divmod(r, self.T.order)
            coords.append(t)
        return tuple(reversed(coords))

    def vertices(self):
        return itertools.product(range(self.T.order), repeat=self.n - 1)

    def adjacency(self, u, v):
        """Rule tag for the pair: ('A1', coordinate index i in 2..n),
        ('A2', witness x) or None."""
        T = self.T
        diff = [k for k in range(self.n - 1) if u[k] != v[k]]
        if len(diff) == 1:
            return ("A1", diff[0] + 2)
        if not diff:
            return None
        x = T.mul(v[0], T.inv(u[0]))
        if x != T.identity and all(
            v[k] == T.mul(x, u[k]) for k in range(1, self.n - 1)
        ):
            return ("A2", x)
        return None

    def adjacent(self, u, v) -> bool:
        return self.adjacency(u, v) is not None

    def neighbours(self, u):
        """All neighbours of u, in deterministic order: A1 cliques by
        coordinate, then the A2 (left translate) clique, which at n = 2
        is the A1 clique again and is not repeated."""
        T = self.T
        for k in range(self.n - 1):
            for t in range(T.order):
                if t != u[k]:
                    yield u[:k] + (t,) + u[k + 1 :]
        if self.n == 2:
            return
        for x in range(T.order):
            if x != T.identity:
                yield tuple(T.mul(x, t) for t in u)

    def degree_of_vertex(self) -> int:
        # n cliques of size |T| through each vertex, all one clique at n = 2
        return (1 if self.n == 2 else self.n) * (self.T.order - 1)


def canonical_cliques(spec: DiagonalGraph, vertex) -> list[list[tuple]]:
    """The n cliques of size |T| through the vertex: n-1 from varying a
    single coordinate, one from left translation.  At n = 2 both are the
    whole vertex set T, so the one clique is returned once."""
    T = spec.T
    cliques = []
    for k in range(spec.n - 1):
        cliques.append(
            [vertex[:k] + (t,) + vertex[k + 1 :] for t in range(T.order)]
        )
    if spec.n > 2:
        cliques.append(
            [tuple(T.mul(x, t) for t in vertex) for x in range(T.order)]
        )
    for cl in cliques:
        for a, b in itertools.combinations(cl, 2):
            if not spec.adjacent(a, b):
                raise DiagonalError(f"canonical clique broken at {a},{b}")
    return cliques


@dataclass(frozen=True)
class Coloring:
    spec: DiagonalGraph
    color_of: tuple[int, ...]  # vertex rank -> element of T

    def num_colors(self) -> int:
        return len(set(self.color_of))

    def fiber_sizes(self) -> dict[int, int]:
        sizes: dict[int, int] = {}
        for c in self.color_of:
            sizes[c] = sizes.get(c, 0) + 1
        return sizes


def diagonal_coloring_even(spec: DiagonalGraph) -> Coloring:
    """Colour (t2,...,tn) by (t2^-1 t3)(t4^-1 t5)...(t_{n-2}^-1 t_{n-1}) tn^-1."""
    if spec.n % 2 or spec.n <= 2:
        raise DiagonalError("even colouring needs even n > 2")
    T = spec.T
    return _tabulate(spec, lambda coords: T.inv(coords[-1]))


def diagonal_coloring_odd(
    spec: DiagonalGraph, phi: CompleteMapping
) -> Coloring:
    """Colour (t2,...,tn) by
    (t2^-1 t3)...(t_{n-3}^-1 t_{n-2})(t_{n-1}^-1 psi(tn)) where
    psi(g) = g*phi(g) for a complete mapping phi of T."""
    if spec.n % 2 == 0 or spec.n < 3:
        raise DiagonalError("odd colouring needs odd n >= 3")
    T = spec.T
    if phi.group.order != T.order or not verify_complete_mapping(T, phi.phi):
        raise DiagonalError("phi is not a complete mapping of T")
    psi = [T.mul(g, phi.phi[g]) for g in range(T.order)]
    return _tabulate(
        spec, lambda coords: T.mul(T.inv(coords[-2]), psi[coords[-1]])
    )


def _tabulate(spec: DiagonalGraph, last) -> Coloring:
    """Colour every vertex (t2,...,tn), in rank order, by the quotients
    (t2^-1 t3)(t4^-1 t5)... of the coordinate pairs that leave one (n
    even) or two (n odd) coordinates over, times last(t2,...,tn)."""
    if spec.num_vertices > MAX_COLORED_VERTICES:
        raise DiagonalError(
            f"{spec.num_vertices} vertices exceed the colouring cap of "
            f"{MAX_COLORED_VERTICES}"
        )
    T, pairs = spec.T, range(0, spec.n - 3, 2)

    def color(coords):
        c = T.identity
        for k in pairs:
            c = T.mul(c, T.mul(T.inv(coords[k]), coords[k + 1]))
        return T.mul(c, last(coords))

    return Coloring(spec, tuple(map(color, spec.vertices())))


def verify_proper_coloring(spec: DiagonalGraph, coloring: Coloring):
    """None when proper; otherwise the first monochromatic edge (u, v),
    u ranking below v, by the rank of u, then v in `neighbours` order.
    Each edge is built once, from its lower end u: in coordinate k the
    values t > t_k, then (n > 2) the translates x*u with x*t2 > t2, which
    are those above u since x*t != t for x != 1 (and x = 1 fails the
    test).  At n = 2 the translates are the A1 neighbours again."""
    T, color = spec.T, coloring.color_of
    translates = range(T.order) if spec.n > 2 else ()
    for coords in spec.vertices():
        cu = color[spec.rank(coords)]
        for k in range(spec.n - 1):
            for t in range(coords[k] + 1, T.order):
                nb = coords[:k] + (t,) + coords[k + 1 :]
                if color[spec.rank(nb)] == cu:
                    return (coords, nb)
        for x in translates:
            if T.mul(x, coords[0]) > coords[0]:
                nb = tuple(T.mul(x, t) for t in coords)
                if color[spec.rank(nb)] == cu:
                    return (coords, nb)
    return None
