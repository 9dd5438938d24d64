"""Permutations and small finite groups as explicit multiplication tables.

Everything downstream acts on these two carriers: a Permutation is an
image list on 0-based points, a FiniteGroup is an order x order table of
element indices with a generating set.  A catalog table multiplies out
only its generators' rows and reads every other row through them: exact,
because each construction is associative and element 0 is proved to be
the identity.  Groups are kept at desk scale (tables of at most
MAX_TABLE_ENTRIES = 10^7 entries, so order <= 3162); anything bigger
stays a generator-only PermGroup.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from collections.abc import Callable
from dataclasses import dataclass, field
from pathlib import Path


class SizeOverflowError(ValueError):
    """Closure exceeded the requested element cap."""


class GroupFormatError(ValueError):
    """Malformed group descriptor, table file or permutation literal."""


MAX_TABLE_ENTRIES = 10**7


def _check_order(order: int) -> None:
    """Refuse a group whose order x order table exceeds the bound, before
    any of its elements is built."""
    if order * order > MAX_TABLE_ENTRIES:
        raise GroupFormatError(
            f"group order above {math.isqrt(MAX_TABLE_ENTRIES)}: its table "
            f"would exceed {MAX_TABLE_ENTRIES} entries"
        )


def _factorial(n: int) -> int:  # 20! passes any table bound
    return math.factorial(min(n, 20))


def _power(p: int, k: int) -> int:  # p^12 passes any table bound when p >= 2
    return p ** min(max(k, 0), 12)


# ---------------------------------------------------------------------------
# permutations


@dataclass(frozen=True)
class Permutation:
    images: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.images) != list(range(len(self.images))):
            raise GroupFormatError(f"not a bijection: {self.images}")

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # left-to-right: (p*q)(x) = q(p(x)), matching right actions x^(pq)
        return Permutation(tuple(other.images[i] for i in self.images))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation(tuple(inv))

    def cycles(self) -> list[tuple[int, ...]]:
        seen = [False] * self.degree
        out = []
        for start in range(self.degree):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            j = self.images[start]
            while j != start:
                seen[j] = True
                cyc.append(j)
                j = self.images[j]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(map(str, c)) + ")" for c in cycs)

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return Permutation(tuple(range(degree)))

    @staticmethod
    def from_cycles(cycles, degree: int) -> "Permutation":
        images = list(range(degree))
        for cyc in cycles:
            for i, pt in enumerate(cyc):
                nxt = cyc[(i + 1) % len(cyc)]
                if pt >= degree or nxt >= degree:
                    raise GroupFormatError(f"point out of range in cycle {cyc}")
                images[pt] = nxt
        return Permutation(tuple(images))


def parse_permutation(text: str, degree: int | None = None) -> Permutation:
    """Parse a cycle literal such as '(0 1)(2 3)'; '' and '()' are the
    identity.  The degree defaults to one past the largest point."""
    text = text.strip()
    if not re.fullmatch(r"(?:\([\d\s,]*\)\s*)*", text):
        raise GroupFormatError(f"unrecognized permutation literal: {text!r}")
    cycles = [tuple(map(int, re.findall(r"\d+", c))) for c in text.split(")")]
    if any(len(set(c)) < len(c) for c in cycles):
        raise GroupFormatError(f"a point repeats in a cycle of {text!r}")
    if degree is None:
        degree = max((max(c, default=-1) for c in cycles), default=-1) + 1
    return Permutation.from_cycles(cycles, degree)


@dataclass(frozen=True)
class PermGroup:
    degree: int
    generators: tuple[Permutation, ...]

    def __post_init__(self):
        for g in self.generators:
            if g.degree != self.degree:
                raise GroupFormatError("generator degree mismatch")

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)


# ---------------------------------------------------------------------------
# explicit-table groups


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    table: tuple[tuple[int, ...], ...]
    # a generating set (element indices): the catalog's own, or the greedy
    # set a table file's associativity check verified; () for the trivial
    # group.  Actions and closures run over it, not over every element
    generators: tuple[int, ...]
    identity: int = 0
    # set by the first read of `inverses`; a declared field, because a
    # functools.cached_property materializes __dict__, which slows every
    # attribute read on the instance (~2.5x on CPython 3.11)
    _inverses: tuple[int, ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    @property
    def inverses(self) -> tuple[int, ...]:
        if self._inverses is None:
            e = self.identity
            out = []
            for a, row in enumerate(self.table):
                try:
                    out.append(row.index(e))
                except ValueError:
                    raise GroupFormatError(
                        f"element {a} has no inverse"
                    ) from None
            object.__setattr__(self, "_inverses", tuple(out))
        return self._inverses

    def element_order(self, a: int) -> int:
        e, x, k = self.identity, a, 1
        while x != e:
            x = self.table[x][a]
            k += 1
        return k

    def conjugate(self, a: int, g: int) -> int:
        """a^g = g^-1 a g."""
        return self.mul(self.mul(self.inv(g), a), g)

    def check_latin(self) -> None:
        """Every row and every column is a permutation of the elements:
        O(order^2), so it runs at every order."""
        full = set(range(self.order))
        for name, lines in (("row", self.table), ("column", zip(*self.table))):
            for a, line in enumerate(lines):
                if set(line) != full:
                    raise GroupFormatError(
                        f"{name} {a} repeats an element; not a Latin square"
                    )

    def check_axioms(self) -> tuple[int, ...]:
        """Identity and inverse laws, then Light's associativity test
        (Clifford & Preston 1961, 1.2) over a greedy generating set: s
        passes when (x s) y = x (s y) for all x, y.  The elements that
        pass are closed under the product, so the table is associative
        once the passing generators reach every element.  A group needs
        at most log2(order) of them: O(order^2 log order) in all.
        Returns that generating set, in increasing order."""
        e, table = self.identity, self.table
        for a in range(self.order):
            if table[e][a] != a or table[a][e] != a:
                raise GroupFormatError(f"identity law fails at {a}")
        self.inverses  # raises if some element lacks an inverse
        gens, reached = [], {e}
        while len(reached) < self.order:
            s = next(a for a in range(self.order) if a not in reached)
            s_row = table[s]
            for x, row in enumerate(table):
                xs_row = table[row[s]]  # (x s) y for every y
                if xs_row != tuple(map(row.__getitem__, s_row)):
                    y = next(
                        y for y, sy in enumerate(s_row) if xs_row[y] != row[sy]
                    )
                    raise GroupFormatError(
                        f"associativity fails at ({x},{s},{y})"
                    )
            gens.append(s)
            stack = list(reached)
            while stack:
                row = table[stack.pop()]
                for y in map(row.__getitem__, gens):
                    if y not in reached:
                        reached.add(y)
                        stack.append(y)
        return tuple(gens)


def enumerate_elements(g: PermGroup, cap: int = 100_000) -> list[Permutation]:
    """Every element of <generators>: the identity first, the rest in
    breadth-first order, applying generators in their listed order."""
    elements = [g.identity()]
    seen = set(elements)
    for x in elements:  # grows while it is walked: a queue
        for gen in g.generators:
            y = x * gen
            if y not in seen:
                if len(elements) >= cap:
                    raise SizeOverflowError(f"closure exceeds cap {cap}")
                seen.add(y)
                elements.append(y)
    return elements


@dataclass(frozen=True)
class ConjugacyClassing:
    class_of: tuple[int, ...]
    representatives: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.representatives)


def conjugacy_classes(g: FiniteGroup) -> ConjugacyClassing:
    """Classes ordered by (element order, class size, least element index)."""
    n = g.order
    unseen = set(range(n))
    raw = []
    while unseen:
        a = min(unseen)
        cls = {g.conjugate(a, x) for x in range(n)}
        unseen -= cls
        raw.append(sorted(cls))
    raw.sort(key=lambda cls: (g.element_order(cls[0]), len(cls), cls[0]))
    class_of = [0] * n
    reps, sizes = [], []
    for k, cls in enumerate(raw):
        for a in cls:
            class_of[a] = k
        reps.append(cls[0])
        sizes.append(len(cls))
    return ConjugacyClassing(tuple(class_of), tuple(reps), tuple(sizes))


def commutator_subgroup(g: FiniteGroup) -> frozenset[int]:
    """G' as the normal closure of the commutators [s, t] of a generating
    set, whose quotient is abelian.  Each new normal generator re-closes
    the subgroup under products, at least doubling it, and queues its
    conjugates by the generators until nothing new appears."""
    gens = g.generators
    mul, inv = g.mul, g.inv
    todo = [
        mul(mul(inv(s), inv(t)), mul(s, t))
        for i, s in enumerate(gens)
        for t in gens[:i]
    ]
    closed, normal_gens = {g.identity}, []
    while todo:
        c = todo.pop()
        if c in closed:
            continue
        normal_gens.append(c)
        frontier = list(closed)
        while frontier:
            x = frontier.pop()
            for n in normal_gens:
                y = mul(x, n)
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
        todo.extend(mul(mul(inv(s), c), s) for s in gens)
    return frozenset(closed)


def two_part(n: int) -> int:
    m = 1
    while n % 2 == 0:
        n //= 2
        m *= 2
    return m


def sylow2_is_cyclic(g: FiniteGroup) -> bool:
    """True iff the Sylow 2-subgroup is nontrivial and cyclic.

    A 2-group is cyclic iff it has an element of full order, and Sylow
    subgroups are conjugate, so one witness element settles it.  The
    trivial Sylow subgroup (odd order) deliberately counts as non-cyclic
    here: odd-order groups always admit a complete mapping.
    """
    m = two_part(g.order)
    if m == 1:
        return False
    return any(g.element_order(a) == m for a in range(g.order))


# ---------------------------------------------------------------------------
# catalog constructors


def _from_elements(elements, mul, gens) -> FiniteGroup:
    """The table of an associative mul on `elements`, generated by `gens`.

    Row x lists the index of x*b for each b.  Only the generators' rows
    are multiplied out, and s*e0 = s for each generator s proves that
    elements[0] is the identity, whose row is 0..n-1.  Since (x s) b =
    x (s b), the row of x*s is row x read through row s: a walk from the
    identity fills every row with one tuple lookup per entry (Holt, Eick
    & O'Brien, Handbook of Computational Group Theory, 2005)."""
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    steps = []  # (index of s, row s as a reader of rows)
    for s in gens:
        row_s = tuple(index[mul(s, b)] for b in elements)
        if row_s[0] != index[s]:
            raise GroupFormatError("element 0 is not the identity")
        steps.append((index[s], operator.itemgetter(*row_s)))
    rows = [tuple(range(n))] + [None] * (n - 1)
    walk = [0]
    for x in walk:  # grows while it is walked: a queue
        row_x = rows[x]
        for s, read in steps:
            y = row_x[s]
            if rows[y] is None:
                rows[y] = read(row_x)
                walk.append(y)
    if len(walk) < n:
        raise GroupFormatError(f"the generators reach {len(walk)} of {n}")
    return FiniteGroup(n, tuple(rows), tuple(sorted(index[e] for e in gens)))


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise GroupFormatError("cyclic order must be >= 1")
    _check_order(n)
    return _from_elements(
        list(range(n)), lambda a, b: (a + b) % n, [1 % n] if n > 1 else []
    )


def dihedral_group(order: int) -> FiniteGroup:
    """Dihedral group of the given order (order = 2n, n >= 1)."""
    if order < 2 or order % 2:
        raise GroupFormatError("dihedral order must be even and >= 2")
    _check_order(order)
    n = order // 2

    def mul(a, b):
        (i, s), (j, t) = a, b
        # s marks a reflection; r^i s * r^j t = r^(i-j) s t when s flips
        return ((i - j) % n if s else (i + j) % n, s ^ t)

    # rotations and reflections interleaved; an all-rotations prefix
    # makes the complete-mapping search degenerate
    elements = [(i, s) for i in range(n) for s in (0, 1)]
    return _from_elements(elements, mul, [(1 % n, 0), (0, 1)])


def _compose(p, q):  # image tuples, multiplied as Permutation.__mul__ does
    return tuple(map(q.__getitem__, p))


def symmetric_group(n: int) -> FiniteGroup:
    _check_order(_factorial(n))
    gens = []
    if n >= 2:
        gens.append((1, 0, *range(2, n)))  # (0 1)
    if n >= 3:
        gens.append((*range(1, n), 0))
    elements = list(itertools.permutations(range(n)))
    return _from_elements(elements, _compose, gens)


def alternating_group(n: int) -> FiniteGroup:
    _check_order(_factorial(n) // 2)
    elements = [
        p for p in itertools.permutations(range(n))
        if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0
    ]
    gens = []
    if n >= 3:
        gens.append((1, 2, 0, *range(3, n)))  # (0 1 2)
    if n >= 4:
        gens.append((*range(1, n), 0) if n % 2 else (0, *range(2, n), 1))
    return _from_elements(elements, _compose, gens)


def elementary_abelian_group(p: int, k: int) -> FiniteGroup:
    if k < 0:
        raise GroupFormatError("elementary rank must be >= 0")
    _check_order(_power(p, k))
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise GroupFormatError(f"{p} is not prime")
    elements = list(itertools.product(range(p), repeat=k))
    gens = [tuple(1 if i == j else 0 for i in range(k)) for j in range(k)]
    return _from_elements(
        elements, lambda a, b: tuple((x + y) % p for x, y in zip(a, b)), gens
    )


def quaternion_group() -> FiniteGroup:
    # quaternion units as (sign, axis) with axis 0=1, 1=i, 2=j, 3=k
    mul_axis = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def mul(a, b):
        (sa, xa), (sb, xb) = a, b
        s, x = mul_axis[(xa, xb)]
        return (sa * sb * s, x)

    elements = [(1, 0), (-1, 0), (1, 1), (-1, 1),
                (1, 2), (-1, 2), (1, 3), (-1, 3)]
    return _from_elements(elements, mul, [(1, 1), (1, 2)])


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    _check_order(g.order * h.order)
    # diagonal traversal keeps either factor from forming a long prefix,
    # which would degrade the complete-mapping search
    elements = sorted(
        ((a, b) for a in range(g.order) for b in range(h.order)),
        key=lambda e: (e != (g.identity, h.identity), e[0] + e[1], e[0]),
    )

    def mul(x, y):
        return (g.mul(x[0], y[0]), h.mul(x[1], y[1]))

    gens = [(a, h.identity) for a in g.generators] + [
        (g.identity, b) for b in h.generators
    ]
    return _from_elements(elements, mul, gens)


def read_group_file(path) -> FiniteGroup:
    """Text format, read as whitespace-separated tokens: 'order n', the
    n x n table row by row, then optionally 'labels' and n labels, which
    are checked for count and otherwise ignored."""
    tokens = Path(path).read_text().split()
    if tokens[:1] != ["order"]:
        raise GroupFormatError(f"{path}: expected 'order n' header")
    try:
        n = int(tokens[1])
    except (IndexError, ValueError) as exc:
        raise GroupFormatError(f"{path}: bad order {tokens[1:2]}") from exc
    if n < 1:
        raise GroupFormatError(f"{path}: order must be >= 1")
    _check_order(n)
    end = 2 + n * n
    if len(tokens) < end:
        raise GroupFormatError(f"{path}: truncated table")
    trailer = tokens[end:]
    if trailer and (trailer[0] != "labels" or len(trailer) != n + 1):
        raise GroupFormatError(
            f"{path}: a trailer must be 'labels' and {n} labels"
        )
    try:
        entries = [int(t) for t in tokens[2:end]]
    except ValueError as exc:
        raise GroupFormatError(f"{path}: {exc}") from exc
    if any(e < 0 or e >= n for e in entries):
        raise GroupFormatError(f"{path}: table entry out of range")
    table = tuple(tuple(entries[i * n : (i + 1) * n]) for i in range(n))
    try:
        ident = table.index(tuple(range(n)))
    except ValueError:
        raise GroupFormatError(f"{path}: table has no identity") from None
    unchecked = FiniteGroup(n, table, (), ident)
    unchecked.check_latin()
    return FiniteGroup(n, table, unchecked.check_axioms(), ident)


_FAMILIES = {  # name: (order from N, constructor)
    **dict.fromkeys(("cyclic", "c", "z"), (int, cyclic_group)),
    **dict.fromkeys(("dihedral", "d"), (int, dihedral_group)),
    **dict.fromkeys(("symmetric", "s"), (_factorial, symmetric_group)),
    **dict.fromkeys(("alternating", "a"),
                    (lambda n: _factorial(n) // 2 or 1, alternating_group)),
}


def _factor(spec: str, read) -> tuple[int, Callable[[], FiniteGroup]]:
    """(order, build) for one factor of a descriptor: the order is known
    before any table is built, but a table file is read to learn it."""
    words = spec.lower().split()
    m = re.fullmatch(r"([a-z]+) ?(\d+)", " ".join(words))
    if m and m[1] in _FAMILIES:
        order, build = _FAMILIES[m[1]]
        n = int(m[2])
        return order(n), functools.partial(build, n)
    if words[:1] == ["elementary"] and len(words) == 3:
        p, k = int(words[1]), int(words[2])
        return _power(p, k), functools.partial(elementary_abelian_group, p, k)
    if words in (["klein"], ["v4"]):
        return 4, functools.partial(elementary_abelian_group, 2, 2)
    if words in (["quaternion8"], ["q8"]):
        return 8, quaternion_group
    if Path(spec).is_file():
        g = read(spec)
        return g.order, lambda: g
    raise GroupFormatError(f"unknown group descriptor: {spec!r}")


def make_group(spec: str, read=read_group_file) -> FiniteGroup:
    """Build a catalog group from a descriptor.

    Accepted, in any case and spacing: 'cyclic N' / 'zN' / 'cN',
    'dihedral N' / 'dN' (N = order), 'symmetric N' / 'sN', 'alternating
    N' / 'aN', 'elementary P K', 'klein' / 'v4', 'quaternion8' / 'q8',
    direct products 'A x B', or a path to a table file, which
    read(path) reads (read_group_file by default).  A catalog name
    wins over a file of the same name.  The order of a product is
    checked against the table bound before any catalog factor is built;
    a table file is read first, to learn its order.
    """
    factors = [_factor(s.strip(), read) for s in spec.strip().split(" x ")]
    _check_order(math.prod(order for order, _ in factors))
    return functools.reduce(direct_product, (build() for _, build in factors))


def regular_perm_group(g: FiniteGroup) -> PermGroup:
    """Right-regular action of g on its own elements."""
    gens = tuple(
        Permutation(tuple(g.mul(a, s) for a in range(g.order)))
        for s in g.generators
    )
    return PermGroup(g.order, gens)


def pair_action(g: PermGroup) -> tuple[PermGroup, list[tuple[int, int]]]:
    """Induced action on unordered point pairs; returns the pair list in
    lexicographic order alongside the group."""
    pairs = [
        (i, j) for i in range(g.degree) for j in range(i + 1, g.degree)
    ]
    index = {p: k for k, p in enumerate(pairs)}
    gens = []
    for gen in g.generators:
        images = []
        for (i, j) in pairs:
            a, b = gen(i), gen(j)
            images.append(index[(min(a, b), max(a, b))])
        gens.append(Permutation(tuple(images)))
    return PermGroup(len(pairs), tuple(gens)), pairs
