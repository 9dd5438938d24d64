"""Complete mappings of finite groups.

A complete mapping of G is a bijection phi with g -> g*phi(g) also a
bijection; equivalently the Cayley table of G, viewed as a Latin square,
has an orthogonal mate.  Existence is decided by the Hall-Paige
criterion (Sylow 2-subgroups trivial or non-cyclic); the search here is
independent of the criterion so the two can be checked against each
other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from enum import Enum

from .groups import FiniteGroup, commutator_subgroup, sylow2_is_cyclic

DEFAULT_BUDGET = 10**9


class SearchStatus(Enum):
    FOUND = "found"
    NOT_FOUND = "not-found"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class CompleteMapping:
    group: FiniteGroup
    phi: tuple[int, ...]


@dataclass(frozen=True)
class SearchResult:
    status: SearchStatus
    mapping: CompleteMapping | None = None
    nodes: int = 0


def verify_complete_mapping(g: FiniteGroup, phi) -> bool:
    """True iff phi and psi(x) = x*phi(x) are both bijections on g."""
    phi = list(phi)
    if len(phi) != g.order or sorted(phi) != list(range(g.order)):
        return False
    psi = sorted(g.mul(x, phi[x]) for x in range(g.order))
    return psi == list(range(g.order))


def hall_paige_predicate(g: FiniteGroup) -> bool:
    """The (proved) Hall-Paige criterion for existence of a complete
    mapping: Sylow 2-subgroups are trivial or non-cyclic."""
    return not sylow2_is_cyclic(g)


def find_complete_mapping(
    g: FiniteGroup, budget: int = DEFAULT_BUDGET
) -> SearchResult:
    """Deterministic exact-cover search for a complete mapping.

    A complete mapping is a transversal of the Cayley Latin square: the
    items are rows x, phi-values v and psi-values x*v, and option
    x*n + v covers all three.  Knuth's Algorithm X ("Dancing Links",
    arXiv cs/0011047) branches on the item with fewest options left,
    smallest item first, trying its options in ascending order; the
    same group always yields the same mapping and node count.  `nodes`
    counts option selections.  Groups whose product of all elements
    falls outside the derived subgroup G' are refuted at the root (Hall
    and Paige's balance condition); G/G' is abelian, so the product may
    be taken in index order.  Budget exhaustion is a distinct
    outcome, never conflated with a completed refutation.
    """
    n = g.order
    if n % 2 == 1:
        # identity always works in odd order: psi(g) = g^2 is a bijection
        ident = tuple(range(n))
        assert verify_complete_mapping(g, ident)
        return SearchResult(
            SearchStatus.FOUND, CompleteMapping(g, ident), nodes=0
        )
    derived = commutator_subgroup(g)
    if functools.reduce(g.mul, range(n), g.identity) not in derived:
        return SearchResult(SearchStatus.NOT_FOUND, None, 0)

    options = [
        (x, n + v, 2 * n + w)
        for x, row in enumerate(g.table)
        for v, w in enumerate(row)
    ]
    cols: dict[int, set[int]] = {item: set() for item in range(3 * n)}
    for r, opt in enumerate(options):
        for item in opt:
            cols[item].add(r)

    def branch() -> list[int]:
        # options of the most constrained item, reversed so pop() ascends
        item = min(cols, key=lambda i: (len(cols[i]), i))
        return sorted(cols[item], reverse=True)

    def select(r: int) -> list[set[int]]:
        removed = []
        for j in options[r]:
            for i in cols[j]:
                for k in options[i]:
                    if k != j:
                        cols[k].discard(i)
            removed.append(cols.pop(j))
        return removed

    def deselect(r: int, removed: list[set[int]]) -> None:
        for j in reversed(options[r]):
            cols[j] = removed.pop()
            for i in cols[j]:
                for k in options[i]:
                    if k != j:
                        cols[k].add(i)

    nodes = 0
    path: list[tuple[int, list[set[int]]]] = []
    stack = [branch()]
    while stack:
        if len(path) == len(stack):
            # back from a failed subtree: undo this level's last choice
            deselect(*path.pop())
        if not stack[-1]:
            stack.pop()
            continue
        r = stack[-1].pop()
        nodes += 1
        if nodes > budget:
            return SearchResult(SearchStatus.BUDGET_EXHAUSTED, None, nodes)
        path.append((r, select(r)))
        if not cols:
            phi = [0] * n
            for chosen, _ in path:
                x, v = divmod(chosen, n)
                phi[x] = v
            mapping = CompleteMapping(g, tuple(phi))
            assert verify_complete_mapping(g, mapping.phi)
            return SearchResult(SearchStatus.FOUND, mapping, nodes)
        stack.append(branch())
    return SearchResult(SearchStatus.NOT_FOUND, None, nodes)
