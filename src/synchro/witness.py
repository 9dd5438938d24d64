"""Certificates for non-synchronization and non-separation.

A sync witness is a pair (A, P): every translate Ag is a transversal of
the partition P.  A sep witness is a pair (A, B) with |A||B| = |Omega|
and every translate Ag meeting B exactly once.  The two transfer into
each other through exact factorisations of a regular subgroup, and this
module implements those transfers as verified pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup, PermGroup, enumerate_elements


class WitnessError(ValueError):
    """A precondition or invariant of a witness object fails."""


@dataclass(frozen=True)
class SyncWitness:
    A: frozenset[int]
    P: tuple[frozenset[int], ...]


@dataclass(frozen=True)
class SepWitness:
    A: frozenset[int]
    B: frozenset[int]


@dataclass(frozen=True)
class ExactFactorisation:
    H: FiniteGroup
    A: frozenset[int]
    B: frozenset[int]


def make_sync_witness(A, P) -> SyncWitness:
    A = frozenset(A)
    parts = canonical_partition(P)
    if len(A) <= 1:
        raise WitnessError("|A| must exceed 1")
    if len(parts) <= 1 or all(len(p) == 1 for p in parts):
        raise WitnessError("partition must be non-trivial")
    return SyncWitness(A, parts)


def make_sep_witness(A, B, num_points: int) -> SepWitness:
    A, B = frozenset(A), frozenset(B)
    if len(A) <= 1 or len(B) <= 1:
        raise WitnessError("|A| and |B| must exceed 1")
    if len(A) * len(B) != num_points:
        raise WitnessError(
            f"|A|*|B| = {len(A) * len(B)} != {num_points} points"
        )
    return SepWitness(A, B)


def canonical_partition(P, points=None) -> tuple[frozenset[int], ...]:
    """The parts of P, least element first, once checked: no part is
    empty, no element lies in two parts (the first repeat is named), and
    when `points` is given the parts cover exactly those points."""
    parts = [frozenset(p) for p in P]
    if not all(parts):
        raise WitnessError("partition has an empty part")
    covered: set[int] = set()
    for part in parts:
        if dup := covered & part:
            raise WitnessError(f"element {min(dup)} lies in two parts")
        covered |= part
    if points is not None and covered != set(points):
        raise WitnessError(f"partition does not cover the {len(points)} points")
    return tuple(sorted(parts, key=min))


def verify_sync_witness(g: PermGroup, w: SyncWitness):
    """None when every translate of A is a transversal of P, which must
    partition the group's points; otherwise the first (element, part)
    failure.  Elements are enumerated breadth-first, without a table."""
    canonical_partition(w.P, range(g.degree))
    for perm in enumerate_elements(g, cap=10**6):
        Ag = {perm(a) for a in w.A}
        for part in w.P:
            if len(Ag & part) != 1:
                return (perm, part)
    return None


def verify_sep_witness(g: PermGroup, w: SepWitness):
    """None when |Ag n B| = 1 for every group element; otherwise the
    first failing element."""
    for perm in enumerate_elements(g, cap=10**6):
        Ag = {perm(a) for a in w.A}
        if len(Ag & w.B) != 1:
            return perm
    return None


def sync_witness_to_sep(g: PermGroup, w: SyncWitness) -> SepWitness:
    """Take B = the largest part of P.  A verified sync witness of a
    transitive group forces all parts equal-sized, which is asserted."""
    if verify_sync_witness(g, w) is not None:
        raise WitnessError("sync witness does not verify")
    sizes = {len(p) for p in w.P}
    if len(sizes) != 1:
        raise WitnessError(f"parts have unequal sizes {sorted(sizes)}")
    B = max(w.P, key=lambda p: (len(p), -min(p)))
    num_points = sum(len(p) for p in w.P)
    return make_sep_witness(w.A, B, num_points)


def witness_to_factorisation(
    H: FiniteGroup, w: SepWitness
) -> ExactFactorisation:
    """For the right-regular action of H on itself, a sep witness (A,B)
    yields the exact factorisation H = A^-1 * B."""
    A_inv = frozenset(H.inv(a) for a in w.A)
    seen: dict[int, tuple[int, int]] = {}
    for a in A_inv:
        for b in w.B:
            h = H.mul(a, b)
            if h in seen:
                raise WitnessError(
                    f"products collide: {seen[h]} and {(a, b)} both give {h}"
                )
            seen[h] = (a, b)
    if len(seen) != H.order:
        raise WitnessError("products do not cover the group")
    return ExactFactorisation(H, A_inv, frozenset(w.B))


def factorisation_to_partition(f: ExactFactorisation) -> tuple[frozenset[int], ...]:
    """The partition {Ab : b in B} of H induced by an exact
    factorisation; exactness is re-checked by `canonical_partition`, the
    parts taken in the order of b."""
    parts = (frozenset(f.H.mul(a, b) for a in f.A) for b in sorted(f.B))
    return canonical_partition(parts, range(f.H.order))
