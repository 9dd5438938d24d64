"""Matrix representations over F_2 and conjugation-orbit machinery.

A matrix is bit-packed: a row is a Python int with bit j for column j,
so row reduction and multiplication are word-parallel XORs.  Only F_2
is implemented, as the J4 representation and the fingerprints live
there; the constructors and the matrix file reader reject any other
field with MatrixError.  Every product goes through Four-Russians
tables (Albrecht, Bard & Hart, ACM TOMS 2010): table k of a matrix
holds the XOR of every subset of its rows 8k..8k+7, so a row vector
times the matrix is one lookup per byte of the vector, made by the
straight-line code t0[b0] ^ t1[b1] ^ ... compiled once per table count.

The fingerprint of a pair of involutions (x, y) is the 4-tuple of
subspace dimensions obtained from the recursion
V_{i+1} = V_i(1-x) + V_i(1-y) (two steps) together with
dim(V(1-x) + V(1-yxy)) and dim(V(1-y) + V(1-xyx)).  These are
conjugation invariants of the pair, and for a suitable action they
separate the orbitals, which lets collapsed adjacency matrices be
computed without ever enumerating the (possibly astronomical) point
set.

No full product is formed for a fingerprint.  B_x is an echelon basis
of A = V(1-x), from the rows x_i + e_i.  Over F_2, (1-x)^2 = 1 + x^2,
so x is an involution exactly when B_x x = B_x.  This is checked for
both arguments of a fingerprint and for every row of a collapsed matrix,
but not for orbit elements: each is conjugate to a, and so to every row
involution t a t^-1, which has passed.  With B = V(1-y),
U = B(1-x) inside A, W = A(1-y) inside B and K = A meet B,

    d1  = dim(A + B)  = dim A + dim B - dim K
    d2p = dim(B + Bx) = dim(B + U) = dim B - dim K + dim(K + U)
    d1p = dim(A + Ay) = dim(A + W) = dim A - dim K + dim(K + W)
    d2  = dim(U + W)  = dim U + dim W - dim((U meet K) meet (W meet K))

as U meet W lies in K.  d2 holds because V_1(1-x) = V(1-y)(1-x), as
(1-x)^2 = 0, and d1p because V(1-yxy) = Vy(1-x)y = V(1-x)y; d2p
likewise.  A pair costs four eliminations into pivot lists indexed by
bit length and at most dim A + dim B row products.  The
intersections are Zassenhaus's: over a basis of one space shifted
above the n low bits, insert each vector v of the other tagged as
v << n | v.  A row whose high part vanishes leaves its tag, a vector
of the intersection, in the low slots; the rest land above bit n, and
each dimension above is a count of landings.  B_y tagged over B_x
leaves K in the low slots, and U and W tagged over K leave U meet K
and W meet K; the last elimination inserts one into the other.  As
(1-x) kills A, which contains K, U is spanned by b(1-x) = b + bx over
the vectors b of B_y whose leading bit leads no vector of K's echelon
basis (they span a complement of K in B); W likewise, from B_x and y.

As the fingerprint is invariant under simultaneous conjugation,
fingerprint(a, t^-1 m t) = fingerprint(t a t^-1, m): a collapsed matrix
conjugates a once per row and builds the data of its rows once; row 0,
with rep 0 in C(a), is one pair.  The breadth-first closure streams
each orbit element with the tables that form its images; those tables
also serve the element's fingerprints and are dropped before the next
element, so a collapsed matrix keeps tables for O(rank) involutions,
not O(|orbit|).  Forming m' = h^-1 m h also gives m'^(h^-1) = m, so
an image under an involutory conjugator, or under one whose inverse is
listed too, marks its way back as known and that return image is never
formed.  Every orbit element is conjugate to a, so its echelon basis is
complete once rank(1 + a) rows of 1 + m have landed and the elimination
stops there.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple


class MatrixError(ValueError):
    pass


class WordError(ValueError):
    pass


class UnknownOrbitalError(ValueError):
    """A computed fingerprint is absent from the classification table;
    usually means wrong generators or the wrong representation."""


def _subset_xor_tables(rows) -> list[list[int]]:
    """Four-Russians tables: entry s of table k is the XOR of the rows
    8k + i over the bits i of s.  A shorter last chunk gives a shorter
    table, which the bits of a row (all below dim) never overrun."""
    tables = []
    for k in range(0, len(rows), 8):
        table = [0]
        for r in rows[k:k + 8]:
            table += [t ^ r for t in table]
        tables.append(table)
    return tables


_KERNELS: dict = {}  # table count -> make(t0, t1, ...) -> v -> v M


def _times(tables):
    """v -> v M for the matrix M whose tables these are, as straight-line
    code from a fixed template, compiled once per table count."""
    k = len(tables)
    if k not in _KERNELS:
        t, b = ([f"{c}{j}" for j in range(k)] for c in "tb")
        exec(f"def make({', '.join(t)}):\n def times(v):\n"
             f"  [{', '.join(b)}] = v.to_bytes({k}, 'little')\n"
             f"  return {' ^ '.join(map('{}[{}]'.format, t, b)) or 0}\n"
             " return times", namespace := {})
        _KERNELS[k] = namespace["make"]
    return _KERNELS[k](*tables)


def _check_field(p: int) -> None:
    if p != 2:
        raise MatrixError(f"only F_2 is supported, not F_{p}")


class BitMatrix:
    """Square matrix over F_2 with bit-packed rows.  The field argument
    of the constructors must be 2."""

    __slots__ = ("dim", "rows")
    p = 2

    def __init__(self, p: int, dim: int, rows):
        _check_field(p)
        if dim > 4096:
            raise MatrixError("dimension above supported bound 4096")
        self.dim = dim
        mask = (1 << dim) - 1
        self.rows = tuple(r & mask for r in rows)
        if len(self.rows) != dim:
            raise MatrixError("row count != dim")

    # -- construction ------------------------------------------------

    @staticmethod
    def identity(p: int, dim: int) -> "BitMatrix":
        return BitMatrix(p, dim, [1 << i for i in range(dim)])

    @staticmethod
    def from_entries(p: int, entries) -> "BitMatrix":
        dim = len(entries)
        rows = [sum((row[j] & 1) << j for j in range(dim)) for row in entries]
        return BitMatrix(p, dim, rows)

    def entry(self, i: int, j: int) -> int:
        return (self.rows[i] >> j) & 1

    # -- arithmetic --------------------------------------------------

    def __mul__(self, other: "BitMatrix") -> "BitMatrix":
        if self.dim != other.dim:
            raise MatrixError("shape mismatch")
        times = _times(_subset_xor_tables(other.rows))
        return BitMatrix(2, self.dim, map(times, self.rows))

    def inverse(self) -> "BitMatrix":
        """Eliminate the rows (r_i << n) | 1 << i in a pivot list: row j
        is the low half of the pivot leading at bit n + j plus rows k for
        its high bits n + k, k < j, summed through subset tables that are
        filled row by row, in place, under one kernel."""
        n = self.dim
        pivots = [0] * (2 * n + 1)
        rows = ((r << n) | 1 << i for i, r in enumerate(self.rows))
        if _insert(pivots, rows, n) < n:
            raise MatrixError("matrix is singular")
        mask = (1 << n) - 1
        tables = [[0] for _ in range(0, n, 8)]
        times, inv = _times(tables), []
        for j, r in enumerate(pivots[n + 1:]):
            inv.append(r & mask ^ times(r >> n ^ 1 << j))
            tables[j // 8] += [t ^ inv[j] for t in tables[j // 8]]
        return BitMatrix(2, n, inv)

    def conjugate_by(self, g: "BitMatrix") -> "BitMatrix":
        return g.inverse() * self * g

    def order(self, cutoff: int = 10_000) -> int:
        """The least k <= cutoff with self^k = 1: self's tables are built
        once, and each power's rows map through them to the next's."""
        ident = tuple(1 << i for i in range(self.dim))
        times = _times(_subset_xor_tables(self.rows))
        rows = self.rows
        for k in range(1, cutoff + 1):
            if rows == ident:
                return k
            rows = tuple(map(times, rows))
        raise MatrixError(f"order exceeds cutoff {cutoff}")

    # -- identity and hashing ---------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, BitMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"BitMatrix(p=2, dim={self.dim})"


# ---------------------------------------------------------------------------
# matrix file I/O


def parse_matrix_file(path) -> list[BitMatrix]:
    """Header 'p nmats dim dim' with p = 2, then each matrix as dim lines
    of dim binary digits, optionally whitespace-separated."""
    lines = Path(path).read_text().split("\n")
    rows_iter = ((k + 1, ln.strip()) for k, ln in enumerate(lines) if ln.strip())
    try:
        _, head = next(rows_iter)
    except StopIteration:
        raise MatrixError(f"{path}: empty file") from None
    try:
        p, nmats, dim, dim2 = map(int, head.split())
    except ValueError as exc:
        raise MatrixError(f"{path}: bad header {head!r}") from exc
    _check_field(p)
    if dim != dim2:
        raise MatrixError(f"{path}: matrices must be square")
    mats = []
    for _ in range(nmats):
        entries = []
        for _ in range(dim):
            try:
                lineno, line = next(rows_iter)
            except StopIteration:
                raise MatrixError(f"{path}: truncated matrix data") from None
            row = line.split()
            if len(row) == 1:  # packed digits
                row = list(row[0])
            if len(row) != dim:
                raise MatrixError(
                    f"{path}:{lineno}: expected {dim} entries, got {len(row)}"
                )
            if any(x not in ("0", "1") for x in row):
                raise MatrixError(f"{path}:{lineno}: entry out of field range")
            entries.append([int(x) for x in row])
        mats.append(BitMatrix.from_entries(2, entries))
    if next(rows_iter, None) is not None:
        raise MatrixError(f"{path}: trailing data after {nmats} matrices")
    return mats


# ---------------------------------------------------------------------------
# words in the generators


_TOKEN = re.compile(r"[A-Za-z]|-?[0-9]+|[][(){},^]|(\S)")
_CLOSE = {"(": ")", "{": "}", "[": "]"}


def eval_word(env: dict, text: str):
    """Evaluate a word over named elements, multiplying as it parses:

    word  := term*
    term  := atom ('^' (int | atom))*
    atom  := symbol | '(' word ')' | '{' word '}' | '[' word ',' word ']'

    A symbol is one ASCII letter and an int is -?[0-9]+; whitespace
    between tokens is skipped.  '^' with an int is a power, with an atom
    it is conjugation (x^y = y^-1 x y); '[x,y]' is the commutator
    x^-1 y^-1 x y.  Powers bind tighter than juxtaposition, so ab^2 is
    a(b^2).  Elements need only '*', .inverse() and equality; both
    BitMatrix and Permutation qualify.  The empty word and x^0 are the
    identity, derived from any element of the environment.
    """
    if not env:
        raise WordError("empty environment")
    some = next(iter(env.values()))
    tokens = []
    for m in _TOKEN.finditer(text):
        if m.group(1):
            raise WordError(f"bad character {m.group(1)!r} at position {m.start()}")
        tokens.append(m.group())
    tokens = [""] + tokens[::-1]  # pop() takes the next token; "" ends

    def expect(close):
        if (tok := tokens.pop()) != close:
            raise WordError(f"expected {close or 'end'!r}, got {tok or 'end'!r}")

    def word():
        out = None
        while tokens[-1].isalpha() or tokens[-1] in _CLOSE:
            x = term()
            out = x if out is None else out * x
        return some * some.inverse() if out is None else out

    def term():
        x = atom()
        while tokens[-1] == "^":
            tokens.pop()
            if tokens[-1][-1:].isdigit():
                x = power(x, tokens.pop())
            else:
                y = atom()
                x = y.inverse() * x * y
        return x

    def power(x, digits):
        try:
            k = int(digits)
        except ValueError:  # longer than int() converts
            raise WordError(f"exponent of {len(digits)} digits") from None
        if k < 0:
            x, k = x.inverse(), -k
        if not k:
            return some * some.inverse()
        out = x
        for bit in bin(k)[3:]:  # the bits below the leading one
            out = out * out
            if bit == "1":
                out = out * x
        return out

    def atom():
        tok = tokens.pop()
        if tok.isalpha():
            if tok not in env:
                raise WordError(f"unknown symbol {tok!r}")
            return env[tok]
        if tok in _CLOSE:
            x = word()
            if tok == "[":
                expect(",")
                y = word()
                x = x.inverse() * y.inverse() * x * y
            expect(_CLOSE[tok])
            return x
        raise WordError(f"unexpected token {tok or 'end'!r}")

    try:
        out = word()
    except RecursionError:
        raise WordError("word nested too deeply") from None
    expect("")
    return out


def standard_environment(a: BitMatrix, b: BitMatrix) -> dict:
    """The working alphabet: generators a, b plus the derived elements
    t = (ab^2)^4, c = ab and d = ba."""
    env = {"a": a, "b": b}
    env["t"] = eval_word(env, "(ab^2)^4")
    env["c"] = eval_word(env, "ab")
    env["d"] = eval_word(env, "ba")
    return env


# ---------------------------------------------------------------------------
# standard generator verification


@dataclass(frozen=True)
class StandardGeneratorReport:
    checks: tuple[tuple[str, int, int], ...]  # (what, expected, actual)

    @property
    def passed(self) -> bool:
        return all(exp == act for _, exp, act in self.checks)


def verify_standard_generators(
    a: BitMatrix, b: BitMatrix
) -> StandardGeneratorReport:
    """Order conditions pinning the generating pair up to conjugacy:
    o(a)=2, o(b)=4, o(ab)=37, o(abab^2)=10.  Conjugacy-class membership
    beyond element order is not (and cannot be) checked here."""
    env = {"a": a, "b": b}
    checks = []
    for word, expected in (("a", 2), ("b", 4), ("ab", 37), ("abab^2", 10)):
        try:
            actual = eval_word(env, word).order(cutoff=200)
        except MatrixError:
            actual = -1
        checks.append((f"order({word})", expected, actual))
    return StandardGeneratorReport(tuple(checks))


# ---------------------------------------------------------------------------
# subspace fingerprints


@dataclass(frozen=True)
class Fingerprint:
    d1: int
    d2: int
    d1p: int
    d2p: int

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.d1, self.d2, self.d1p, self.d2p)


def _insert(pivots: list[int], vectors, above: int, stop: int = -1) -> int:
    """Reduce each vector against the pivot list (slot k holds the row of
    bit length k, or 0) and file what is left in its slot; returns how
    many vectors landed in a slot above `above`, stopping once `stop`
    have."""
    landed = 0
    for v in vectors:
        while row := pivots[v.bit_length()]:
            v ^= row
        if v:
            k = v.bit_length()
            pivots[k] = v
            landed += k > above
            if landed == stop:
                break
    return landed


class _Involution(NamedTuple):
    """What a fingerprint needs of an involution x: an echelon basis B_x,
    v -> vx, and B_x shifted above the n low bits as a pivot list of
    2n + 1 slots (module docstring)."""

    basis: list[int]
    times: Callable[[int], int]
    shifted: list[int]

    @staticmethod
    def of(rows, times=None, rank=-1) -> "_Involution":
        """x's data from its rows, unchecked; `times` is v -> vx if built.
        Given rank(1 + x), the elimination stops once that many rows of
        1 + x have landed, as the rest lie in their span."""
        n = len(rows)
        pivots = [0] * (n + 1)
        _insert(pivots, (r ^ 1 << i for i, r in enumerate(rows)), 0, rank)
        basis = [v for v in pivots if v]
        times = times or _times(_subset_xor_tables(rows))
        return _Involution(basis, times, [0] * n + [v << n for v in pivots])

    def checked(self) -> "_Involution":
        """self, once B_x x = B_x has shown that x^2 = 1."""
        if any(self.times(v) != v for v in self.basis):
            raise MatrixError("fingerprint needs involutions (x^2 = y^2 = 1)")
        return self


def _fingerprint(x: _Involution, y: _Involution) -> tuple[int, int, int, int]:
    """fingerprint(x, y) from the data of x and y; see module docstring."""
    xs, xt, shifted = x
    ys, yt, _ = y
    n = len(shifted) // 2
    # B_y tagged over B_x: K = A meet B is left in the low slots
    piv = shifted.copy()
    d1 = len(xs) + _insert(piv, [v << n | v for v in ys], n)
    k_shifted = [0] * n + [v << n for v in piv[:n + 1]]
    # U = B_y(1-x) and W = B_x(1-y), each tagged over K; the basis vectors
    # off K's pivots span complements of K, which 1-x and 1-y kill
    u = [v ^ xt(v) for v in ys if not piv[v.bit_length()]]
    w = [v ^ yt(v) for v in xs if not piv[v.bit_length()]]
    piv = k_shifted.copy()
    hu = _insert(piv, [v << n | v for v in u], n)
    hw = _insert(k_shifted, [v << n | v for v in w], n)
    # dim(U + W) = hu + hw + dim((U meet K) + (W meet K))
    _insert(piv, filter(None, k_shifted[:n + 1]), 0)
    d2 = hu + hw + n + 1 - piv[:n + 1].count(0)
    return d1, d2, len(xs) + hw, len(ys) + hu


def fingerprint(x: BitMatrix, y: BitMatrix) -> Fingerprint:
    """Conjugacy invariants of an involution pair; see module docstring."""
    if x.dim != y.dim:
        raise MatrixError("shape mismatch")
    xd, yd = (_Involution.of(m.rows).checked() for m in (x, y))
    return Fingerprint(*_fingerprint(xd, yd))


# ---------------------------------------------------------------------------
# centralizer generators and orbit closure


def centralizer_generators(
    a: BitMatrix, b: BitMatrix
) -> tuple[BitMatrix, BitMatrix]:
    """The two-generator words for the centralizer of a, evaluated and
    checked to commute with a.  That they generate the *full*
    centralizer is an external fact about the intended representation,
    not re-proved here."""
    env = {"a": a, "b": b}
    h1 = eval_word(env, "[a,b]^5(ab^2)^6")
    h2 = eval_word(env, "bab^2ab[a,bab^2ab]^5ababab[a,ababab]^5")
    if a == BitMatrix.identity(2, a.dim):
        raise MatrixError("degenerate input: a is the identity")
    for i, h in enumerate((h1, h2), start=1):
        if h * a != a * h:
            raise MatrixError(f"h{i} does not commute with a")
    return h1, h2


def _orbit(seed: BitMatrix, conjugators, kernels=None):
    """Close {seed} under m -> h^-1 m h for each conjugator, breadth
    first in listed order, yielding each element m with v -> vm, which
    then forms m's images; each h's v -> vh is built once or passed in
    `kernels`.  `seen` maps packed rows to a bit mask of the conjugators
    whose image of that element is already known, and only the queue
    holds matrices, so a streaming consumer holds the frontier, not the
    orbit.

    Forming m' = h^-1 m h also gives m'^(h^-1) = m, so m' is marked for
    every listed conjugator equal to h^-1 and that return image is never
    formed.  h^-1 is h when h h = 1, tested with h's own kernel, and
    h.inverse() otherwise.  A skipped image is one already seen, so the
    order of the orbit is that of the plain closure."""
    dim = seed.dim
    if any(h.dim != dim for h in conjugators):
        raise MatrixError("shape mismatch")
    kernels = kernels or [_times(_subset_xor_tables(h.rows)) for h in conjugators]
    ident = [1 << i for i in range(dim)]
    steps = []  # (h^-1's rows, v -> vh, h's bit, the bits of the h_j = h^-1)
    for k, (h, ht) in enumerate(zip(conjugators, kernels)):
        hinv = h.rows if list(map(ht, h.rows)) == ident else h.inverse().rows
        back = sum(1 << j for j, g in enumerate(conjugators) if g.rows == hinv)
        steps.append((hinv, ht, 1 << k, back))
    width = (dim + 7) // 8

    def packed(rows):
        return b"".join([r.to_bytes(width, "big") for r in rows])

    key = packed(seed.rows)
    queue = deque([(seed, key)])
    seen = {key: 0}
    while queue:
        m, key = queue.popleft()
        mt = _times(_subset_xor_tables(m.rows))
        yield m, mt
        known = seen[key]
        for hinv_rows, ht, bit, back in steps:
            if known & bit:
                continue
            rows = list(map(ht, map(mt, hinv_rows)))
            key = packed(rows)
            if key in seen:
                seen[key] |= back
            else:
                seen[key] = back
                queue.append((BitMatrix(2, dim, rows), key))


def orbit_closure(seed: BitMatrix, conjugators) -> list[BitMatrix]:
    """Close {seed} under m -> h^-1 m h for each conjugator.  Breadth
    first with conjugators applied in listed order, so the element
    order (and hence any serialized output) is reproducible."""
    return [m for m, _ in _orbit(seed, conjugators)]


# ---------------------------------------------------------------------------
# collapsed adjacency via fingerprints


def collapsed_adjacency_matrep(
    a: BitMatrix,
    b: BitMatrix,
    rep_words,
    fingerprint_table: dict[tuple[int, int, int, int], int],
    i: int,
    conjugators,
):
    """Collapsed adjacency matrix A_i for the conjugation action on the
    class of a, computed entirely inside the matrix representation.

    rep_words[j] conjugates a into orbital j (rep 0 must commute with a);
    it is a BitMatrix or a word over standard_environment(a, b), which
    is built only when some entry is a word.  The orbit is closed under
    `conjugators`, which must generate the centralizer of a; each is
    checked to commute with a.  None is implied: for J4,
    reproduce.collapsed passes the evaluated centralizer words.  The
    fingerprint table assigns each conjugate pair to its orbital.
    Unknown fingerprints raise UnknownOrbitalError; i out of range, a
    shape mismatch or rep 0 or a conjugator outside C(a), MatrixError.
    """
    from .orbitals import CollapsedAdjacency

    rank = len(rep_words)
    if not 0 <= i < rank:
        raise MatrixError(f"no orbital {i} (0-based) in rank {rank}")
    words = [w for w in rep_words if not isinstance(w, BitMatrix)]
    env = standard_environment(a, b) if words else None
    reps = [w if isinstance(w, BitMatrix) else eval_word(env, w) for w in rep_words]
    if any(m.dim != a.dim for m in (*conjugators, *reps)):
        raise MatrixError("shape mismatch")
    at, *kernels = [_times(_subset_xor_tables(m.rows)) for m in (a, *conjugators)]
    for k, (h, ht) in enumerate(zip(conjugators, kernels)):
        if list(map(at, h.rows)) != list(map(ht, a.rows)):
            raise MatrixError(f"conjugator {k} does not commute with a")

    def conjugate(t, tinv):  # the rows of t a tinv
        return list(map(_times(_subset_xor_tables(tinv.rows)), map(at, t.rows)))

    inverses = [t.inverse() for t in reps]
    # fingerprint(a, t^-1 m t) = fingerprint(t a t^-1, m)
    conjugates = [conjugate(t, tinv) for t, tinv in zip(reps, inverses)]
    if conjugates[0] != list(a.rows):
        raise MatrixError("representative 0 does not commute with a")
    row_data = [_Involution.of(a.rows, at).checked()]
    row_data += [_Involution.of(rows).checked() for rows in conjugates[1:]]
    seed = BitMatrix(2, a.dim, conjugate(inverses[i], reps[i]))
    matrix = [[0] * rank for _ in range(rank)]
    pairs = list(zip(matrix, row_data))
    for size, (m, mt) in enumerate(_orbit(seed, conjugators, kernels), 1):
        # conjugate to a: no check, and rank(1 + m) = rank(1 + a)
        data = _Involution.of(m.rows, mt, len(row_data[0].basis))
        for row, aj in pairs if size == 1 else pairs[1:]:
            fp = _fingerprint(aj, data)
            try:
                row[fingerprint_table[fp]] += 1
            except KeyError:
                msg = f"fingerprint {fp} not in classification table"
                raise UnknownOrbitalError(msg) from None
    # the conjugators centralize a, so every element pairs with a in the
    # seed's orbital: row 0 holds |orbit| where the seed put its 1
    matrix[0] = [size * c for c in matrix[0]]
    return CollapsedAdjacency(i, tuple(map(tuple, matrix)))
