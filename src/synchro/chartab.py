"""Character-table ingestion and class-algebra structure constants.

Tables are data files (JSON): class data plus character rows whose
values are numbers, [re, im] pairs, or strings in a closed grammar (int
and float literals, unary + -, binary + - * / **, the names I and pi,
one-argument sqrt and exp), e.g. "(1+sqrt(5))/2" or "exp(2*pi*I/3)".
Strings are evaluated in high-precision complex arithmetic by a walk
over their syntax tree, nothing else, and no subexpression may exceed
2^PRECISION_BITS in absolute value.  Both parts of an [re, im] pair
must be real, up to 2^-(PRECISION_BITS/2).  mpmath serves this parser
alone: every later step, the load's checks included, is on integers.
A brute-force counter over an explicit group is the formulas' oracle.

Structure constants are exact integer arithmetic.  At load each value
chi(g) is rounded once to the Gaussian integer x nearest chi(g) * 2^P,
P = PRECISION_BITS = 240.  Each row must have <chi,chi> = 1 to 1e-6, and
each degree chi(1) is kept as the int d >= 1 with |x - d 2^P| and |Im x|
at most 2^(P/2).  The
count of n-tuples with product 1 is K * sum_chi prod_i chi(g_i) /
chi(1)^(n-2), K = |G|^(n-1) / prod_i |C(g_i)|; with L the lcm of the
chi(1)^(n-2), the sum is formed exactly as sum_chi prod_i x_i *
(L / chi(1)^(n-2)) over L * 2^(nP), scaled by K as one rational, and
rounded once, behind a realness and an integrality guard (both 1e-3);
xi = count / |G|.  The load's rounding is the only inexact step.

Error bound.  Let every stored x / 2^P be within delta of the true
chi(g) (the rounding adds at most 2^-P / sqrt(2) to a parse error of a
few units in the last of P bits, so delta <= 2^-(P-8) M is generous),
M >= 1 the largest |chi(g)| and k the number of characters.  Each
product of n values is then off by at most n delta (M + delta)^(n-1),
the division by chi(1)^(n-2) >= 1 does not enlarge it, and so the
constant is off by at most K k n delta (M + delta)^(n-1), about
K k n M^n 2^-(P-8).  For the bundled tables (|G| <= 60, M <= 5, k <= 5,
n <= 4, so K <= 60^3) that is below 2^-190.  For J4's xi(2A, 2A, C)
(n = 3, K <= (|G| / |C(2A)|)^2 < 2^64, k = 62, M^2 <= |G| < 2^67) it
is below 2^-55.  Both guards sit at 1e-3, so a correct table never
trips them: they fire only on a table that is not a character table.
"""

from __future__ import annotations

import ast
import itertools
import json
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath

from .groups import ConjugacyClassing, FiniteGroup, conjugacy_classes

PRECISION_BITS = 240


class CharacterTableError(ValueError):
    pass


@dataclass(frozen=True)
class ClassInfo:
    name: str
    size: int
    centralizer_order: int
    element_order: int


@dataclass(frozen=True)
class CharacterTable:
    group_order: int
    classes: tuple[ClassInfo, ...]
    # each value as the Gaussian integer (re, im) nearest
    # value * 2^PRECISION_BITS, and each degree chi(1) as an int
    values: tuple[tuple[tuple[int, int], ...], ...]
    degrees: tuple[int, ...]

    def class_index(self, name: str) -> int:
        for i, c in enumerate(self.classes):
            if c.name == name:
                return i
        raise CharacterTableError(f"no class named {name!r}")


_OPERATORS = {
    ast.UAdd: operator.pos, ast.USub: operator.neg, ast.Add: operator.add,
    ast.Sub: operator.sub, ast.Mult: operator.mul, ast.Div: operator.truediv,
    ast.Pow: operator.pow,
}
_REAL_TOLERANCE = mpmath.mpf(2) ** -(PRECISION_BITS // 2)
_FUNCTIONS = {"sqrt": mpmath.sqrt, "exp": mpmath.exp}
_PARSE_ERRORS = (
    SyntaxError, RecursionError, MemoryError, ZeroDivisionError, ValueError
)


def _evaluate(node):
    match node:
        case ast.Constant(x) if type(x) in (int, float):
            value = mpmath.mpf(x)
        case ast.Name("I"):
            value = mpmath.j
        case ast.Name("pi"):
            value = +mpmath.pi
        case ast.UnaryOp(op, x) if type(op) in _OPERATORS:
            value = _OPERATORS[type(op)](_evaluate(x))
        case ast.BinOp(x, op, y) if type(op) in _OPERATORS:
            value = _OPERATORS[type(op)](_evaluate(x), _evaluate(y))
        case ast.Call(ast.Name(f), [x], []) if f in _FUNCTIONS:
            value = _FUNCTIONS[f](_evaluate(x))
        case _:
            raise ValueError(f"{ast.unparse(node)[:40]!r} not in the grammar")
    # bounds every exponent too: 9**9**9**9 would otherwise not finish
    if not mpmath.mag(value) <= PRECISION_BITS:
        raise ValueError(f"magnitude exceeds 2^{PRECISION_BITS}")
    return value


def _parse_value(v) -> mpmath.mpc:
    if isinstance(v, (int, float)):
        return mpmath.mpc(v)
    if isinstance(v, list) and len(v) == 2:
        real, imag = map(_parse_value, v)
        if max(abs(real.imag), abs(imag.imag)) > _REAL_TOLERANCE:
            raise CharacterTableError(f"non-real part in [re, im] {v!r:.80}")
        return mpmath.mpc(real.real, imag.real)
    if isinstance(v, str):
        try:
            with mpmath.workprec(PRECISION_BITS):
                return mpmath.mpc(_evaluate(ast.parse(v, mode="eval").body))
        except _PARSE_ERRORS as exc:
            raise CharacterTableError(
                f"bad character value {v[:80]!r}: {exc or type(exc).__name__}"
            ) from exc
    raise CharacterTableError(f"bad character value {v!r}")


def load_character_table(path) -> CharacterTable:
    """Load and validate a table: size laws and row orthonormality.
    Keys other than group_order, classes and characters are ignored."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise CharacterTableError(f"{path}: invalid JSON: {exc}") from exc
    with mpmath.workprec(PRECISION_BITS):
        try:
            return _validated_table(data, path)
        except (AttributeError, IndexError, KeyError, TypeError) as exc:
            raise CharacterTableError(f"{path}: malformed table: {exc!r}") from exc


def _validated_table(data, path) -> CharacterTable:
    order = data["group_order"]
    classes = tuple(
        ClassInfo(
            c["name"], c["size"], c["centralizer_order"], c["element_order"]
        )
        for c in data["classes"]
    )
    numbers = [order]
    for c in classes:
        numbers += [c.size, c.centralizer_order, c.element_order]
    if not all(type(x) is int and x > 0 for x in numbers):
        raise CharacterTableError(
            f"{path}: group order and class data must be positive integers"
        )
    if sum(c.size for c in classes) != order:
        raise CharacterTableError(
            f"{path}: class sizes sum to "
            f"{sum(c.size for c in classes)}, not {order}"
        )
    for c in classes:
        if c.size * c.centralizer_order != order:
            raise CharacterTableError(
                f"{path}: class {c.name}: size*centralizer != order"
            )
    if classes[0].size != 1 or classes[0].element_order != 1:
        raise CharacterTableError(
            f"{path}: first class must be the identity class"
        )
    rows = data["characters"]
    values = tuple(tuple(_scaled(_parse_value(v)) for v in r) for r in rows)
    one = 1 << PRECISION_BITS
    unit = order * one * one  # |G| <chi,chi> = |G| at the scale 2^(2P)
    degrees = []
    for ri, row in enumerate(values):
        if len(row) != len(classes):
            raise CharacterTableError(
                f"{path}: character row {ri} has wrong length"
            )
        norm = sum(c.size * (x * x + y * y) for c, (x, y) in zip(classes, row))
        if 10**6 * abs(norm - unit) > unit:
            raise CharacterTableError(
                f"{path}: character row {ri} fails <chi,chi> = 1 "
                f"(got {norm / unit:.10g})"
            )
        x, y = row[0]
        d = (x + one // 2) >> PRECISION_BITS
        if d < 1 or max(abs(x - d * one), abs(y)) > 1 << PRECISION_BITS // 2:
            raise CharacterTableError(
                f"{path}: character row {ri} has degree "
                f"{complex(x / one, y / one)}, not a positive integer"
            )
        degrees.append(d)
    return CharacterTable(order, classes, values, tuple(degrees))


def _scaled(v: mpmath.mpc) -> tuple[int, int]:
    return tuple(
        int(mpmath.nint(mpmath.ldexp(part, PRECISION_BITS)))
        for part in (v.real, v.imag)
    )


def structure_constant_hat(t: CharacterTable, *class_names: str) -> int:
    """Number of tuples (x_1,...,x_n), x_i in the i-th class, with
    product 1: |G|^(n-1) / prod |C(g_i)| * sum_chi prod chi(g_i) /
    chi(1)^(n-2), in exact integers from the values rounded at load,
    rounded once with a realness and an integrality guard."""
    n = len(class_names)
    if n < 2:
        raise CharacterTableError("need at least two classes")
    idxs = [t.class_index(name) for name in class_names]
    lcm = math.lcm(*t.degrees)
    total_re = total_im = 0
    for row, degree in zip(t.values, t.degrees):
        re, im = (lcm // degree) ** (n - 2), 0
        for i in idxs:
            x, y = row[i]
            re, im = re * x - im * y, re * y + im * x
        total_re += re
        total_im += im
    # the constant is (re + i im) / den, exactly
    order = t.group_order ** (n - 1)
    re, im = order * total_re, order * total_im
    cent = math.prod(t.classes[i].centralizer_order for i in idxs)
    den = (cent * lcm ** (n - 2)) << (n * PRECISION_BITS)
    if 1000 * abs(im) > den:
        raise CharacterTableError(
            f"non-real structure constant {complex(re / den, im / den)}"
        )
    nearest = (2 * re + den) // (2 * den)
    if 1000 * abs(re - nearest * den) > den:
        raise CharacterTableError(
            f"value {re / den:.20g} is not near an integer"
        )
    return nearest


def structure_constant_xi(t: CharacterTable, c1: str, c2: str, c3: str):
    """Class-algebra constant |G| / (|C(g_1)||C(g_2)||C(g_3)|) *
    sum_chi chi(g_1)chi(g_2)chi(g_3) / chi(1): the triple count over |G|,
    as an exact rational."""
    return Fraction(structure_constant_hat(t, c1, c2, c3), t.group_order)


def brute_force_structure_constants(g: FiniteGroup):
    """Exhaustive triple counts: table[(i,j,k)] = #{(x,y,z) in
    C_i x C_j x C_k : xyz = 1}.  The oracle for the character formula;
    classes are those of conjugacy_classes(g) in its canonical order."""
    if g.order > 2000:
        raise CharacterTableError("brute force capped at order 2000")
    classing = conjugacy_classes(g)
    k = classing.num_classes
    counts = {}
    cls = classing.class_of
    inv = g.inverses
    for x in range(g.order):
        cx = cls[x]
        row = g.table[x]
        for y in range(g.order):
            key = (cx, cls[y], cls[inv[row[y]]])
            counts[key] = counts.get(key, 0) + 1
    triples = itertools.product(range(k), repeat=3)
    return {key: counts.get(key, 0) for key in triples}, classing


def match_classes(
    t: CharacterTable, classing: ConjugacyClassing, g: FiniteGroup
) -> list[int]:
    """Match table classes to computed classes by (element order, size),
    in order.  Classes sharing both invariants are matched in listed
    order; for the bundled fixtures any such matching is related by a
    group automorphism, so structure constants are unaffected."""
    used = set()
    out = []
    for c in t.classes:
        pick = None
        for i in range(classing.num_classes):
            if i in used:
                continue
            rep = classing.representatives[i]
            if (
                classing.sizes[i] == c.size
                and g.element_order(rep) == c.element_order
            ):
                pick = i
                break
        if pick is None:
            raise CharacterTableError(
                f"no computed class matches {c.name} "
                f"(order {c.element_order}, size {c.size})"
            )
        used.add(pick)
        out.append(pick)
    return out


def bundled_table_path(name: str) -> Path:
    path = Path(__file__).parent / "data" / f"{name.lower()}_characters.json"
    if not path.is_file():
        raise CharacterTableError(f"no bundled character table {name!r}")
    return path
