"""certify-small: mostly `mapping`, with no `matrep`/`orbitals` work
beyond one small CLI call each.

Jobs, in order:
- complete-mapping search on the criterion-4 catalog plus d32 and
  z2 x q8, each checked with `verify_complete_mapping` and against the
  Hall-Paige predicate;
- four heavy-tail searches at a fixed node budget, which exhaust it at
  the seed commit (an exact-cover search would decide them);
- even and odd diagonal colourings, the odd ones built from mappings
  found earlier in the pass, checked for properness, |T| colours and
  rainbow canonical cliques;
- seeded exact-factorisation witness round trips, as in acceptance
  criterion 6, checked by the program's verifiers and by a table oracle;
- one `cli.main` call per non-reproduce subcommand on a fixed input.

The seed only chooses the witness factorisations: relabelling the
search inputs would change their node counts by orders of magnitude.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from jobs import BudgetExhausted, Job, check, sha256_json
from synchro import cli, diagonal, groups, mapping, witness

# the catalog of tests/conftest.py::catalog_small (acceptance criterion 4)
CATALOG = (
    [f"z{n}" for n in range(2, 25)]
    + [f"d{n}" for n in range(6, 25, 2)]
    + [
        "klein", "q8", "a4", "s4", "s3", "elementary 2 3", "elementary 2 4",
        "elementary 3 2", "z2 x z6", "z2 x z10", "z3 x s3", "z2 x d6",
    ]
)
# s4 is already in the catalog
EXTRA = ("d32", "z2 x q8")
# each exhausts HEAVY_BUDGET at the seed commit; "elementary 2 10" is left
# out because it runs ~30 s into a RecursionError
HEAVY = ("a5", "elementary 2 5", "s4 x z2", "z3 x a4")
HEAVY_BUDGET = 100_000
EVEN_COLORINGS = (("s3", 4), ("s4", 4), ("klein", 6))
ODD_COLORINGS = (("z3", 3), ("a4", 3), ("d24", 3), ("z2 x z6", 5))
WITNESS_POOL = ("z12", "z30", "z60", "d12", "d20", "q8", "a4", "s4", "s3", "z2 x z6")
WITNESS_ROUND_TRIPS = 100


@dataclass
class Fixture:
    root: Path
    groups: dict
    hall_paige: dict
    regular: dict
    factorisations: list
    s3_count_2a_2a_3a: int
    cli_gens: tuple


def _inverse(g, a: int) -> int:
    return g.table[a].index(g.identity)


def _order(g, a: int) -> int:
    x, k = a, 1
    while x != g.identity:
        x, k = g.table[x][a], k + 1
    return k


def _is_complete_mapping(g, phi) -> bool:
    everything = set(range(g.order))
    return set(phi) == everything and {
        g.table[x][phi[x]] for x in range(g.order)
    } == everything


def _subgroup_factorisation(g, rng):
    """A random cyclic subgroup and a random right transversal of it."""
    gen = rng.randrange(1, g.order)
    sub = {g.identity, gen}
    frontier = [gen]
    while frontier:
        x = frontier.pop()
        for y in list(sub):
            z = g.table[x][y]
            if z not in sub:
                sub.add(z)
                frontier.append(z)
    if len(sub) in (1, g.order):
        return None
    cosets = {}
    for x in rng.sample(range(g.order), g.order):
        cosets.setdefault(frozenset(g.table[a][x] for a in sub), x)
    return witness.ExactFactorisation(g, frozenset(sub), frozenset(cosets.values()))


# fixed input of the `matrep` CLI call: a = x, b = s as 8x8 permutation
# matrices over F_2, so the word a^b is the involution s^-1 x s
CLI_X = "(0 1)(2 3)(4 5)(6 7)"
CLI_S = "(1 2 3 4 5 6 7)"


def setup(seed: int, tr, root: Path) -> Fixture:
    specs = dict.fromkeys(CATALOG + list(EXTRA) + list(HEAVY) + list(WITNESS_POOL))
    gs = {s: tr.call("groups.make_group", groups.make_group, s) for s in specs}
    hall_paige = {
        s: tr.call("mapping.hall_paige", mapping.hall_paige_predicate, gs[s])
        for s in CATALOG + list(EXTRA) + list(HEAVY)
    }
    regular = {
        s: tr.call("groups.action", groups.regular_perm_group, gs[s])
        for s in WITNESS_POOL
    }
    rng = random.Random(seed)
    factorisations = []
    with tr.span("bench.inputs", "witness factorisations"):
        while len(factorisations) < WITNESS_ROUND_TRIPS:
            spec = rng.choice(WITNESS_POOL)
            f = _subgroup_factorisation(gs[spec], rng)
            if f is not None:
                factorisations.append((spec, f))
    with tr.span("bench.oracle", "s3 class-triple count"):
        s3 = gs["s3"]
        count = 0
        for x in range(s3.order):
            for y in range(s3.order):
                z = _inverse(s3, s3.table[x][y])
                count += (_order(s3, x), _order(s3, y), _order(s3, z)) == (2, 2, 3)
    x = groups.parse_permutation(CLI_X, 8)
    s = groups.parse_permutation(CLI_S, 8)
    return Fixture(root, gs, hall_paige, regular, factorisations, count, (x, s))


# ---------------------------------------------------------------------------
# jobs


def _mapping_job(fx: Fixture, spec: str, budget: int) -> Job:
    def run(tr, ctx):
        g = fx.groups[spec]
        r = tr.call("mapping.search", mapping.find_complete_mapping, g, budget)
        tr.count("mapping.nodes", r.nodes)
        result = {"status": r.status.value, "nodes": r.nodes}
        if r.status is mapping.SearchStatus.BUDGET_EXHAUSTED:
            tr.count("mapping.budget_exhausted")
            raise BudgetExhausted(result)
        exists = fx.hall_paige[spec]
        if r.status is mapping.SearchStatus.NOT_FOUND:
            tr.count("mapping.refuted")
            check(not exists, f"{spec}: refuted, but Hall-Paige predicts a mapping")
            return result
        tr.count("mapping.found")
        phi = r.mapping.phi
        verified = tr.call("mapping.verify", mapping.verify_complete_mapping, g, phi)
        check(verified, f"{spec}: mapping fails verify_complete_mapping")
        check(exists, f"{spec}: mapping found, but Hall-Paige predicts none")
        ctx[spec] = r.mapping
        result["phi"] = list(phi)
        return result

    return Job(f"mapping {spec}", run)


def _coloring_job(fx: Fixture, spec: str, n: int, odd: bool) -> Job:
    def run(tr, ctx):
        T = fx.groups[spec]
        graph = diagonal.DiagonalGraph(T, n)
        if odd:
            phi = ctx.get(spec)
            check(phi is not None, f"no mapping of {spec} from its mapping job")
            col = tr.call("diagonal.coloring", diagonal.diagonal_coloring_odd, graph, phi)
        else:
            col = tr.call("diagonal.coloring", diagonal.diagonal_coloring_even, graph)
        with tr.span("diagonal.verify"):
            violation = diagonal.verify_proper_coloring(graph, col)
            colors = col.num_colors()
        check(violation is None, f"({spec},{n}): monochromatic edge {violation}")
        check(colors == T.order, f"({spec},{n}): {colors} colours, not {T.order}")
        cliques = tr.call("diagonal.cliques", diagonal.canonical_cliques, graph, graph.unrank(0))
        check(len(cliques) == n, f"({spec},{n}): {len(cliques)} canonical cliques")
        for clique in cliques:
            rainbow = {col.color_of[graph.rank(v)] for v in clique}
            check(len(clique) == T.order == len(rainbow), f"({spec},{n}): clique not rainbow")
        edges = T.order ** (n - 1) * n * (T.order - 1) // 2
        tr.count("diagonal.edges", edges)
        return {"colors": colors, "edges": edges, "coloring": sha256_json(col.color_of)}

    kind = "odd" if odd else "even"
    return Job(f"diagonal {kind} ({spec},{n})", run)


def _witness_job(fx: Fixture, k: int) -> Job:
    spec, f = fx.factorisations[k]
    g, reg = fx.groups[spec], fx.regular[spec]

    def run(tr, ctx):
        parts = tr.call("witness.transfer", witness.factorisation_to_partition, f)
        sync = tr.call("witness.transfer", witness.make_sync_witness, f.B, parts)
        failure = tr.call("witness.verify", witness.verify_sync_witness, reg, sync)
        check(failure is None, f"{spec}: sync witness fails at {failure}")
        sep = tr.call("witness.transfer", witness.sync_witness_to_sep, reg, sync)
        failure = tr.call("witness.verify", witness.verify_sep_witness, reg, sep)
        check(failure is None, f"{spec}: sep witness fails at {failure}")
        tr.count("witness.elements_checked", 2 * g.order)
        # oracle on the table: the parts are the |B| cosets A b, and every
        # right translate of the sep witness's A meets its B exactly once
        check(sorted(x for p in parts for x in p) == list(range(g.order))
              and {len(p) for p in parts} == {len(f.A)}, f"{spec}: parts")
        check(sep.A == f.B and sep.B in parts, f"{spec}: sep witness")
        for h in range(g.order):
            met = sum(g.table[a][h] in sep.B for a in sep.A)
            check(met == 1, f"{spec}: translate by {h} meets B {met} times")
        return {"group": spec, "A": sorted(sep.A), "B": sorted(sep.B),
                "parts": [sorted(p) for p in parts]}

    return Job(f"witness {k} {spec}", run)


def _cli_job(fx: Fixture, argv: list[str], verify) -> Job:
    def run(tr, ctx):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = tr.call("cli.main", cli.main, argv)
        text = buf.getvalue()
        check(code == 0, f"exit code {code}")
        verify(json.loads(text))
        return {"exit": code, "payload_sha256": hashlib.sha256(text.encode()).hexdigest()}

    return Job(f"cli {argv[0]}", run)


def _perm_fingerprint(x, y) -> list[int]:
    """The matrep fingerprint of the permutation matrices of x and y,
    computed on bit vectors, where v(1 - P(p)) = v + (v moved by p)."""

    def moved(v, p):
        return sum(1 << p(i) for i in range(p.degree) if v >> i & 1)

    def basis(vectors):
        pivots = {}
        for v in vectors:
            while v:
                top = v.bit_length() - 1
                if top not in pivots:
                    pivots[top] = v
                    break
                v ^= pivots[top]
        return list(pivots.values())

    def image(vs, perms):
        return basis([v ^ moved(v, p) for v in vs for p in perms])

    full = [1 << i for i in range(x.degree)]
    v1 = image(full, (x, y))
    v2 = image(v1, (x, y))
    return [len(v1), len(v2), len(image(full, (x, y * x * y))),
            len(image(full, (y, x * y * x)))]


def _cli_jobs(fx: Fixture) -> list[Job]:
    s4, s3, z4 = fx.groups["s4"], fx.groups["s3"], fx.groups["z4"]
    # paths relative to the checkout root (the working directory), so the
    # payloads do not depend on where the checkout lives
    gens = str((Path(__file__).resolve().parent / "data" / "cli_gens.txt").relative_to(fx.root))
    table = "src/synchro/data/s3_characters.json"
    x, s = fx.cli_gens

    def complete_mapping(p):
        check(p["status"] == "found" and p["criterion_predicts_existence"], "status")
        check(_is_complete_mapping(s4, p["phi"]), "phi is not a complete mapping")

    def diagonal_even(p):
        check(p["proper"] and p["colors"] == 6 and p["vertices"] == 216
              and p["vertex_degree"] == 20 and p["fiber_sizes"] == [36] * 6,
              "colouring payload")

    def witness_pipeline(p):
        a_inv = [_inverse(z4, a) for a in (0, 3)]
        want = sorted(sorted(z4.table[a][b] for a in a_inv) for b in (0, 2))
        check(p["ok"] and p["partition"] == want, "pipeline partition")

    def orbitals_regular(p):
        # right-regular action based at the identity: suborbit i is {i},
        # A_i[j][k] = 1 iff k = i*j, so the self entry of A_i is 1 iff i
        # is the identity and its inverse entry is 1 iff i has order 1 or 3
        n = s3.order
        check(p["rank"] == n and p["subdegrees"] == [1] * n, "subdegrees")
        check([q - 1 for q in p["pairing"]] == [_inverse(s3, i) for i in range(n)], "pairing")
        for i, row in enumerate(p["double_coset_checks"]):
            check(row["self_entry"] == (i == 0), f"self entry of A_{i}")
            check(row["inverse_entry"] == (_order(s3, i) in (1, 3)), f"inverse entry of A_{i}")

    def matrep_fingerprint(p):
        y = s.inverse() * x * s
        check(p["dim"] == 8 and p["fingerprint"] == _perm_fingerprint(x, y), "fingerprint")

    def chartab_s3(p):
        count = fx.s3_count_2a_2a_3a
        xi = Fraction(count, s3.order)
        check(p["xi"]["value"] == [xi.numerator, xi.denominator], "xi")
        check(p["xi"]["scaled"] == 6 * xi and p["hat"]["value"] == count, "hat")

    return [
        _cli_job(fx, ["complete-mapping", "--group", "s4"], complete_mapping),
        _cli_job(fx, ["diagonal", "--group", "s3", "--n", "4", "--color-even",
                      "--verify"], diagonal_even),
        _cli_job(fx, ["witness", "pipeline", "--group", "z4", "--A", "[0,3]",
                      "--B", "[0,2]"], witness_pipeline),
        _cli_job(fx, ["orbitals", "--group", "s3", "--regular", "--wilcox"],
                 orbitals_regular),
        _cli_job(fx, ["matrep", "--gens", gens, "--fingerprint", "a", "a^b"],
                 matrep_fingerprint),
        _cli_job(fx, ["chartab", "--table", table, "--xi", "2a", "2a", "3a",
                      "--scale", "6", "--hat", "2a", "2a", "3a"], chartab_s3),
    ]


def jobs(fx: Fixture) -> list[Job]:
    out = [_mapping_job(fx, s, mapping.DEFAULT_BUDGET) for s in CATALOG + list(EXTRA)]
    out += [_mapping_job(fx, s, HEAVY_BUDGET) for s in HEAVY]
    out += [_coloring_job(fx, s, n, odd=False) for s, n in EVEN_COLORINGS]
    out += [_coloring_job(fx, s, n, odd=True) for s, n in ODD_COLORINGS]
    out += [_witness_job(fx, k) for k in range(WITNESS_ROUND_TRIPS)]
    out += _cli_jobs(fx)
    return out


def describe(fx: Fixture) -> list[str]:
    return [
        f"mapping searches: {len(CATALOG) + len(EXTRA)} catalog groups, "
        f"{len(HEAVY)} heavy-tail groups at budget {HEAVY_BUDGET}",
        f"diagonal colourings: {len(EVEN_COLORINGS)} even, {len(ODD_COLORINGS)} odd; "
        f"witness round trips: {WITNESS_ROUND_TRIPS}; CLI calls: 6",
    ]
