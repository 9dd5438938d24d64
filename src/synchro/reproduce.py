"""The J4 computation that completes the Hall-Paige proof, re-run by the
CLI's `reproduce` and by acceptance criteria 1-3.

Each target takes the directory of external files (DataMissing if one is
absent) and returns (payload, inputs): a JSON-ready dict whose "ok" says
every check against the bundled data passed, and the external files read.
"""

from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"
GENS_FILE = "j4_112_f2_gens.txt"
CHARTABLE_FILE = "j4_characters.json"


class DataMissing(Exception):
    """A required external data file is absent."""


def require(data_dir, name: str) -> Path:
    if data_dir and (Path(data_dir) / name).is_file():
        return Path(data_dir) / name
    where = f"{data_dir or '<data-dir>'}/{name}"
    raise DataMissing(f"required external data file not found: {where}")


def orbital_metadata() -> list[dict]:
    """The 20 bundled orbitals in order (nr, pair, rep_word, s1, ...)."""
    return json.loads((DATA_DIR / "j4_orbitals.json").read_text())["orbitals"]


def printed_matrix(name: str) -> tuple[tuple[int, ...], ...]:
    """The printed collapsed matrix "A2" or "A4"."""
    text = (DATA_DIR / f"j4_{name.lower()}_expected.txt").read_text()
    return tuple(tuple(map(int, r.split())) for r in text.splitlines()[1:])


def expected(what: str) -> dict:
    """The expected "structure_constants" or "square_entries"."""
    return json.loads((DATA_DIR / f"j4_{what}_expected.json").read_text())


def on_generators(compute):
    """The target that reads two matrices a, b from the generator file and
    runs compute(a, b) if they pass the standard-generator order checks;
    if one fails, its payload lists them with "ok" false."""

    def target(data_dir):
        from . import matrep  # each target loads what it runs
        path = require(data_dir, GENS_FILE)
        mats = matrep.parse_matrix_file(path)
        if len(mats) < 2:
            raise matrep.MatrixError("generator file must contain two matrices")
        report = matrep.verify_standard_generators(*mats[:2])
        if report.passed:
            return compute(*mats[:2]), [path]
        checks = [list(c) for c in report.checks]
        return {"ok": False, "standard_generators": checks}, [path]

    return target


def table1(data_dir):
    """Table 1: xi(2A, 2A, C) as listed, and zero for every other C.  A
    listed scaled value also counts the y in 2A with ay in C, so it must
    equal Table 2's s1 summed over the orbitals of product class C."""
    from . import chartab  # the value parser, which no other target needs
    path = require(data_dir, CHARTABLE_FILE)
    t = chartab.load_character_table(path)
    want = expected("structure_constants")
    listed = {row["class"]: row for row in want["rows"]}
    counts = Counter()
    for o in orbital_metadata():
        counts[o["product_class"]] += o["s1"]
    rows = []
    for name in [*listed, *(c.name for c in t.classes if c.name not in listed)]:
        xi = chartab.structure_constant_xi(t, "2A", "2A", name)
        row = {"class": name, "xi": [xi.numerator, xi.denominator]}
        row["match"] = xi == 0
        if name in listed:
            scaled = xi * want["scale"]
            row["scaled"] = int(scaled) if scaled.denominator == 1 else None
            row["match"] = xi == Fraction(*listed[name]["xi"]) and (
                scaled == listed[name]["scaled"] == counts[name]
            )
        rows.append(row)
    return {"rows": rows, "ok": all(r["match"] for r in rows)}, [path]


@on_generators
def table2(a, b):
    """Table 2: the 20 fingerprints, and orbit sizes 1386 and 18480."""
    from . import matrep
    env = matrep.standard_environment(a, b)
    meta = orbital_metadata()
    conj = [a.conjugate_by(matrep.eval_word(env, o["rep_word"])) for o in meta]
    rows = []
    for o, m in zip(meta, conj):
        fp = list(matrep.fingerprint(a, m).as_tuple())
        rows.append({"nr": o["nr"], "fingerprint": fp,
                     "match": fp == o["fingerprint"]})
    h = matrep.centralizer_generators(a, b)
    for k in (1, 3):
        size = sum(1 for _ in matrep._orbit(conj[k], h))
        rows.append({"nr": meta[k]["nr"], "orbit_size": size,
                     "match": size == meta[k]["s1"]})
    return {"rows": rows, "ok": all(r["match"] for r in rows)}


def collapsed(i: int):
    """The function (a, b) -> collapsed matrix A_{i+1} (i 0-based), closed
    under the centralizer words and classified by the metadata's
    fingerprints; duplicate fingerprints and an index out of range are
    refused here, before any word is evaluated."""
    from . import matrep
    meta = orbital_metadata()
    table = {tuple(o["fingerprint"]): k for k, o in enumerate(meta)}
    if len(table) < len(meta):
        raise matrep.MatrixError("duplicate fingerprint in the orbital metadata")
    if not 0 <= i < len(meta):
        raise matrep.MatrixError(f"no orbital {i} (0-based) in rank {len(meta)}")
    words = [o["rep_word"] for o in meta]

    def compute(a, b):
        h = matrep.centralizer_generators(a, b)
        return matrep.collapsed_adjacency_matrep(
            a, b, words, table, i, conjugators=h
        ).matrix

    return compute


def _failures(mats: dict) -> dict:
    """What the computed A2 and/or A4 fail: the identities (rows sum to s_i,
    s_j (A_i)_jk = s_k (A_i)_kj as i is self-paired, and with both
    matrices s_4 (A2)_{4,k} = s_2 (A4)_{2,k*}, 1-based), then the print."""
    meta = orbital_metadata()
    s = [o["s1"] for o in meta]
    broken = {}
    for name, m in mats.items():
        r, i = range(len(m)), int(name[1:]) - 1
        if any(sum(row) != s[i] for row in m):
            broken.setdefault(name, []).append("row sums")
        if any(s[j] * m[j][k] != s[k] * m[k][j] for j in r for k in r):
            broken.setdefault(name, []).append("weighted symmetry")
    if len(mats) == 2:
        a2, a4 = mats["A2"], mats["A4"]
        if [s[3] * x for x in a2[3]] != [
            s[1] * a4[1][o["pair"] - 1] for o in meta
        ]:
            broken["A2 and A4"] = ["cross identity"]
    differs = [n for n, m in mats.items() if m != printed_matrix(n)]
    failed = {"broken_identities": broken, "differs_from_printed": differs}
    return {key: v for key, v in failed.items() if v}


def _against_print(name: str, a, b):
    """A2 or A4, checked against the identities and the printed matrix."""
    m = collapsed(int(name[1:]) - 1)(a, b)
    failed = _failures({name: m})
    return {"matrix": [list(r) for r in m], **failed, "ok": not failed}


@on_generators
def entry_lists(a, b):
    """A2 and A4 as printed, then the double-coset entry lists."""
    from . import orbitals
    mats = {"A2": collapsed(1)(a, b), "A4": collapsed(3)(a, b)}
    if failed := _failures(mats):
        return {"ok": False, **failed}
    pairing = [o["pair"] - 1 for o in orbital_metadata()]
    basis = orbitals.intersection_algebra_expand(*mats.values(), len(pairing))
    report = orbitals.wilcox_check(basis, pairing)
    want = expected("square_entries")
    inv = [r["inverse_entry"] for r in report]
    slf = [r["self_entry"] for r in report]
    ok = inv == want["inverse_in_square"] and slf == want["self_in_square"]
    return {"inverse_in_square": inv, "self_in_square": slf, "ok": ok}


TARGETS = {
    "table1": table1,
    "table2": table2,
    "A2": on_generators(partial(_against_print, "A2")),
    "A4": on_generators(partial(_against_print, "A4")),
    "entry-lists": entry_lists,
}
