"""Command-line entry point wiring all modules.  `reproduce` runs the J4
targets of synchro.reproduce, which acceptance criteria 1-3 also call.

Exit codes: 0 ok, 1 verification failure, 2 usage error, 3 missing
external data, 4 resource exhausted (out of memory).  Primary outputs
are deterministic JSON (sorted keys, no timestamps), so identical
invocations produce byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import chartab, diagonal, groups, mapping, matrep, orbitals, witness
from . import reproduce

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RESOURCE = 4

VERSION = "0.1.0"


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    if getattr(args, "manifest", None):
        manifest = {
            "command": " ".join(sys.argv[1:]),
            "version": VERSION,
            "inputs": {
                str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest()
                for p in getattr(args, "_input_paths", [])
                if Path(p).is_file()
            },
            "output_digest": hashlib.sha256(text.encode()).hexdigest(),
        }
        Path(args.manifest).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n"
        )


def _points(value, n: int, what: str) -> list[int]:
    if not isinstance(value, list) or not all(
        type(x) is int and 0 <= x < n for x in value
    ):
        raise witness.WitnessError(f"{what} must be a JSON array of points < {n}")
    return value


def _load_group(spec: str, args) -> groups.FiniteGroup:
    g = groups.make_group(spec)
    if Path(spec).is_file():
        args._input_paths.append(spec)
    return g


# ---------------------------------------------------------------------------
# subcommands


def cmd_complete_mapping(args) -> int:
    g = _load_group(args.group, args)
    predicate = mapping.hall_paige_predicate(g)
    result = mapping.find_complete_mapping(g, budget=args.budget)
    payload = {
        "group": args.group,
        "order": g.order,
        "criterion_predicts_existence": predicate,
        "status": result.status.value,
        "nodes": result.nodes,
    }
    if result.mapping is not None:
        payload["phi"] = list(result.mapping.phi)
        if args.emit_mapping:
            Path(args.emit_mapping).write_text(
                json.dumps({"phi": list(result.mapping.phi)}, sort_keys=True)
                + "\n"
            )
    _emit(payload, args)
    if result.status is mapping.SearchStatus.BUDGET_EXHAUSTED:
        return EXIT_VERIFY
    return EXIT_OK


def _diagonal_phi(args, T) -> mapping.CompleteMapping:
    if args.phi:
        data = json.loads(Path(args.phi).read_text())
        args._input_paths.append(args.phi)
        phi = data["phi"] if isinstance(data, dict) else None
        phi = tuple(_points(phi, T.order, "the phi file's \"phi\""))
        if not mapping.verify_complete_mapping(T, phi):
            raise witness.WitnessError("supplied phi fails verification")
        return mapping.CompleteMapping(T, phi)
    result = mapping.find_complete_mapping(T)
    if result.mapping is None:
        raise witness.WitnessError(
            f"no complete mapping for the group ({result.status.value})"
        )
    return result.mapping


def cmd_diagonal(args) -> int:
    T = _load_group(args.group, args)
    spec = diagonal.DiagonalGraph(T, args.n)
    payload = {
        "group": args.group,
        "n": args.n,
        "vertices": spec.num_vertices,
        "vertex_degree": spec.degree_of_vertex(),
    }
    coloring = None
    if args.color_even:
        coloring = diagonal.diagonal_coloring_even(spec)
    elif args.color_odd:
        coloring = diagonal.diagonal_coloring_odd(spec, _diagonal_phi(args, T))
    if coloring is not None:
        payload["colors"] = coloring.num_colors()
        payload["fiber_sizes"] = sorted(coloring.fiber_sizes().values())
    status = EXIT_OK
    if args.verify:
        if coloring is None:
            raise witness.WitnessError("--verify needs a colouring")
        violation = diagonal.verify_proper_coloring(spec, coloring)
        payload["proper"] = violation is None
        if violation is not None:
            payload["violating_edge"] = [list(violation[0]), list(violation[1])]
            status = EXIT_VERIFY
        else:
            payload["certificate"] = (
                f"proper, {coloring.num_colors()} colors"
            )
    if args.emit_witness:
        if coloring is None:
            raise witness.WitnessError("--emit-witness needs a colouring")
        base = spec.unrank(0)
        clique = diagonal.canonical_cliques(spec, base)[-1]
        parts: dict[int, list[int]] = {}
        for rank, c in enumerate(coloring.color_of):
            parts.setdefault(c, []).append(rank)
        cert = {
            "A": [spec.rank(v) for v in clique],
            "P": [parts[c] for c in sorted(parts)],
        }
        Path(args.emit_witness).write_text(
            json.dumps(cert, sort_keys=True) + "\n"
        )
        payload["witness_file"] = args.emit_witness
    _emit(payload, args)
    return status


def cmd_witness(args) -> int:
    needs = "P" if args.mode == "sync" else "B"
    if getattr(args, needs) is None:
        raise witness.WitnessError(f"witness {args.mode} needs --{needs}")
    g = _load_group(args.group, args)
    perm_g = groups.regular_perm_group(g)
    A = _points(json.loads(args.A), g.order, "--A")
    payload: dict = {"group": args.group, "mode": args.mode}
    status = EXIT_OK
    if args.mode == "sync":
        P = json.loads(Path(args.P).read_text())
        args._input_paths.append(args.P)
        if not isinstance(P, list):
            raise witness.WitnessError("--P must hold a JSON array of parts")
        P = [_points(part, g.order, "each part of --P") for part in P]
        w = witness.make_sync_witness(A, P)
        failure = witness.verify_sync_witness(perm_g, w)
        payload["ok"] = failure is None
        if failure is not None:
            payload["failing_element"] = str(failure[0])
            payload["failing_part"] = sorted(failure[1])
            status = EXIT_VERIFY
    elif args.mode == "sep":
        B = _points(json.loads(args.B), g.order, "--B")
        w = witness.make_sep_witness(A, B, g.order)
        failure = witness.verify_sep_witness(perm_g, w)
        payload["ok"] = failure is None
        if failure is not None:
            payload["failing_element"] = str(failure)
            status = EXIT_VERIFY
    elif args.mode == "factorise":
        B = _points(json.loads(args.B), g.order, "--B")
        w = witness.make_sep_witness(A, B, g.order)
        f = witness.witness_to_factorisation(g, w)
        payload["ok"] = True
        payload["A_inverse"] = sorted(f.A)
        payload["B"] = sorted(f.B)
    elif args.mode == "pipeline":
        B = _points(json.loads(args.B), g.order, "--B")
        w = witness.make_sep_witness(A, B, g.order)
        failure = witness.verify_sep_witness(perm_g, w)
        if failure is not None:
            payload["ok"] = False
            payload["failing_element"] = str(failure)
            _emit(payload, args)
            return EXIT_VERIFY
        f = witness.witness_to_factorisation(g, w)
        parts = witness.factorisation_to_partition(f)
        sw = witness.make_sync_witness(f.B, parts)
        failure = witness.verify_sync_witness(perm_g, sw)
        payload["ok"] = failure is None
        payload["partition"] = [sorted(p) for p in parts]
        if failure is not None:
            status = EXIT_VERIFY
    _emit(payload, args)
    return status


def cmd_orbitals(args) -> int:
    # every group is a multiplication table, acting right-regularly
    perm_g = groups.regular_perm_group(_load_group(args.group, args))
    dec = orbitals.orbital_decomposition(perm_g, args.base)
    payload = {
        "base": args.base,
        "rank": dec.rank,
        "subdegrees": list(dec.subdegrees),
        "pairing": [p + 1 for p in dec.pairing],
    }
    if args.collapsed is not None:
        ca = orbitals.collapsed_adjacency(perm_g, dec, args.collapsed - 1)
        payload["collapsed"] = [list(r) for r in ca.matrix]
    if args.wilcox:
        mats = [
            orbitals.collapsed_adjacency(perm_g, dec, i)
            for i in range(dec.rank)
        ]
        payload["double_coset_checks"] = orbitals.wilcox_check(
            mats, dec.pairing
        )
    _emit(payload, args)
    return EXIT_OK


def cmd_matrep(args) -> int:
    mats = matrep.parse_matrix_file(args.gens)
    args._input_paths.append(args.gens)
    if len(mats) < 2:
        raise matrep.MatrixError("generator file must contain two matrices")
    a, b = mats[0], mats[1]
    payload: dict = {"gens": args.gens, "dim": a.dim, "p": a.p}
    status = EXIT_OK
    if args.verify_standard:
        report = matrep.verify_standard_generators(a, b)
        payload["checks"] = [
            {"check": w, "expected": e, "actual": x}
            for w, e, x in report.checks
        ]
        payload["ok"] = report.passed
        if not report.passed:
            status = EXIT_VERIFY
    if args.fingerprint:
        env = matrep.standard_environment(a, b)
        x = matrep.eval_word(env, args.fingerprint[0])
        y = matrep.eval_word(env, args.fingerprint[1])
        payload["fingerprint"] = list(matrep.fingerprint(x, y).as_tuple())
    if args.collapsed is not None:
        if not args.table:
            raise matrep.MatrixError("--collapsed requires --table")
        table = matrep.load_fingerprint_table(args.table)
        args._input_paths.append(args.table)
        words = [o["rep_word"] for o in reproduce.orbital_metadata()]
        ca = matrep.collapsed_adjacency_matrep(
            a, b, words, table, args.collapsed - 1
        )
        payload["collapsed"] = [list(r) for r in ca.matrix]
    _emit(payload, args)
    return status


def cmd_chartab(args) -> int:
    t = chartab.load_character_table(args.table)
    args._input_paths.append(args.table)
    payload: dict = {"table": args.table, "group_order": t.group_order}
    if args.xi:
        xi = chartab.structure_constant_xi(t, *args.xi)
        payload["xi"] = {"classes": args.xi, "value": [xi.numerator, xi.denominator]}
        if args.scale is not None:
            scaled = xi * args.scale
            if scaled.denominator != 1:
                raise chartab.CharacterTableError("scaled value not integral")
            payload["xi"]["scaled"] = int(scaled)
    if args.hat:
        payload["hat"] = {
            "classes": args.hat,
            "value": chartab.structure_constant_hat(t, *args.hat),
        }
    _emit(payload, args)
    return EXIT_OK


def cmd_reproduce(args) -> int:
    payload, inputs = reproduce.TARGETS[args.target](args.data_dir)
    args._input_paths.extend(map(str, inputs))
    _emit({"reproduces": args.target, **payload}, args)
    return EXIT_OK if payload["ok"] else EXIT_VERIFY


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synchro",
        description=(
            "Complete mappings, diagonal-group colourings, witness "
            "verification, orbital and collapsed-adjacency computations."
        ),
    )
    parser.add_argument("--output", help="write primary JSON output here")
    parser.add_argument("--manifest", help="write a run manifest here")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("complete-mapping", help="search for a complete mapping")
    p.add_argument("--group", required=True)
    p.add_argument("--budget", type=int, default=mapping.DEFAULT_BUDGET)
    p.add_argument("--emit-mapping")
    p.set_defaults(func=cmd_complete_mapping)

    p = sub.add_parser("diagonal", help="diagonal-group graph and colourings")
    p.add_argument("--group", required=True)
    p.add_argument("--n", type=int, required=True)
    colour = p.add_mutually_exclusive_group()
    colour.add_argument("--color-even", action="store_true")
    colour.add_argument("--color-odd", action="store_true")
    p.add_argument("--phi", help="complete-mapping JSON for --color-odd")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--emit-witness")
    p.set_defaults(func=cmd_diagonal)

    p = sub.add_parser("witness", help="verify/transfer witnesses")
    p.add_argument("mode", choices=["sync", "sep", "factorise", "pipeline"])
    p.add_argument("--group", required=True)
    p.add_argument("--A", required=True, help="JSON array of points")
    p.add_argument("--B", help="JSON array of points")
    p.add_argument("--P", help="file with JSON array of parts")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("orbitals", help="suborbits and collapsed matrices")
    p.add_argument("--group", required=True)
    p.add_argument("--base", type=int, default=0)
    p.add_argument("--collapsed", type=int, help="orbital number (1-based)")
    p.add_argument("--wilcox", action="store_true")
    p.add_argument(
        "--regular",
        action="store_true",
        help="use the right-regular action of the group (the default)",
    )
    p.set_defaults(func=cmd_orbitals)

    p = sub.add_parser("matrep", help="matrix-representation computations")
    p.add_argument("--gens", required=True, help="matrix file with a, b")
    p.add_argument("--verify-standard", action="store_true")
    p.add_argument("--fingerprint", nargs=2, metavar=("WORD1", "WORD2"))
    p.add_argument("--collapsed", type=int, help="orbital number (1-based)")
    p.add_argument("--table", help="fingerprint classification table")
    p.set_defaults(func=cmd_matrep)

    p = sub.add_parser("chartab", help="structure constants from a table")
    p.add_argument("--table", required=True)
    p.add_argument("--xi", nargs=3, metavar=("C1", "C2", "C3"))
    p.add_argument("--hat", nargs="+", metavar="CLASS")
    p.add_argument("--scale", type=int)
    p.set_defaults(func=cmd_chartab)

    p = sub.add_parser("reproduce", help="re-run a published computation")
    p.add_argument(
        "target",
        choices=list(reproduce.TARGETS),
    )
    p.add_argument(
        "--data-dir",
        help=f"directory holding {reproduce.GENS_FILE} and/or "
        f"{reproduce.CHARTABLE_FILE}",
    )
    p.set_defaults(func=cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    args._input_paths = []
    try:
        return args.func(args)
    except reproduce.DataMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "supply --data-dir pointing at the required files; matrix "
            "generator files are validated by the standard-generator "
            "order checks on load",
            file=sys.stderr,
        )
        return EXIT_DATA
    except (
        groups.GroupFormatError,
        groups.SizeOverflowError,
        witness.WitnessError,
        diagonal.DiagonalError,
        orbitals.OrbitalError,
        matrep.MatrixError,
        matrep.WordError,
        matrep.UnknownOrbitalError,
        chartab.CharacterTableError,
        OSError,
        json.JSONDecodeError,
        KeyError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory (resource exhausted)", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
