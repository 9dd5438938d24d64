"""Command-line entry point wiring all modules.  `reproduce` runs the J4
targets of synchro.reproduce, which acceptance criteria 1-3 also call.

Each subcommand returns (payload, status) and records the files it reads
with `_input`; `main` alone writes the output and the manifest and maps
every failure to its exit code: 0 ok, 1 verification failure, 2 usage
error (any ValueError or OSError), 3 missing external data, 4 resource
exhausted (out of memory).  Primary outputs are deterministic JSON
(sorted keys, no timestamps), so identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__, diagonal, groups, mapping, reproduce, witness

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RESOURCE = 4

# the options that name a file or directory, where "" would name the cwd
PATH_FLAGS = ("--output", "--manifest", "--phi", "--emit-witness", "--P",
              "--gens", "--table", "--data-dir")


def _input(args, path):
    """Record an input file for the manifest and return its path, for the
    caller to read now.  The digest is taken here, so a later --output or
    --emit-witness write to the same path cannot change it."""
    if args.manifest and Path(path).is_file():
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        args.inputs[str(path)] = digest
    return path


def _emit(payload: dict, args) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    if args.manifest:
        manifest = {
            "command": " ".join(args.argv),
            "version": __version__,
            "inputs": args.inputs,
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


def _orbital(number: int, rank: int) -> int:
    # --collapsed counts from 1, the library from 0
    if not 1 <= number <= rank:
        raise ValueError(f"no orbital {number} in rank {rank} (1..{rank})")
    return number - 1


def _load_group(spec: str, args) -> groups.FiniteGroup:
    # only the table files that make_group reads are inputs
    return groups.make_group(
        spec, lambda path: groups.read_group_file(_input(args, path))
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_complete_mapping(args) -> tuple[dict, int]:
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
    exhausted = result.status is mapping.SearchStatus.BUDGET_EXHAUSTED
    return payload, EXIT_VERIFY if exhausted else EXIT_OK


def _diagonal_phi(args, T) -> mapping.CompleteMapping:
    if args.phi is not None:
        data = json.loads(Path(_input(args, args.phi)).read_text())
        phi = data.get("phi") if isinstance(data, dict) else None
        # diagonal_coloring_odd verifies it is a complete mapping
        phi = tuple(_points(phi, T.order, "the phi file's \"phi\""))
        return mapping.CompleteMapping(T, phi)
    result = mapping.find_complete_mapping(T)
    if result.mapping is None:
        raise witness.WitnessError(
            f"no complete mapping for the group ({result.status.value})"
        )
    return result.mapping


def cmd_diagonal(args) -> tuple[dict, int]:
    if args.phi is not None and not args.color_odd:
        raise witness.WitnessError("--phi needs --color-odd")
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
    return payload, status


def cmd_witness(args) -> tuple[dict, int]:
    needs, unused = ("P", "B") if args.mode == "sync" else ("B", "P")
    if getattr(args, unused) is not None:
        raise witness.WitnessError(f"witness {args.mode} takes no --{unused}")
    if getattr(args, needs) is None:
        raise witness.WitnessError(f"witness {args.mode} needs --{needs}")
    g = _load_group(args.group, args)
    perm_g = groups.regular_perm_group(g)
    A = _points(json.loads(args.A), g.order, "--A")
    payload: dict = {"group": args.group, "mode": args.mode}
    if args.mode == "sync":
        P = json.loads(Path(_input(args, args.P)).read_text())
        if not isinstance(P, list):
            raise witness.WitnessError("--P must hold a JSON array of parts")
        P = [_points(part, g.order, "each part of --P") for part in P]
        failure = witness.verify_sync_witness(
            perm_g, witness.make_sync_witness(A, P)
        )
        payload["ok"] = failure is None
        if failure is not None:
            payload["failing_element"] = str(failure[0])
            payload["failing_part"] = sorted(failure[1])
        return payload, EXIT_OK if failure is None else EXIT_VERIFY
    # sep, factorise and pipeline all start from the sep witness (A, B).
    # factorise transfers it unverified, as verifying costs an O(|G|^2)
    # enumeration; the transfer itself refuses a non-witness (exit 2)
    B = _points(json.loads(args.B), g.order, "--B")
    w = witness.make_sep_witness(A, B, g.order)
    if args.mode != "factorise":
        failure = witness.verify_sep_witness(perm_g, w)
        payload["ok"] = failure is None
        if failure is not None:
            payload["failing_element"] = str(failure)
            return payload, EXIT_VERIFY
        if args.mode == "sep":
            return payload, EXIT_OK
    f = witness.witness_to_factorisation(g, w)
    if args.mode == "factorise":
        payload["ok"] = True
        payload["A_inverse"] = sorted(f.A)
        payload["B"] = sorted(f.B)
        return payload, EXIT_OK
    parts = witness.factorisation_to_partition(f)
    failure = witness.verify_sync_witness(
        perm_g, witness.make_sync_witness(f.B, parts)
    )
    payload["ok"] = failure is None
    payload["partition"] = [sorted(p) for p in parts]
    return payload, EXIT_OK if failure is None else EXIT_VERIFY


def cmd_orbitals(args) -> tuple[dict, int]:
    from . import orbitals  # so that importing cli loads only what runs
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
        i = _orbital(args.collapsed, dec.rank)
        ca = orbitals.collapsed_adjacency(perm_g, dec, i)
        payload["collapsed"] = [list(r) for r in ca.matrix]
    if args.wilcox:
        # one collapsed matrix at a time: each is rank x rank
        mats = (
            orbitals.collapsed_adjacency(perm_g, dec, i)
            for i in range(dec.rank)
        )
        payload["double_coset_checks"] = orbitals.wilcox_check(
            mats, dec.pairing
        )
    return payload, EXIT_OK


def cmd_matrep(args) -> tuple[dict, int]:
    from . import matrep
    collapse = None
    if args.collapsed is not None:
        rank = len(reproduce.orbital_metadata())
        collapse = reproduce.collapsed(_orbital(args.collapsed, rank))
    mats = matrep.parse_matrix_file(_input(args, args.gens))
    if len(mats) < 2:
        raise matrep.MatrixError("generator file must contain two matrices")
    a, b = mats[0], mats[1]
    payload: dict = {"gens": args.gens, "dim": a.dim, "p": a.p}
    status = EXIT_OK
    # a collapsed matrix, like reproduce A2, needs the order checks first
    if args.verify_standard or collapse:
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
    if collapse and report.passed:
        payload["collapsed"] = [list(r) for r in collapse(a, b)]
    return payload, status


def cmd_chartab(args) -> tuple[dict, int]:
    from . import chartab  # the value parser, which no other subcommand needs
    if args.scale is not None and not args.xi:
        raise chartab.CharacterTableError("--scale needs --xi")
    t = chartab.load_character_table(_input(args, args.table))
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
    return payload, EXIT_OK


def cmd_reproduce(args) -> tuple[dict, int]:
    payload, inputs = reproduce.TARGETS[args.target](args.data_dir)
    for path in inputs:
        _input(args, path)
    status = EXIT_OK if payload["ok"] else EXIT_VERIFY
    return {"reproduces": args.target, **payload}, status


# ---------------------------------------------------------------------------
# argument parsing


def budget(text: str) -> int:
    # 0 is a budget: odd orders and the balance condition decide at the root
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, not {value}")
    return value


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
    p.add_argument("--budget", type=budget, default=mapping.DEFAULT_BUDGET)
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
    p.add_argument("--collapsed", type=int, help="J4 orbital number (1-based)")
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    args.argv, args.inputs = argv, {}
    try:
        for flag in PATH_FLAGS:
            if getattr(args, flag[2:].replace("-", "_"), None) == "":
                raise ValueError(f"{flag} needs a path, not an empty string")
        payload, status = args.func(args)
        _emit(payload, args)
        return status
    except reproduce.DataMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(
            "supply --data-dir pointing at the required files; matrix "
            "generator files are validated by the standard-generator "
            "order checks on load",
            file=sys.stderr,
        )
        return EXIT_DATA
    except (ValueError, OSError) as exc:  # every package error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory (resource exhausted)", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
