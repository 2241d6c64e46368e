"""Command-line surface: queries, sweeps, diagram rendering, verification.

Subcommands

  roots     print the positive roots of a system
  grading   print the levels of a parabolic grading (optionally as a diagram)
  strings   print a root string or a phi-string
  analyze   run the elimination pipeline for one (space, j) or the whole sweep
  shape     shape operators of a model orbit, with the total-geodesy verdict
  classify  assemble the action catalog of one or more catalog spaces
  catalog   list catalog entries
  verify    run the invariant battery

Each subcommand is declared once, in ``COMMANDS``.  Every subcommand accepts
--format json|text.  Exit codes: 0 success, 1 data errors, 2 usage errors.

A plain argv is read straight from ``COMMANDS``: a subcommand, then only its
long flags spelled exactly, each value a separate word not led by ``-``,
converted by its declared type and inside its declared choices, with every
required flag present.  Any other argv goes to argparse, which is imported
only then: no arguments, ``-h``/``--help``, unknown or abbreviated flags,
``--flag=value``, dash-led values such as ``--j -1``, a bad type or choice, a
missing required flag or a stray word.  It prints the help and the usage
errors, and it reads the argv forms it accepts beyond the plain ones.
"""

from __future__ import annotations

import json
import os
import sys
from types import SimpleNamespace

# Only the layers every command needs load here; each handler imports the
# rest itself, so `roots` or `grading` never loads the Chevalley, shape or
# elimination code.
from .catalog import default_catalog, find_space, load_catalog
from .errors import C1AtlasError, NotARoot, UsageError
from .rootsys import FAMILIES, FIXED_RANK, Root, RootSystem, length_text, root_system


def _root_system_from(args) -> RootSystem:
    rank = args.rank
    if rank is None:
        if args.type not in FIXED_RANK:
            raise UsageError(f"--rank is required for family {args.type}")
        rank = FIXED_RANK[args.type]
    return root_system(args.type, rank)


def _parse_coeffs(text: str) -> tuple:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise C1AtlasError(f"bad coefficient vector {text!r}") from exc


def _parse_root(rs: RootSystem, text: str) -> Root:
    coeffs = _parse_coeffs(text)
    if not rs.contains(coeffs):
        raise NotARoot(f"{text} is not a root of {rs.rtype}")
    return Root(coeffs)


def _emit(args, payload_json, payload_text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload_json, indent=2, ensure_ascii=False))
    else:
        print(payload_text)


def _load_selected_catalog(args):
    if getattr(args, "catalog", None):
        return load_catalog(args.catalog)
    return default_catalog()


# -- subcommand handlers ------------------------------------------------------

def _cmd_roots(args) -> int:
    rs = _root_system_from(args)
    roots = [(lam, length_text(rs.length6(lam))) for lam in rs.positives]
    rows = [{"coeffs": list(lam.coeffs), "height": lam.height, "length_sq": length} for lam, length in roots]
    text = "\n".join(f"{str(lam):24s} height {lam.height:3d}  length^2 {length}" for lam, length in roots)
    _emit(args, rows, f"{rs.rtype}: {len(rs.positives)} positive roots\n{text}")
    return 0


def _cmd_grading(args) -> int:
    if args.dot and (not args.hasse or args.format == "json"):
        raise UsageError("--dot needs --hasse and text output")
    if args.hasse and args.level is not None:
        raise UsageError("--level and --hasse exclude each other")
    rs = _root_system_from(args)
    if args.hasse:
        nodes, edges = _hasse_graph(rs, args.j)
        payload = {
            "j": args.j,
            "nodes": [list(lam.coeffs) for lam in nodes],
            "edges": [[list(a.coeffs), list(b.coeffs), i] for a, b, i in edges],
        }
        _emit(args, payload, render_hasse(rs, args.j, dot=args.dot))
        return 0
    grading = rs.maximal_grading(args.j)
    if args.level is not None:
        roots = grading.level(args.level)
        _emit(
            args,
            [list(lam.coeffs) for lam in roots],
            f"level {args.level} of the grading at a{args.j} ({len(roots)} roots)\n"
            + "\n".join(str(lam) for lam in roots),
        )
        return 0
    payload = {
        "j": args.j,
        "levels": {str(nu): [list(r.coeffs) for r in grading.level(nu)] for nu in sorted(grading.levels)},
        "level_zero_positives": [list(r.coeffs) for r in grading.sigma_phi_pos],
    }
    lines = [f"grading of {rs.rtype} at a{args.j}"]
    lines.append(f"  level 0 (subsystem): {len(grading.sigma_phi_pos)} roots")
    for nu in sorted(grading.levels):
        lines.append(f"  level {nu}: {len(grading.level(nu))} roots")
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_strings(args) -> int:
    rs = _root_system_from(args)
    lam = _parse_root(rs, args.root)
    if args.beta:
        beta = _parse_root(rs, args.beta)
        roots = rs.root_string(lam, beta)
        label = f"string of {lam} along {beta}"
    else:
        phi = frozenset(_parse_coeffs(args.phi)) if args.phi else frozenset()
        roots = sorted(rs.phi_string(lam, phi))
        label = f"phi-string of {lam} over {sorted(phi)}"
    _emit(
        args,
        [list(r.coeffs) for r in roots],
        f"{label}: {len(roots)} roots\n" + "\n".join(str(r) for r in roots),
    )
    return 0


def _cmd_analyze(args) -> int:
    from . import nilcon

    catalog = _load_selected_catalog(args)
    if args.all:
        verdicts = nilcon.analyze_all(catalog)
    else:
        if not args.space or args.j is None:
            raise UsageError("analyze needs --space and --j, or --all")
        verdicts = [nilcon.analyze(find_space(catalog, args.space), args.j)]
    _emit(
        args,
        [v.to_json() for v in verdicts],
        nilcon.verdict_table(verdicts),
    )
    return 0


def _cmd_shape(args) -> int:
    from .shapeops import OrbitSubalgebra, shape_operator, space_model

    catalog = _load_selected_catalog(args)
    space = find_space(catalog, args.space)
    model = space_model(space)
    orbit = OrbitSubalgebra(model, args.j)
    ops = [shape_operator(orbit, xi) for xi in orbit.normal_basis()]
    polys = [[str(c) for c in op.charpoly()] for op in ops]
    tg = all(op.is_zero for op in ops)
    labels = model.algebra.labels
    n = len(orbit.h_keys)

    def rows(op):
        # the operator's rows as strings; an entry its sparse columns omit is 0
        out = [["0"] * n for _ in range(n)]
        for c, column in enumerate(op.columns):
            for r, v in column:
                out[r][c] = str(v)
        return out

    if args.format == "json":
        payload = {
            "space": space.name,
            "j": args.j,
            "w": "zero",
            "totally_geodesic": tg,
            "tangent_basis": [list(map(str, labels[k])) for k in orbit.h_keys],
            "operators": [
                {
                    "xi": [list(map(str, labels[k])) + [str(v)] for k, v in op.xi_key],
                    "matrix": rows(op),
                    "charpoly": poly,
                }
                for op, poly in zip(ops, polys)
            ],
        }
        _emit(args, payload, "")
        return 0
    lines = [f"{space.name}, j = {args.j}, w = 0"]
    lines.append(f"tangent basis: {', '.join('*'.join(map(str, labels[k])) for k in orbit.h_keys)}")
    for op, poly in zip(ops, polys):
        xi_label = " + ".join(f"({v})*{'*'.join(map(str, labels[k]))}" for k, v in op.xi_key)
        lines.append(f"A_xi for xi = {xi_label}:")
        if op.is_zero:
            lines.append("  0")
        else:
            lines.extend("  [" + ", ".join(row) + "]" for row in rows(op))
        lines.append("  charpoly: " + ", ".join(poly))
    lines.append(
        "singular orbit is totally geodesic" if tg else "singular orbit is NOT totally geodesic"
    )
    _emit(args, None, "\n".join(lines))
    return 0


def _cmd_classify(args) -> int:
    from .classify import classify, load_tg_table

    catalog = _load_selected_catalog(args)
    tg_table = load_tg_table(args.tg_table) if args.tg_table else None
    if args.all:
        blocks = [classify([entry], tg_table) for entry in catalog]
        _emit(args, [ac.to_json() for ac in blocks], "\n\n".join(ac.text() for ac in blocks))
        return 0
    if not args.space:
        raise UsageError("classify needs --space (repeatable) or --all")
    factors = [find_space(catalog, name) for name in args.space]
    ac = classify(factors, tg_table)
    _emit(args, ac.to_json(), ac.text())
    return 0


def _cmd_catalog(args) -> int:
    if args.family is not None and args.family not in FAMILIES:
        raise UsageError(f"unknown family {args.family!r}: choose from {', '.join(FAMILIES)}")
    catalog = _load_selected_catalog(args)
    entries = [
        e
        for e in catalog
        if (args.family is None or e.rtype.family == args.family)
        and (args.min_rank is None or e.rank >= args.min_rank)
    ]
    payload = [
        {
            "name": e.name,
            "family": e.rtype.family,
            "rank": e.rank,
            "mults": {length_text(n6): m for n6, m in e.mult},
            "dim": e.dim,
            "split": e.split_flag,
            "complexified": e.complexified_flag,
            "aliases": list(e.aliases),
        }
        for e in entries
    ]
    width = max((len(e.name) for e in entries), default=4)
    lines = [
        f"{e.name.ljust(width)}  {str(e.rtype):5s} dim {e.dim:4d}  mults "
        + " ".join(f"{length_text(n6)}:{m}" for n6, m in e.mult)
        for e in entries
    ]
    _emit(args, payload, "\n".join(lines))
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_verify

    records = run_verify(full=args.full)
    ok = all(r["status"] == "PASS" for r in records)
    lines = [
        f"{r['status']}  {r['name']}" + ("" if r["message"] is None else f": {r['message']}")
        for r in records
    ]
    _emit(args, records, "\n".join(lines + ["verify: " + ("OK" if ok else "FAILED")]))
    return 0 if ok else 1


def _hasse_graph(rs: RootSystem, j: int):
    """The level-one roots and the (lam, lam + a_i, i) edges between them."""
    nodes = rs.maximal_grading(j).level(1)
    node_set = set(nodes)
    edges = []
    for lam in nodes:
        for i in range(1, rs.rank + 1):
            up = lam.shifted(rs.simple(i))
            if Root(up) in node_set:
                edges.append((lam, Root(up), i))
    return nodes, edges


def render_hasse(rs: RootSystem, j: int, dot: bool = False) -> str:
    """Diagram of the level-one roots with simple-root covering edges.

    Nodes are identified by their coefficient vectors (stable across runs);
    an edge labelled a_i joins lam to lam + a_i when both are level one.
    """
    nodes, edges = _hasse_graph(rs, j)
    if dot:
        out = ["digraph level_one {"]
        out.append('  rankdir="LR";')
        for lam in nodes:
            ident = "n" + "_".join(map(str, lam.coeffs))
            out.append(f'  {ident} [label="{lam}"];')
        for a, b, i in edges:
            ia = "n" + "_".join(map(str, a.coeffs))
            ib = "n" + "_".join(map(str, b.coeffs))
            out.append(f'  {ia} -> {ib} [label="a{i}"];')
        out.append("}")
        return "\n".join(out)
    lines = [f"level-one roots of {rs.rtype} at a{j}: {len(nodes)} nodes"]
    for lam in nodes:
        lines.append(f"  {lam}  (height {lam.height})")
    lines.append("edges:")
    for a, b, i in edges:
        lines.append(f"  {a} --a{i}--> {b}")
    return "\n".join(lines)


# -- parser --------------------------------------------------------------------

_FORMAT = ("--format", dict(choices=("text", "json"), default="text"))
_CATALOG = ("--catalog", dict(help="path to an alternative catalog JSON"))
_TYPE = (
    ("--type", dict(required=True, help="family: A B C D E6 E7 E8 F4 G2 BC")),
    ("--rank", dict(type=int, help="rank (omit for fixed-rank families)")),
)
_ALL = ("--all", dict(action="store_true"))

# name -> (help line, handler, arguments in help order)
COMMANDS = {
    "roots": ("positive roots of a system", _cmd_roots, (*_TYPE, _FORMAT)),
    "grading": ("parabolic grading levels at a simple root", _cmd_grading, (
        *_TYPE,
        ("--j", dict(type=int, required=True)),
        ("--level", dict(type=int)),
        ("--hasse", dict(action="store_true", help="render the level-one diagram")),
        ("--dot", dict(action="store_true", help="DOT output for --hasse")),
        _FORMAT,
    )),
    "strings": ("root strings and phi-strings", _cmd_strings, (
        *_TYPE,
        ("--root", dict(required=True, help="coefficients, e.g. 1,0,1")),
        ("--beta", dict(help="direction root coefficients")),
        ("--phi", dict(help="comma-separated simple indices")),
        _FORMAT,
    )),
    "analyze": ("nilpotent-construction elimination verdicts", _cmd_analyze, (
        ("--space", {}),
        ("--j", dict(type=int)),
        _ALL,
        _FORMAT, _CATALOG,
    )),
    "shape": ("shape operators of a model orbit", _cmd_shape, (
        ("--space", dict(required=True)),
        ("--j", dict(type=int, required=True)),
        ("--w", dict(choices=("zero",), default="zero")),
        _FORMAT, _CATALOG,
    )),
    "classify": ("assemble the action catalog of a space", _cmd_classify, (
        ("--space", dict(action="append", help="catalog name; repeat for products")),
        _ALL,
        ("--tg-table", dict(help="path to the totally-geodesic-orbit table")),
        _FORMAT, _CATALOG,
    )),
    "catalog": ("list catalog entries", _cmd_catalog, (
        ("--family", {}),
        ("--min-rank", dict(type=int)),
        _FORMAT, _CATALOG,
    )),
    "verify": ("run the invariant battery", _cmd_verify, (
        ("--full", dict(action="store_true", help="include the exhaustive F4 checks")),
        _FORMAT,
    )),
}


def build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="c1atlas",
        description="exact root-system and shape-operator toolkit for "
        "cohomogeneity-one actions on noncompact symmetric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _read_plain(argv):
    """The namespace `build_parser().parse_args(argv)` gives a plain argv, else None.

    The module docstring says which argv are plain.  A flag that is not given
    takes its declared default (False for store_true); a repeated store flag
    keeps its last value and an append flag collects every value.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    declared = dict(COMMANDS[argv[0]][2])
    dests = {flag: flag[2:].replace("-", "_") for flag in declared}
    values = {
        dests[flag]: False if options.get("action") == "store_true" else options.get("default")
        for flag, options in declared.items()
    }
    values["command"] = argv[0]
    given = set()
    words = iter(argv[1:])
    for flag in words:
        if flag not in declared:
            return None
        given.add(flag)
        options, dest = declared[flag], dests[flag]
        if options.get("action") == "store_true":
            values[dest] = True
            continue
        word = next(words, None)
        if word is None or word.startswith("-"):
            return None
        try:
            value = options.get("type", str)(word)
        except (TypeError, ValueError):
            return None
        if value not in options.get("choices", (value,)):
            return None
        values[dest] = (values[dest] or []) + [value] if options.get("action") == "append" else value
    if any(options.get("required") and flag not in given for flag, options in declared.items()):
        return None
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_plain(argv) or build_parser().parse_args(argv)
    try:
        code = COMMANDS[args.command][1](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed stdout early (`c1atlas roots ... | head`): that is
        # not an error.  Point stdout at devnull so the flush at exit is silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0
    except C1AtlasError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
