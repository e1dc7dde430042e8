"""Command-line interface.

One binary with subcommands; all output is deterministic (byte-identical
across runs on the same input).  Exit codes: 0 success, 2 validation error,
3 size-cap exceeded, 4 internal invariant violation.  One grammar table holds
every option.  Canonical command lines are read straight from it; argparse
builds its tree from the same table only for help, errors and other spellings.

    tilegraphs validate   data.json [--format text|json]
    tilegraphs skeleton   data.json [--format dot|json]
    tilegraphs analyze    data.json [--format json|text] [--witness-bound A,B]
    tilegraphs import-prw rule.json [--format json|text]
    tilegraphs entropy    data.json [--dmax N] [--format csv|json]
    tilegraphs verify     data.json [--degree A,B] [--format text|json]
"""

from __future__ import annotations

import argparse
import sys

from .checks import run_axiom_suite
from .data import import_prw, prw_vertex_labellings
from .dynamics import AperiodicityStatus, simplicity_report, witness_evidence
from .errors import SizeLimit, TileGraphError, ValidationError
from .graph import COLOUR_AXIS, _pairwise_edges, build_skeleton, to_dot
from .limits import Limits
from .serialize import (
    basic_data_from_dict,
    basic_data_to_dict,
    census_to_csv,
    census_to_rows,
    dumps,
    load_json,
    prw_from_dict,
    report_to_dict,
    vertex_to_dict,
)
from .shifts import entropy_sequence


def _parse_degree(text: str) -> tuple[int, int]:
    parts = text.strip().lstrip("(").rstrip(")").split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected a degree like '2,2', got {text!r}")
    try:
        a, b = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers in degree {text!r}"
        ) from None
    if a < 0 or b < 0:
        raise argparse.ArgumentTypeError(f"degree must be non-negative, got {text!r}")
    return (a, b)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _limits(args) -> Limits:
    return Limits(
        max_tile_cells=args.max_tile_cells,
        max_vertices=args.max_vertices,
        max_paths=args.max_paths,
    )


def cmd_validate(args) -> int:
    limits = _limits(args)
    bd = basic_data_from_dict(load_json(args.file), limits=limits)
    sk = build_skeleton(bd, limits)
    n = len(sk.vertices)
    identity_ok = n == bd.vertex_count()
    if args.format == "json":
        sys.stdout.write(
            dumps(
                {
                    "vertices": n,
                    "vertex_count_identity": identity_ok,
                    "degenerate": bd.degenerate,
                    "ok": True,
                }
            )
        )
    else:
        print(f"{n} vertices, OK")
    return 0


def cmd_skeleton(args) -> int:
    limits = _limits(args)
    bd = basic_data_from_dict(load_json(args.file), limits=limits)
    sk = build_skeleton(bd, limits)
    if args.format == "json":
        sys.stdout.write(
            dumps(
                {
                    "vertices": [vertex_to_dict(v) for v in sk.vertices],
                    "blue_edges": sk.blue,
                    "red_edges": sk.red,
                }
            )
        )
    else:
        sys.stdout.write(to_dot(sk))
    return 0


def cmd_analyze(args) -> int:
    limits = _limits(args)
    bd = basic_data_from_dict(load_json(args.file), limits=limits)
    sk = build_skeleton(bd, limits)
    report = simplicity_report(bd, skeleton=sk, limits=limits)
    if report.verdict.status is AperiodicityStatus.UNKNOWN:
        report.notes.append(witness_evidence(bd, sk, args.witness_bound, limits))
    doc = report_to_dict(report)
    if args.format == "text":
        print(f"verdict: {doc['verdict']}")
        print(f"note: {doc['witness_note']}")
        print(f"strongly connected: {doc['strongly_connected']} (k={doc['k']})")
        print(f"cofinal: {doc['cofinal']}")
        for flag, value in doc["flags"].items():
            shown = "undetermined" if value is None else value
            print(f"{flag}: {shown} -- {doc['justifications'][flag]}")
        for note in doc["notes"]:
            print(f"note: {note}")
    else:
        sys.stdout.write(dumps(doc))
    return 0


def cmd_import_prw(args) -> int:
    limits = _limits(args)
    params = prw_from_dict(load_json(args.file), limits=limits)
    bd = import_prw(params, limits=limits)
    sk = build_skeleton(bd, limits)

    summary: dict[str, object]
    try:
        oracle = prw_vertex_labellings(params, limits=limits)
    except SizeLimit:
        summary = {
            "vertices": len(sk.vertices),
            "vertex_sets_equal": None,
            "edge_sets_equal": None,
            "note": "brute-force comparison skipped (size cap)",
        }
    else:
        keys = [tuple(d[p] for p in bd.tile.sorted_points) for d in oracle]
        vertices_match = sorted(keys) == sorted(v.symbols for v in sk.vertices)
        edges_match = True
        if vertices_match:
            # Edges indexed by position in the oracle list, found by the
            # pairwise scan rather than the skeleton's join.
            pos = {key: i for i, key in enumerate(keys)}
            at = [pos[v.symbols] for v in sk.vertices]
            for colour, axis in COLOUR_AXIS.items():
                have = {(at[i], at[j]) for i, j in sk.edges(colour)}
                if set(_pairwise_edges(bd.tile, keys, axis)) != have:
                    edges_match = False
        summary = {
            "vertices": len(sk.vertices),
            "vertex_sets_equal": vertices_match,
            "edge_sets_equal": edges_match,
        }

    doc = {"basic_data": basic_data_to_dict(bd), "isomorphism_check": summary}
    if args.format == "text":
        print(f"imported {summary['vertices']} vertices")
        print(f"vertex sets equal: {summary['vertex_sets_equal']}")
        print(f"edge sets equal: {summary['edge_sets_equal']}")
    else:
        sys.stdout.write(dumps(doc))
    return 0


def cmd_entropy(args) -> int:
    limits = _limits(args)
    bd = basic_data_from_dict(load_json(args.file), limits=limits)
    census = entropy_sequence(bd, args.dmax, limits=limits)
    if args.format == "json":
        sys.stdout.write(dumps({"census": census_to_rows(census)}))
    else:
        sys.stdout.write(census_to_csv(census))
    return 0


def cmd_verify(args) -> int:
    limits = _limits(args)
    bd = basic_data_from_dict(load_json(args.file), limits=limits)
    results = run_axiom_suite(bd, degree=args.degree, limits=limits)
    ok = all(r.ok for r in results)
    if args.format == "json":
        sys.stdout.write(
            dumps(
                {
                    "ok": ok,
                    "checks": [
                        {"name": r.name, "ok": r.ok, "detail": r.detail}
                        for r in results
                    ],
                }
            )
        )
    else:
        for r in results:
            print(f"{'PASS' if r.ok else 'FAIL'} {r.name}: {r.detail}")
    return 0 if ok else 4


class UsageError(ValidationError):
    """A command line the argument parser rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises a usage problem as :class:`UsageError`, so ``main`` reports it
    as a JSON diagnostic like every other exit-2 path; subcommand parsers
    inherit the class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _option(flag: str, default, **keywords) -> dict[str, dict]:
    """A flag and its ``add_argument`` keywords, with the dest argparse derives."""
    return {flag: dict(dest=flag[2:].replace("-", "_"), default=default, **keywords)}


def _format(*choices: str) -> dict[str, dict]:
    return _option("--format", choices[0], choices=list(choices))


# The grammar, read by both build_parser() and _read_argv(): the global caps,
# then per subcommand its handler, help line and options after the file.
_CAPS = (_option("--max-tile-cells", 64, type=_positive_int)
         | _option("--max-vertices", 1024, type=_positive_int)
         | _option("--max-paths", 200_000, type=_positive_int))
_DEGREE = dict(type=_parse_degree, metavar="A,B")
_COMMANDS = {
    "validate": (cmd_validate, "validate a basic-data file", _format("text", "json")),
    "skeleton": (cmd_skeleton, "emit the skeleton (DOT by default)", _format("dot", "json")),
    "analyze": (cmd_analyze, "aperiodicity certificate and report", _format("json", "text")
                | _option("--witness-bound", (2, 2), **_DEGREE,
                          help="extra degree added to the join in bounded witness searches")),
    "import-prw": (cmd_import_prw, "import modular-rule parameters", _format("json", "text")),
    "entropy": (cmd_entropy, "block counts and entropy terms",
                _option("--dmax", 10, type=_positive_int) | _format("csv", "json")),
    "verify": (cmd_verify, "run the category axiom suites",
               _option("--degree", (2, 2), **_DEGREE) | _format("text", "json")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="tilegraphs",
                     description="Tile-generated rank-2 graphs and their shift spaces.")
    for flag, keywords in _CAPS.items():
        parser.add_argument(flag, **keywords)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_line, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("file")
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
        p.set_defaults(func=func)
    return parser


def _read_argv(argv) -> argparse.Namespace | None:
    """``build_parser().parse_args(argv)`` on a canonical line -- exact cap flags,
    the subcommand, then its exact flags and one file in any order, each flag with
    a separate value not starting with ``-`` -- else None, for argparse to read."""
    options, args, tokens = _CAPS, {}, iter(argv)
    for token in tokens:
        if token in options:
            keywords = options[token]
            value = next(tokens, "-")  # a missing value is refused like a flag
            if value.startswith("-"):
                return None
            try:
                value = keywords.get("type", str)(value)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if value not in keywords.get("choices", [value]):
                return None
            args[keywords["dest"]] = value
        elif token.startswith("-") or "file" in args:
            return None
        elif "command" in args:
            args["file"] = token
        elif token in _COMMANDS:
            args["func"], _, options = _COMMANDS[token]
            args["command"] = token
        else:
            return None
    if "file" not in args:
        return None
    for keywords in [*_CAPS.values(), *options.values()]:
        args.setdefault(keywords["dest"], keywords["default"])
    return argparse.Namespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _read_argv(argv) or build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help, after printing to stdout
        return 2 if exc.code else 0
    except TileGraphError as err:
        sys.stderr.write(dumps({"error": err.code, "message": str(err)}))
        return err.exit_code
    except OSError as err:
        code = type(err).__name__.removesuffix("Error")
        sys.stderr.write(dumps({"error": code, "message": str(err)}))
        return 2


if __name__ == "__main__":
    sys.exit(main())
