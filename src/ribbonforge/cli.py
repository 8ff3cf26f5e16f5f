"""Command-line front end.

Transform commands (``delete``, ``contract``, ``dual``, ``from-pd``) write
.arp text so they compose through pipes; question commands write a single
JSON document.  Exit codes: 0 success or affirmative verdict, 1 negative
verdict, 2 bad input or unsatisfiable request, 3 violated internal
invariant.  ``-`` names standard input wherever a file is expected.
"""

from __future__ import annotations

import argparse
import json
import sys

from .acceptance import criterion_numbers, run_all
from .canonical import canonical_key, equivalent
from .enumeration import EnumerationFilter, enumerate_all
from .errors import ParseError, RibbonError
from .links import all_A_ribbon_graph, intersection_graph, parse_pd, represents_link
from .minors import build_B, build_Bbar1, build_theta_t, excluded_minor_scan, has_minor
from .moves import contract_edge, delete_edge, geometric_dual, partial_dual
from .presentation import ArrowPresentation, parse_arp, serialize_arp
from .surfaces import surface_summary


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as ParseError (JSON, exit 2)."""

    def error(self, message):
        raise ParseError(message)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _load(path: str) -> ArrowPresentation:
    return parse_arp(_read_text(path))


def _emit(payload, pretty: bool) -> None:
    if pretty:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(json.dumps(payload, separators=(",", ":"), sort_keys=True))


def _emit_arp(pres: ArrowPresentation) -> None:
    text = serialize_arp(pres)
    print(text if text else "# empty")


def _build_parser() -> _Parser:
    parser = _Parser(prog="ribbonforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--pretty", action="store_true", help="indented output")
        return p

    p = command("info", "surface summary of a presentation")
    p.add_argument("file")

    p = command("delete", "delete an edge, print the result as .arp")
    p.add_argument("file")
    p.add_argument("-e", "--edge", required=True, metavar="LABEL")

    p = command("contract", "contract an edge, print the result as .arp")
    p.add_argument("file")
    p.add_argument("-e", "--edge", required=True, metavar="LABEL")

    p = command("dual", "partial dual at a label set, print the result as .arp")
    p.add_argument("file")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("-e", "--edges", metavar="L1,L2,...")
    group.add_argument("--all", action="store_true", help="dual at every edge")

    p = command("canonical", "canonical key of the equivalence class")
    p.add_argument("file")
    p.add_argument("--max-edges", type=int, default=None)

    p = command("equivalent", "decide equivalence of two presentations")
    p.add_argument("file")
    p.add_argument("other")
    p.add_argument("--max-edges", type=int, default=None)

    p = command("has-minor", "search for a minor and report a replayable script")
    p.add_argument("file")
    p.add_argument("--target", required=True,
                   help="bbar1 | b3 | theta-t | path to an .arp file")
    p.add_argument("--max-edges", type=int, default=None)

    p = command("scan", "check all three link-representability obstructions")
    p.add_argument("file")
    p.add_argument("--max-edges", type=int, default=None)

    p = command("interlacement", "interlacement graph of a one-vertex presentation")
    p.add_argument("file")

    p = command("represents-link", "decide representability of a ribbon graph")
    p.add_argument("file")
    p.add_argument("--witness", action="store_true",
                   help="include the plane partial-dual subset when representable")
    p.add_argument("--certificate", action="store_true",
                   help="include a minor script to an obstruction when not")

    p = command("from-pd", "build the all-A state ribbon graph of a PD code")
    p.add_argument("file")
    p.add_argument("--smoothing", choices=("A", "B"), default="A")

    p = command("enumerate", "list equivalence classes as .arp records")
    p.add_argument("-n", "--edges", type=int, required=True, metavar="N")
    p.add_argument("--connected", action="store_true")
    p.add_argument("--orientable", action="store_true")
    p.add_argument("--bouquets", action="store_true")

    p = command("verify", "run the acceptance criteria")
    p.add_argument("--criteria", metavar="N1,N2,...",
                   help="subset to run (default: all)")
    return parser


_NAMED_TARGETS = {
    "bbar1": build_Bbar1,
    "b3": lambda: build_B(3),
    "theta-t": build_theta_t,
}


def _dispatch(args) -> int:
    if args.command == "info":
        _emit(surface_summary(_load(args.file)).as_dict(), args.pretty)
        return 0

    if args.command == "delete":
        _emit_arp(delete_edge(_load(args.file), args.edge))
        return 0

    if args.command == "contract":
        _emit_arp(contract_edge(_load(args.file), args.edge))
        return 0

    if args.command == "dual":
        pres = _load(args.file)
        if args.all:
            _emit_arp(geometric_dual(pres))
        else:
            labels = {token for token in args.edges.split(",") if token}
            _emit_arp(partial_dual(pres, labels))
        return 0

    if args.command == "canonical":
        key = canonical_key(_load(args.file), max_edges=args.max_edges)
        _emit({"key": key.decode("ascii")}, args.pretty)
        return 0

    if args.command == "equivalent":
        same = equivalent(_load(args.file), _load(args.other), args.max_edges)
        _emit({"equivalent": same}, args.pretty)
        return 0 if same else 1

    if args.command == "has-minor":
        pres = _load(args.file)
        maker = _NAMED_TARGETS.get(args.target)
        target = maker() if maker else _load(args.target)
        found, script = has_minor(pres, target, max_edges=args.max_edges)
        _emit(
            {"found": found, "script": script.as_json() if script else None},
            args.pretty,
        )
        return 0 if found else 1

    if args.command == "scan":
        report = excluded_minor_scan(_load(args.file), max_edges=args.max_edges)
        _emit(
            {
                name: report[name].as_json() if name in report else None
                for name in ("bbar1", "b3", "theta_t")
            },
            args.pretty,
        )
        return 0

    if args.command == "interlacement":
        _emit(intersection_graph(_load(args.file)).as_dict(), args.pretty)
        return 0

    if args.command == "represents-link":
        verdict = represents_link(_load(args.file), certificates=args.certificate)
        payload = verdict.as_dict()
        if not args.witness:
            payload["witness"] = None
        _emit(payload, args.pretty)
        return 0 if verdict.representable else 1

    if args.command == "from-pd":
        code = parse_pd(_read_text(args.file))
        _emit_arp(all_A_ribbon_graph(code, convention=args.smoothing))
        return 0

    if args.command == "enumerate":
        filt = EnumerationFilter(
            max_edges=args.edges,
            connected_only=args.connected,
            orientable_only=args.orientable,
            bouquets_only=args.bouquets,
        )
        total = 0
        for pres in enumerate_all(filt):
            text = serialize_arp(pres)
            print(text if text else "# empty")
            print()
            total += 1
        print(f"# total {total}")
        return 0

    if args.command == "verify":
        if args.criteria:
            try:
                numbers = [int(tok) for tok in args.criteria.split(",") if tok]
            except ValueError as exc:
                raise ParseError(f"bad criteria list {args.criteria!r}") from exc
            unknown = [n for n in numbers if n not in criterion_numbers()]
            if unknown:
                raise ParseError(f"unknown criteria {unknown}")
        else:
            numbers = None
        results = run_all(numbers)
        if args.pretty:
            for result in results:
                print(result.line)
        else:
            _emit(
                {
                    "passed": all(r.passed for r in results),
                    "criteria": [
                        {
                            "number": r.number,
                            "name": r.name,
                            "passed": r.passed,
                            "details": r.details,
                            "seconds": round(r.seconds, 3),
                        }
                        for r in results
                    ],
                },
                False,
            )
        return 0 if all(r.passed for r in results) else 3

    raise ParseError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _dispatch(args)
    except RibbonError as exc:
        _emit({"error": {"type": type(exc).__name__, "message": str(exc)}}, False)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
