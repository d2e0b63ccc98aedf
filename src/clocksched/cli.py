"""Command-line front end.

Subcommands mirror the library surface: parse a spec, transform it
into a schedule, emit a schedule as text, verify or analyze a
schedule document, and enumerate a sparse graph.  Schedules travel
between subcommands as JSON documents.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .clock import make_clock
from .emit import emit, schedule_from_json, schedule_to_json
from .engine import enumerate_schedule, enumerate_sparse, parse_edge_list
from .formula import SpecSyntaxError, check_legality, parse_spec, print_spec
from .schedule import BuildError, build_schedule
from .verify import DEFAULT_SEED, analyze, verify_report


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _parse_clock(text: str):
    parts = text.lower().split("x")
    if len(parts) not in (2, 3) or not all(p.isdigit() for p in parts):
        raise argparse.ArgumentTypeError(
            f"clock {text!r} is not K x RATE [x SCALE], like 3x2 or 4x2x2"
        )
    k, rate = int(parts[0]), int(parts[1])
    scale = int(parts[2]) if len(parts) == 3 else 1
    try:
        return make_clock(k, rate, scale)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _parse_trials(text: str) -> int:
    try:
        trials = int(text)
    except ValueError:
        trials = 0
    if trials < 1:  # no trial would run, and equivalence would read ok
        raise argparse.ArgumentTypeError(f"trials {text!r} is not a count of at least 1")
    return trials


def _parse_map(text: str) -> dict[str, int]:
    out: dict[str, int] = {}
    for chunk in text.split(","):
        name, _, value = chunk.partition("=")
        name = name.strip()
        if not name or not value.strip().isdigit():
            raise argparse.ArgumentTypeError(
                f"mapping chunk {chunk!r} is not NAME=POWER"
            )
        out[name] = int(value)
    return out


def _parse_unfold(text: str) -> tuple[str, int]:
    name, _, value = text.partition("=")
    if not name or not value.isdigit():
        raise argparse.ArgumentTypeError(f"unfold {text!r} is not NAME=COPIES")
    return name, int(value)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clocksched",
        description="restructure map-reduce index spaces over power-of-two clocks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="check a spec and print its canonical form")
    p.add_argument("spec", help="spec file, or - for stdin")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("transform", help="build a schedule from a spec")
    p.add_argument("spec", help="spec file, or - for stdin")
    p.add_argument("--clock", type=_parse_clock, default=None, metavar="KxRATE[xSCALE]")
    p.add_argument("--map", dest="mapping", type=_parse_map, default=None, metavar="N=8,M=4")
    p.add_argument("--order", default=None, help="comma list of indexes, outermost first")
    p.add_argument("--convolutions", type=int, default=None, metavar="LEVELS")
    p.add_argument("--unfold", type=_parse_unfold, default=None, metavar="NAME=COPIES")
    p.add_argument("--temp-budget", dest="budget", type=int, default=None, metavar="CELLS")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("emit", help="print a schedule document as loop text")
    p.add_argument("schedule", help="schedule JSON file, or - for stdin")
    p.add_argument("--notation", choices=("for", "form", "enum"), default="for")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser(
        "verify",
        help="coverage, dependence, and equivalence checks",
        description=(
            "Check a schedule document against its source: every domain point "
            "exactly once, every dependence kept, and the same arrays, exactly. "
            "On an own trace (the source's padded spec, no rewrite or epilogue) "
            "that passes coverage and dependencies, and whose spec has no formula "
            "reading an array that an accumulation at or before it writes, "
            "equivalence follows from those two checks and is not run, so there "
            "they are not independent witnesses; every other schedule runs the "
            "exact check."
        ),
    )
    p.add_argument("schedule", help="schedule JSON file, or - for stdin")
    p.add_argument("--trials", type=_parse_trials, default=10,
                   help="random stores, used only past the exact budget")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed of those stores, used only past the exact budget")

    p = sub.add_parser("analyze", help="parallelism and coloring profile")
    p.add_argument("schedule", help="schedule JSON file, or - for stdin")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("sparse", help="enumerate a sparse graph over a unit clock")
    p.add_argument("edges", help="edge list file (one 'from to' pair per line), or -")
    p.add_argument("--unit", type=_parse_clock, default=None, metavar="KxRATE[xSCALE]")
    p.add_argument("--bfs", action="store_true", help="breadth-first instead of depth-first")
    p.add_argument("-o", "--output", default=None)

    return parser


def _load_tree(path: str):
    try:
        doc = json.loads(_read_text(path))
    except RecursionError:
        raise ValueError("schedule document nests deeper than the JSON reader allows") from None
    return schedule_from_json(doc)


def _cmd_parse(args) -> int:
    spec = parse_spec(_read_text(args.spec))
    problems = check_legality(spec)
    if problems:
        for line in problems:
            print(f"problem: {line}", file=sys.stderr)
        return 1
    _write_text(args.output, print_spec(spec))
    return 0


def _cmd_transform(args) -> int:
    order = args.order.split(",") if args.order else None
    tree = build_schedule(
        _read_text(args.spec),
        clock=args.clock,
        assignment=args.mapping,
        order=order,
        convolutions=args.convolutions,
        unfold_over=args.unfold,
        budget=args.budget,
    )
    _write_text(args.output, json.dumps(schedule_to_json(tree)) + "\n")
    return 0


def _cmd_emit(args) -> int:
    _write_text(args.output, emit(_load_tree(args.schedule), args.notation))
    return 0


def _enumerate(tree):
    """``enumerate_schedule``; a tree whose visits do not fit in memory,
    which fails its first allocation, is refused by their count."""
    try:
        return enumerate_schedule(tree)
    except MemoryError:
        from .schedule import nest_loops

        visits = sum(math.prod(l.count for l in nest_loops(chain)) for chain in tree.roots)
        raise ValueError(f"the schedule's loops count {visits} visits, too many to hold in memory") from None


def _cmd_verify(args) -> int:
    tree = _load_tree(args.schedule)
    if tree.spec is None:  # refused before its loops are enumerated
        raise ValueError("a schedule without a spec has nothing to verify")
    report = verify_report(_enumerate(tree), trials=args.trials, seed=args.seed)
    print("\n".join(report["lines"]))
    return 0 if report["ok"] else 1


def _cmd_analyze(args) -> int:
    profile = analyze(_enumerate(_load_tree(args.schedule)))
    _write_text(args.output, json.dumps(profile.to_json(), indent=2) + "\n")
    return 0


def _cmd_sparse(args) -> int:
    # the graph goes with the walk, and a refused graph opens no file
    listing = enumerate_sparse(
        parse_edge_list(_read_text(args.edges)), args.unit or make_clock(1), bfs=args.bfs
    )
    if args.output is None or args.output == "-":
        listing.write(sys.stdout)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            listing.write(handle)
    return 0


_COMMANDS = {
    "parse": _cmd_parse,
    "transform": _cmd_transform,
    "emit": _cmd_emit,
    "verify": _cmd_verify,
    "analyze": _cmd_analyze,
    "sparse": _cmd_sparse,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (SpecSyntaxError, BuildError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
