"""Command-line front end.

Subcommands: build | lattice | modular | supersolvable | poincare | decompose
| verify-paper.  Arrangement specs are catalog names (D4, G31, G(3,1,3),
A(3), B3, ...), product(spec, spec) expressions, or paths to arrangement
files.  Exit codes: 0 success, 1 verification failure, 2 parse error,
3 computation refusal, 4 internal error.  Stdout holds only the rendered report, human or
``--json``, so two runs print the same bytes; the ``time`` lines go to
stderr.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from math import lcm

from . import __version__
from .analysis import checked_exponents, is_supersolvable, modular_flats_of_rank, poincare
from .arrangement import (DEFAULT_MAX_FLATS, Arrangement, irreducible_decomposition,
                          product)
from .cache import CACHE_ENV, load_or_build
from .claims import LatticeStore, claim_scopes, run_claims, unknown_scope
from .errors import InternalInconsistencyError, ParseError, RefusalError
from .parse import MAX_NESTING, check_packed_size, parse_arrangement_file
from .reflection import build_named
from .report import (arrangement_payload, certificate_payload, lattice_payload,
                     poincare_payload, render_human, report_json, verdict_payload)

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_REFUSED = 3
EXIT_INTERNAL = 4


def resolve_spec(spec: str, nesting: int = 0) -> tuple[str, Arrangement]:
    """Turn a spec string into an arrangement, rejecting unknown names early.
    ``product(`` nests at most ``MAX_NESTING`` levels deep, and a product
    packs at most ``MAX_PACKED`` integers, checked before its rows are made
    (``check_packed_size``); deeper or larger specs are a ``ParseError``,
    which names the innermost refused spec once."""
    spec = spec.strip()
    if spec.startswith("product(") and spec.endswith(")"):
        if nesting == MAX_NESTING:
            raise ParseError(f"product(...) nested deeper than {MAX_NESTING} levels")
        body = spec[len("product("):-1]
        parts = []
        depth = 0
        start = 0
        for k, ch in enumerate(body):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                parts.append(body[start:k])
                start = k + 1
        parts.append(body[start:])
        if len(parts) != 2:
            raise ParseError(f"product(...) takes exactly two specs: {spec!r}")
        name1, a1 = resolve_spec(parts[0], nesting + 1)
        name2, a2 = resolve_spec(parts[1], nesting + 1)
        order = lcm(a1.order, a2.order)
        try:
            check_packed_size(len(a1) + len(a2), a1.ambient + a2.ambient, order)
        except ParseError as exc:
            raise ParseError(f"arrangement spec {spec!r} over field order {order}, the lcm "
                             f"of its factors' orders {a1.order} and {a2.order}: {exc}") from None
        return f"product({name1}, {name2})", product(a1, a2)
    if spec.startswith("file:"):
        return spec, parse_arrangement_file(spec[len("file:"):])
    try:
        return spec, build_named(spec)
    except KeyError:
        pass
    except (ValueError, ParseError) as exc:  # bad parameters, or past the parser's bounds
        raise ParseError(f"arrangement spec {spec!r}: {exc}") from None
    if os.path.sep in spec or os.path.isfile(spec):
        return spec, parse_arrangement_file(spec)
    raise ParseError(f"unknown arrangement spec {spec!r}: not a catalog name, "
                     "not a product(...) expression, not a readable file")


def _positive_count(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a whole number of at least 1, got {text!r}")
    return int(text)


@functools.cache
def _make_parser() -> argparse.ArgumentParser:
    """Built once per process; ``main`` reads ``$HYPARR_CACHE_DIR`` at run time."""
    parser = argparse.ArgumentParser(
        prog="hyparr",
        description="Exact intersection lattices, modular elements and "
                    "supersolvability certificates for complex hyperplane "
                    "arrangements.")
    parser.add_argument("--version", action="version", version=f"hyparr {__version__}")
    parser.add_argument("--json", action="store_true",
                        help="emit a machine-readable JSON report on stdout")
    parser.add_argument("--cache-dir",
                        help=f"lattice cache directory (default: ${CACHE_ENV})")
    parser.add_argument("--max-flats", type=_positive_count, default=DEFAULT_MAX_FLATS,
                        help="abort lattice builds beyond this many flats")
    parser.add_argument("--threads", type=_positive_count, default=1,
                        help="accepted for compatibility; every command runs on "
                             "one thread, and the output is the same for any N")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, extra in (
        ("build", "normalize and summarize an arrangement"),
        ("lattice", "build the intersection lattice and report level sizes"),
        ("supersolvable", "compute a supersolvability certificate"),
        ("poincare", "compute the Poincare polynomial (and exponents when defined)"),
        ("decompose", "split into irreducible factors in essential coordinates"),
    ):
        p = sub.add_parser(name, help=extra)
        p.add_argument("spec", help="arrangement spec (name, product(...), or file)")
    p = sub.add_parser("modular", help="modularity verdicts for flats of one rank")
    p.add_argument("spec")
    p.add_argument("--rank", type=int, required=True)
    p = sub.add_parser("verify-paper",
                       help="replay the bundled witness claims and classification "
                            "cross-checks")
    p.add_argument("scope", nargs="?", default="all",
                   help="all | witnesses | rank2 | equivalence | classification "
                        "| an arrangement name")
    return parser


def _emit(report: dict, args, timings: dict[str, float],
          report_started: float | None = None) -> None:
    """Write the rendered report to stdout, then the timings to stderr, one
    ``time KEY: SECONDS`` line each, in both modes.  With ``report_started``,
    the perf_counter reading taken before the payload was built, the timings
    gain ``report``: payload building, witness certification and rendering."""
    text = report_json(report) if args.json else render_human(report)
    if report_started is not None:
        timings["report"] = time.perf_counter() - report_started
    sys.stdout.write(text)
    for key, dt in timings.items():
        print(f"time {key}: {dt:.3f}s", file=sys.stderr)


def _run(args) -> int:
    if args.command == "verify-paper":
        if args.scope not in claim_scopes():
            raise ParseError(unknown_scope(args.scope))
        t0 = time.perf_counter()
        store = LatticeStore(max_flats=args.max_flats, cache_dir=args.cache_dir)
        results = run_claims(args.scope, store)
        report = {
            "command": "verify-paper",
            "scope": args.scope,
            "claims": [{
                "claim_id": r.claim_id,
                "kind": r.kind,
                "arrangement": r.arrangement,
                "passed": r.passed,
                "detail": r.detail,
            } for r in results],
            "passed": all(r.passed for r in results),
            "scopes": claim_scopes(),
        }
        _emit(report, args, {"total": time.perf_counter() - t0})
        return EXIT_OK if report["passed"] else EXIT_VERIFICATION_FAILED

    name, arr = resolve_spec(args.spec)
    report: dict = {"command": args.command}
    timings: dict[str, float] = {}

    if args.command == "build":
        report["arrangement"] = arrangement_payload(arr, arr.rank(), name)
        _emit(report, args, timings)
        return EXIT_OK

    if args.command == "decompose":
        t0 = time.perf_counter()
        factors = irreducible_decomposition(arr)
        timings["decompose"] = time.perf_counter() - t0
        # the factors are essential, so their dimensions add up to the rank
        rank = sum(f.ambient for f in factors)
        report["arrangement"] = arrangement_payload(arr, rank, name)
        report["essentialized"] = rank != arr.ambient
        report["factors"] = [arrangement_payload(f, f.ambient) for f in factors]
        _emit(report, args, timings)
        return EXIT_OK

    t0 = time.perf_counter()
    lattice = load_or_build(arr, args.cache_dir, args.max_flats)
    timings["lattice"] = time.perf_counter() - t0
    report["arrangement"] = arrangement_payload(arr, lattice.rank(), name)
    report["lattice"] = lattice_payload(lattice)

    if args.command == "lattice":
        _emit(report, args, timings)
        return EXIT_OK

    if args.command == "modular":
        if not 0 <= args.rank <= lattice.rank():
            raise ParseError(f"--rank must lie in 0..{lattice.rank()} "
                             f"for this arrangement")
        t0 = time.perf_counter()
        verdicts = modular_flats_of_rank(lattice, args.rank)
        timings["modular"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        report["modular"] = {
            "rank": args.rank,
            "flat_count": len(verdicts),
            "modular_count": sum(v.modular for v in verdicts),
            "verdicts": [verdict_payload(v) for v in verdicts],
        }
        _emit(report, args, timings, t0)
        return EXIT_OK

    if args.command == "supersolvable":
        t0 = time.perf_counter()
        cert = is_supersolvable(lattice)
        timings["supersolvable"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        report["supersolvable"] = certificate_payload(cert)
        _emit(report, args, timings, t0)
        return EXIT_OK

    if args.command == "poincare":
        t0 = time.perf_counter()
        poly = poincare(arr, lattice)
        cert = is_supersolvable(lattice)
        exponents = checked_exponents(poly, cert) if cert.verdict else None
        timings["poincare"] = time.perf_counter() - t0
        t0 = time.perf_counter()
        report["supersolvable"] = certificate_payload(cert)
        report["poincare"] = poincare_payload(poly, exponents)
        _emit(report, args, timings, t0)
        return EXIT_OK

    raise ParseError(f"unknown command {args.command!r}")


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    if args.cache_dir is None:
        args.cache_dir = os.environ.get(CACHE_ENV)
    try:
        return _run(args)
    except ParseError as exc:
        print(f"hyparr: parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except RefusalError as exc:
        print(f"hyparr: refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED
    except InternalInconsistencyError as exc:
        print(f"hyparr: internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
