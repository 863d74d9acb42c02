"""Command-line interface.

Commands: detect (the full pipeline), relations (the multiplicative
relation lattice), verify (the worked-example and lemma checkers), and
analyze (vanishing-subsum analysis of a single tuple).

Exit codes: 0 success, 1 a verification check failed, 2 invalid input,
3 budget or memory exhaustion (on budget exhaustion detect writes its
partial results, flagged; analyze and verify write no document, nor does
any command that runs out of memory).  All
randomness (the filter primes) is seeded from the configuration, and
JSON output uses sorted keys, so identical configurations produce
byte-identical documents.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from . import constructions, detect, jsonio, oracles, relations, subsum
from .errors import (
    ExponentBudgetExceeded,
    NonVanishingTotal,
    SuperspanError,
    TooManyTerms,
)
from .orbit import DEFAULT_EXPONENT_BUDGET, ExactOrbit

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_PARTIAL = 3

MIN_BUDGET = 2 ** 10
MAX_ANALYZE_TERMS = 40320  # 8!: analyze expands tuples of length at most 8


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built on the first call and shared by
    later ones: parse_args leaves the parser unchanged."""
    parser = argparse.ArgumentParser(
        prog="superspan",
        description="Detect and analyze linear subspaces super-spanned by "
                    "power-map orbits, in exact arithmetic.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_point_args(p):
        source = p.add_mutually_exclusive_group()
        source.add_argument("--point", help="JSON array of coordinates")
        source.add_argument("--point-file",
                            help="path to a JSON coordinate array or point document")
        p.add_argument("--field", default="rational",
                       help="for coordinate arrays: rational | cyclotomic:ELL | "
                            "numberfield:c0,c1,...")

    def add_common(p, budget=True):
        if budget:
            p.add_argument("--budget", type=int, default=None,
                           help="exponent budget for exact materialization")
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("detect", help="enumerate super-spanned subspaces")
    add_point_args(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-iter", type=int, required=True)
    p.add_argument("--primes", type=int, default=detect.DEFAULT_FILTER_PRIME_COUNT,
                   help=f"number of filter primes, 0..{detect.MAX_FILTER_PRIME_COUNT} "
                        "(0 disables the filter)")
    p.add_argument("--seed", type=int, default=detect.DEFAULT_SEED)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    add_common(p)

    p = sub.add_parser("relations", help="multiplicative relation lattice")
    add_point_args(p)
    add_common(p, budget=False)

    p = sub.add_parser("verify", help="run a worked-example verifier")
    p.add_argument("target", choices=("sextic", "cyclotomic", "quadric", "lemmas"))
    add_point_args(p)
    p.add_argument("--d", type=int, default=None,
                   help="degree (lemmas default: run 2, 3 and 5)")
    p.add_argument("--ell", type=int, default=5)
    p.add_argument("--tail", default="2,3", help="comma-separated rationals")
    p.add_argument("--max-iter", type=int, default=20)
    p.add_argument("--bound", type=int, default=12)
    add_common(p)

    p = sub.add_parser("analyze", help="vanishing-subsum analysis of one tuple")
    add_point_args(p)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", required=True, help="comma-separated iterate tuple")
    p.add_argument("--columns", help="comma-separated column selection (default 0..r)")
    p.add_argument("--mode", choices=("finest", "bullet"), default="finest")
    add_common(p)
    return parser


def _load_point(args):
    # a coordinate array is read in --field; a point document names its own
    ambient = jsonio.parse_field_spec(args.field)
    if args.point_file:
        with open(args.point_file) as fh:
            return jsonio.decode_point(json.load(fh), ambient)
    if args.point:
        return jsonio.decode_point(json.loads(args.point), ambient)
    raise ValueError("a point is required (--point or --point-file)")


def _resolve_budget(args) -> int:
    budget = args.budget
    if budget is None:
        env = os.environ.get("SUPERSPAN_BUDGET")
        budget = int(env) if env else DEFAULT_EXPONENT_BUDGET
    if budget < MIN_BUDGET:
        raise ValueError(f"budget must be at least {MIN_BUDGET}")
    return budget


def _emit(args, document: dict) -> None:
    _write(args, json.dumps(document, sort_keys=True, indent=2) + "\n")


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_detect(args) -> int:
    P = _load_point(args)
    budget = _resolve_budget(args)
    report = detect.enumerate_exceptional(
        P, args.d, args.r, args.max_iter,
        prime_count=args.primes, seed=args.seed, budget=budget)
    if args.format == "csv":
        _write(args, _csv_table(report))
    else:
        _emit(args, jsonio.encode_report(report))
    if report.diagnostics.get("skipped"):
        return EXIT_PARTIAL
    return EXIT_OK


def _csv_table(report) -> str:
    """One line per subspace of the report, after a header line."""
    rows = [["subspace", "dim_projective", "basis", "preimage", "intersection_count"]]
    rows += [[idx,
              rec.subspace.dim_projective,
              _csv_basis(rec.subspace),
              ";".join("-".join(str(x) for x in m) for m in rec.preimage),
              rec.intersection_count]
             for idx, rec in enumerate(report.subspaces)]
    return "".join(",".join(str(x) for x in row) + "\n" for row in rows)


def _csv_basis(subspace) -> str:
    return ";".join(" ".join("|".join(jsonio.encode_value(v)) for v in row)
                    for row in subspace.basis)


def _cmd_relations(args) -> int:
    P = _load_point(args)
    lattice = relations.relation_lattice(P)
    _emit(args, jsonio.encode_lattice(lattice))
    return EXIT_OK


def _cmd_verify(args) -> int:
    # every flag given is validated, also where the target does not read it
    budget = _resolve_budget(args)
    jsonio.parse_field_spec(args.field)
    P = None
    if args.point or args.point_file or args.target == "quadric":
        P = _load_point(args)
    if args.target == "sextic":
        report = constructions.verify_sextic_example()
        _emit(args, report)
        return EXIT_OK if all(c["pass"] for c in report["checks"]) else EXIT_CHECK_FAILED
    if args.target == "cyclotomic":
        tail = [Fraction(t) for t in args.tail.split(",")] if args.tail else []
        report = constructions.verify_cyclotomic_family(
            args.d if args.d is not None else 2, args.ell, tail, args.max_iter, budget)
        _emit(args, report)
        return EXIT_OK if all(c["pass"] for c in report["checks"]) else EXIT_CHECK_FAILED
    if args.target == "quadric":
        report = constructions.quadric_case_probe(
            P, args.d if args.d is not None else 2, args.bound)
        _emit(args, report)
        return EXIT_OK if not report["counterexamples"] else EXIT_CHECK_FAILED
    # lemmas: the power-difference oracle
    results = []
    ok = True
    for d in ([args.d] if args.d is not None else [2, 3, 5]):
        res = oracles.power_diff_classify(d, args.bound)
        results.append({"space": res.space, "checked": res.checked,
                        "counterexamples": [list(c) for c in res.counterexamples]})
        ok = ok and res.ok
    _emit(args, {"results": results})
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_analyze(args) -> int:
    P = _load_point(args)
    budget = _resolve_budget(args)
    m = tuple(int(x) for x in args.m.split(","))
    r = len(m) - 1
    terms = math.factorial(len(m))
    if terms > MAX_ANALYZE_TERMS:
        raise TooManyTerms(f"a tuple of length {len(m)} expands into {terms} terms; "
                           f"analyze is capped at {MAX_ANALYZE_TERMS}")
    columns = (tuple(int(x) for x in args.columns.split(","))
               if args.columns else tuple(range(r + 1)))
    exact = ExactOrbit(P, args.d, budget)
    tv = subsum.det_terms(P, args.d, m, columns, exact=exact)
    doc = {
        "input": {"point": jsonio.encode_point(P), "d": args.d,
                  "m": list(m), "columns": list(columns), "mode": args.mode},
        "terms": jsonio.encode_term_vector(tv),
    }
    if args.mode == "bullet":
        bullet = {}
        for t in range(r + 1):
            part = subsum.bullet_partition(r, t)
            sums = [jsonio.encode_value(tv.block_sum(block)) for block in part.blocks]
            bullet[str(t)] = {"partition": jsonio.encode_partition(part),
                              "block_sums": sums}
        doc["bullet_analysis"] = bullet
    else:
        try:
            res = subsum.finest_zero_partition(tv)
            doc["finest_partition"] = jsonio.encode_partition(res.partition)
            doc["non_unique"] = res.non_unique
            doc["exceptional_for"] = sorted(subsum.classify_exceptional(res.partition))
        except NonVanishingTotal:
            doc["diagnostic"] = "NonVanishingTotal"
        except TooManyTerms:
            doc["diagnostic"] = "TooManyTerms"

    rows = exact.rows(m)
    doc["deleted_row_ranks"] = [subsum.deleted_row_rank(rows, t) for t in range(r + 1)]
    _emit(args, doc)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code else EXIT_OK
    try:
        if args.command == "detect":
            return _cmd_detect(args)
        if args.command == "relations":
            return _cmd_relations(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_analyze(args)
    except ExponentBudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_PARTIAL
    except (SuperspanError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
