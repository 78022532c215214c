"""Command-line driver.

Exit codes: 0 success/true, 1 negative result, 2 usage or parse error,
3 internal or resource error.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import evaluate, hardness
from .detect import brute_force_qw, decompose, hypertree_width
from .errors import (
    DatabaseFormatError,
    DecompositionFormatError,
    HtdError,
    InconclusiveError,
    InvalidDecompositionError,
    QuerySyntaxError,
)
from .hypertree import (
    hypertree_from_json,
    hypertree_to_json,
    is_complete,
    qd_from_json,
    qd_to_json,
    validate_hd,
    validate_nf,
    validate_qd,
)
from .model import parse_database, parse_query

EXIT_OK = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(path: str, text: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _print_violations(report):
    for v in report.violations:
        where = "-" if v.vertex is None else v.vertex
        print(f"CONDITION {v.condition} vertex {where}: {v.witness}")


def cmd_decompose(args) -> int:
    q = parse_query(_read(args.query))
    h = decompose(q, args.k)
    if h is None:
        print(f"no decomposition of width <= {args.k}")
        return EXIT_NO
    text = hypertree_to_json(q, h)
    if args.out:
        _write(args.out, text)
        print(f"width {h.width()}, {len(h)} vertices")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_check(args) -> int:
    q = parse_query(_read(args.query))
    text = _read(args.decomposition)
    if args.qd:
        _, d = qd_from_json(text)
        report = validate_qd(q, d)
        _print_violations(report)
        return EXIT_OK if report.valid else EXIT_NO
    _, h = hypertree_from_json(text)
    report = validate_hd(q, h)
    if not report.valid:
        _print_violations(report)
        return EXIT_NO
    if args.complete and not is_complete(q, h):
        print("CONDITION COMPLETE vertex -: some atom lacks a covering label")
        return EXIT_NO
    if args.nf:
        report = validate_nf(q, h)
        if not report.valid:
            _print_violations(report)
            return EXIT_NO
    print("ok")
    return EXIT_OK


def cmd_width(args) -> int:
    q = parse_query(_read(args.query))
    found = hypertree_width(q, args.max)
    if found is None:
        print(f"width exceeds {args.max}")
        return EXIT_NO
    print(found[0])
    return EXIT_OK


def cmd_eval(args) -> int:
    q = parse_query(_read(args.query))
    db = parse_database(_read(args.db))
    hd = None
    if args.hd:
        _, hd = hypertree_from_json(_read(args.hd))
    boolean = args.boolean or q.is_boolean
    if boolean:
        answer = evaluate.eval_boolean(q, db, hd, args.k_cap)
        if args.brute:
            brute = bool(evaluate.brute_force_eval(q, db))
            if brute != answer:
                print(
                    f"mismatch: decomposition={answer} brute={brute}",
                    file=sys.stderr,
                )
                return EXIT_INTERNAL
        print("true" if answer else "false")
        return EXIT_OK if answer else EXIT_NO
    rows = evaluate.eval_full(q, db, hd, args.k_cap)
    if args.brute:
        brute = evaluate.brute_force_eval(q, db)
        if brute != rows:
            print(
                f"mismatch: decomposition gave {len(rows)} rows, "
                f"brute force gave {len(brute)}",
                file=sys.stderr,
            )
            return EXIT_INTERNAL
    sys.stdout.write(evaluate.format_answers(q, rows))
    return EXIT_OK if rows else EXIT_NO


def cmd_acyclic(args) -> int:
    q = parse_query(_read(args.query))
    acyclic = decompose(q, 1) is not None  # width 1 exactly when acyclic
    print("acyclic" if acyclic else "cyclic")
    return EXIT_OK if acyclic else EXIT_NO


def _format_3ps(sys_: hardness.ThreePartitionSystem) -> str:
    pos = {x: i for i, x in enumerate(sys_.base)}
    lines = ["base: " + " ".join(sys_.base)]
    for i, p in enumerate(sys_.partitions):
        cls = " | ".join(
            " ".join(sorted(c, key=pos.__getitem__)) for c in p
        )
        lines.append(f"partition {i}: {cls}")
    return "\n".join(lines) + "\n"


def cmd_gen_hard(args) -> int:
    if args.three_ps:
        m, k = args.three_ps
        system = hardness.gen_strict_3ps(m, k)
        text = _format_3ps(system)
        if args.out:
            _write(args.out, text)
        else:
            sys.stdout.write(text)
        return EXIT_OK
    inst = hardness.parse_x3c(_read(args.x3c))
    q = hardness.x3c_to_query(inst)
    query_text = str(q) + "\n"
    cover = hardness.exact_cover(inst)
    qd_text = None
    if cover is not None:
        d = hardness.witness_qd_from_cover(inst, cover)
        qd_text = qd_to_json(q, d)
    if args.out:
        _write(args.out + ".query", query_text)
        if qd_text is not None:
            _write(args.out + ".qd.json", qd_text)
    else:
        sys.stdout.write(query_text)
        if qd_text is not None:
            sys.stdout.write(qd_text)
    if qd_text is None:
        print("no exact cover; witness omitted", file=sys.stderr)
        return EXIT_NO
    return EXIT_OK


def cmd_oracle(args) -> int:
    if args.what == "qw":
        q = parse_query(_read(args.query))
        ok = brute_force_qw(q, args.k) is not None
        print("true" if ok else "false")
        return EXIT_OK if ok else EXIT_NO
    q = parse_query(_read(args.query))
    db = parse_database(_read(args.db))
    rows = evaluate.brute_force_eval(q, db)
    if q.is_boolean:
        print("true" if rows else "false")
        return EXIT_OK if rows else EXIT_NO
    sys.stdout.write(evaluate.format_answers(q, rows))
    return EXIT_OK if rows else EXIT_NO


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="htd",
        description="Hypertree decompositions of conjunctive queries",
    )
    sub = p.add_subparsers(dest="command", required=True)

    d = sub.add_parser("decompose", help="find a width-k decomposition")
    d.add_argument("query")
    d.add_argument("k", type=int)
    d.add_argument("-o", "--out")
    d.set_defaults(fn=cmd_decompose)

    c = sub.add_parser("check", help="validate a decomposition file")
    c.add_argument("query")
    c.add_argument("decomposition")
    c.add_argument("--nf", action="store_true")
    c.add_argument("--complete", action="store_true")
    c.add_argument("--qd", action="store_true")
    c.set_defaults(fn=cmd_check)

    w = sub.add_parser("width", help="compute the hypertree width")
    w.add_argument("query")
    w.add_argument("--max", type=int, default=None)
    w.set_defaults(fn=cmd_width)

    e = sub.add_parser("eval", help="evaluate a query over a fact file")
    e.add_argument("query")
    e.add_argument("db")
    e.add_argument("--hd")
    e.add_argument("--brute", action="store_true")
    e.add_argument("--boolean", action="store_true")
    e.add_argument("--k-cap", type=int, default=5, dest="k_cap")
    e.set_defaults(fn=cmd_eval)

    a = sub.add_parser("acyclic", help="acyclicity test (hypertree width 1)")
    a.add_argument("query")
    a.set_defaults(fn=cmd_acyclic)

    g = sub.add_parser("gen-hard", help="generate hardness gadgets")
    mode = g.add_mutually_exclusive_group(required=True)
    mode.add_argument("--x3c", help="exact-cover instance file")
    mode.add_argument(
        "--3ps",
        dest="three_ps",
        nargs=2,
        type=int,
        metavar=("M", "K"),
        help="strict 3-partitioning system parameters",
    )
    g.add_argument("-o", "--out")
    g.set_defaults(fn=cmd_gen_hard)

    o = sub.add_parser("oracle", help="brute-force cross-checks")
    osub = o.add_subparsers(dest="what", required=True)
    oq = osub.add_parser("qw", help="query width by exhaustive search")
    oq.add_argument("query")
    oq.add_argument("k", type=int)
    oq.set_defaults(fn=cmd_oracle, what="qw")
    oe = osub.add_parser("eval", help="evaluation by backtracking")
    oe.add_argument("query")
    oe.add_argument("db")
    oe.set_defaults(fn=cmd_oracle, what="eval")
    return p


def run(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except (
        QuerySyntaxError,
        DatabaseFormatError,
        DecompositionFormatError,
        InvalidDecompositionError,
        ValueError,
        OSError,
    ) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (InconclusiveError, HtdError, RuntimeError, RecursionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def main():
    sys.exit(run())
