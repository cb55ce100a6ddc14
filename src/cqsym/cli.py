"""Command-line front end.

One global convention: every command takes an ordered --alphabet flag (the
flag order defines the color order), sentences are validated against it, and
output is deterministic: terms always print in canonical order, so identical
invocations produce byte-identical output.

An expression argument given as "-" is read from stdin, so an answer too
long for one command-line argument can be fed back; at most one per call.

Exit codes: 0 success, 1 domain error (bad input values), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import descent_graph as dg
from . import nsym, poset, qsym, tableaux, verify
from .exprs import Expr, parse, side
from .sentences import Alphabet, parse_sentence, parse_weak_sentence, sentence_str, word_lengths

VERIFY_DEGREE_CAP = 6
EXPR_ARGS = ("expr", "expr2", "nsym_expr", "qsym_expr")


def _alphabet(args) -> Alphabet:
    return Alphabet(args.alphabet)


def _print_expr(e, args) -> None:
    if getattr(args, "json", False):
        print(json.dumps(e.to_json_dict()))
    else:
        print(e)


def cmd_expand(args) -> int:
    alphabet = _alphabet(args)
    e = parse(args.expr, alphabet)
    algebra = qsym if side(e.tag) == "qsym" else nsym
    out = algebra.convert(e, args.to)
    if args.uncolor:
        out = algebra.uncolor(out)
    _print_expr(out, args)
    return 0


def cmd_tableaux(args) -> int:
    alphabet = _alphabet(args)
    shape = parse_sentence(args.shape, alphabet)
    if sum(len(w) for w in shape) > args.cap:
        raise ValueError(
            f"shape has more than {args.cap} boxes; enumeration grows factorially,"
            " raise --cap explicitly for larger shapes"
        )
    variant = tableaux.ROW_STRICT if args.row_strict else tableaux.IMMACULATE
    if args.standard:
        found = tableaux.enumerate_standard(shape, variant)
    elif args.type is not None:
        type_ = parse_weak_sentence(args.type, alphabet)
        found = tableaux.enumerate_tableaux(shape, type_, variant)
    else:
        raise ValueError("tableaux needs either --type or --standard")
    for t in found:
        print(t.render_block())
        print()
    print(f"count: {len(found)}")
    return 0


def cmd_graph(args) -> int:
    alphabet = _alphabet(args)
    variant = tableaux.ROW_STRICT if args.row_strict else tableaux.IMMACULATE
    g = dg.build(args.degree, alphabet, variant, cap=args.cap)
    root = parse_sentence(args.root, alphabet) if args.root else None
    if root is not None and root not in set(g.vertices):
        raise ValueError(f"root {args.root} is not a vertex of the degree-{args.degree} graph")
    if args.format == "dot":
        print(dg.export_dot(g, root))
    else:
        sys.stdout.write(dg.export_csv(g, root))
    return 0


def cmd_coeffs(args) -> int:
    if args.uncolored:
        alphabet, label = Alphabet("a"), lambda s: ",".join(map(str, word_lengths(s)))
    elif args.alphabet:
        alphabet, label = _alphabet(args), sentence_str
    else:
        raise ValueError("colored coefficient tables need --alphabet")
    g = dg.cached_graph(alphabet, args.degree)
    if args.paths:
        rows = {
            i: {k: c for k in dg.reachable(g, i) if (c := dg.path_inverse_coeff(g, i, k))}
            for i in g.vertices
        }
    else:
        rows = dg.inverse_rows(g)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["from", "to", "coeff"])
    order = {s: pos for pos, s in enumerate(g.vertices)}
    for i in g.vertices:
        row = rows[i]
        for k in sorted(row, key=order.get):
            writer.writerow([label(i), label(k), row[k]])
    return 0


def cmd_pieri(args) -> int:
    alphabet = _alphabet(args)
    j = parse_sentence(args.sentence, alphabet)
    out = nsym.pieri(j, args.word, alphabet)
    _print_expr(out, args)
    return 0


def cmd_creation(args) -> int:
    alphabet = _alphabet(args)
    j = parse_sentence(args.sentence, alphabet)
    _print_expr(nsym.immaculate_in_h(j, alphabet), args)
    return 0


def cmd_pair(args) -> int:
    alphabet = _alphabet(args)
    n = parse(args.nsym_expr, alphabet)
    q = parse(args.qsym_expr, alphabet)
    print(nsym.pair(n, q))
    return 0


def cmd_skew(args) -> int:
    alphabet = _alphabet(args)
    outer = parse_sentence(args.outer, alphabet)
    inner = parse_sentence(args.inner, alphabet)
    variant = tableaux.ROW_STRICT if args.row_strict else tableaux.IMMACULATE
    target = args.to
    if target == "DI" and variant == tableaux.ROW_STRICT:
        target = "RSDI"
    out = poset.skew_expand(outer, inner, target, alphabet, variant)
    _print_expr(out, args)
    return 0


def _coproduct(e: Expr):
    return qsym.coproduct(e) if side(e.tag) == "qsym" else nsym.coproduct_h(e)


def cmd_coproduct(args) -> int:
    alphabet = _alphabet(args)
    s = parse_sentence(args.sentence, alphabet)
    _print_expr(_coproduct(Expr.basis(args.basis, s, alphabet)), args)
    return 0


def cmd_structure(args) -> int:
    alphabet = _alphabet(args)
    left = parse_sentence(args.left, alphabet)
    right = parse_sentence(args.right, alphabet)
    constants = poset.structure_constants(left, right, alphabet)
    out = Expr("IM", alphabet, constants)
    _print_expr(out, args)
    return 0


def cmd_hopf(args) -> int:
    alphabet = _alphabet(args)
    if args.op == "product":
        if args.expr2 is None:
            raise ValueError("hopf product needs two expressions")
        e1, e2 = parse(args.expr, alphabet), parse(args.expr2, alphabet)
        out = qsym.product(e1, e2) if side(e1.tag) == "qsym" else nsym.product(e1, e2)
        _print_expr(out, args)
        return 0
    e = parse(args.expr, alphabet)
    if args.op == "coproduct":
        _print_expr(_coproduct(e), args)
        return 0
    if args.op == "antipode":
        out = qsym.antipode_m(e) if side(e.tag) == "qsym" else nsym.antipode_h(e)
        _print_expr(out, args)
        return 0
    raise ValueError(f"unknown hopf operation {args.op}")


def cmd_psi(args) -> int:
    alphabet = _alphabet(args)
    e = parse(args.expr, alphabet)
    out = qsym.psi(e) if side(e.tag) == "qsym" else nsym.psi(e)
    _print_expr(out, args)
    return 0


def cmd_uncolor(args) -> int:
    alphabet = _alphabet(args)
    e = parse(args.expr, alphabet)
    out = qsym.uncolor(e) if side(e.tag) == "qsym" else nsym.uncolor(e)
    _print_expr(out, args)
    return 0


def cmd_verify(args) -> int:
    alphabet = _alphabet(args)
    if args.max_degree < 1:
        raise ValueError("max degree must be >= 1")
    if args.max_degree > args.cap:
        raise ValueError(
            f"max degree {args.max_degree} above the cap {args.cap}; "
            "raise --cap explicitly for long runs"
        )
    report = verify.run(args.suite, alphabet, args.max_degree)
    if args.json:
        print(json.dumps(report))
    else:
        if report["failures"]:
            first = report["failures"][0]
            print(
                f"FAIL: {len(report['failures'])} of {report['checks']} checks failed; "
                f"first: {first['name']} on {first['input']}: "
                f"expected {first['expected']}, got {first['got']}"
            )
        else:
            print(f"OK: {report['checks']} checks passed")
    return 1 if report["failures"] else 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="cqsym",
        description="colored quasisymmetric / noncommutative symmetric function calculator",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("expand", cmd_expand, help="convert an expression to another basis")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--to", required=True, metavar="TAG")
    p.add_argument("--uncolor", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("expr")

    p = add("tableaux", cmd_tableaux, help="enumerate tableaux of a shape")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--shape", required=True)
    p.add_argument("--row-strict", action="store_true")
    filling = p.add_mutually_exclusive_group()
    filling.add_argument("--type", default=None)
    filling.add_argument("--standard", action="store_true")
    p.add_argument("--cap", type=int, default=12, help="largest shape size enumerated")

    p = add("graph", cmd_graph, help="export a descent graph")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--row-strict", action="store_true")
    p.add_argument("--root", default=None)
    p.add_argument("--format", choices=("dot", "csv"), default="dot")
    p.add_argument("--cap", type=int, default=dg.DEFAULT_VERTEX_CAP)

    p = add("coeffs", cmd_coeffs, help="emit inverse descent-graph coefficients as CSV")
    p.add_argument("--degree", type=int, required=True)
    colors = p.add_mutually_exclusive_group()
    colors.add_argument("--alphabet", default=None)
    colors.add_argument("--uncolored", action="store_true")
    p.add_argument("--paths", action="store_true", help="literal path enumeration (debug)")

    p = add("pieri", cmd_pieri, help="right Pieri product with an H word")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--sentence", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--json", action="store_true")

    p = add("creation", cmd_creation, help="immaculate function in the H basis")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--sentence", required=True)
    p.add_argument("--json", action="store_true")

    p = add("pair", cmd_pair, help="duality pairing of an NSym and a QSym expression")
    p.add_argument("--alphabet", required=True)
    p.add_argument("nsym_expr")
    p.add_argument("qsym_expr")

    p = add("skew", cmd_skew, help="skew dual immaculate expansion")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    p.add_argument("--to", required=True, choices=("M", "F", "DI", "RSDI"))
    p.add_argument("--row-strict", action="store_true")
    p.add_argument("--json", action="store_true")

    p = add("coproduct", cmd_coproduct, help="coproduct of a basis element")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--basis", required=True, choices=("M", "DI", "RSDI", "H"))
    p.add_argument("--sentence", required=True)
    p.add_argument("--json", action="store_true")

    p = add("structure", cmd_structure, help="immaculate product structure constants")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--json", action="store_true")

    p = add("hopf", cmd_hopf, help="product, coproduct or antipode")
    p.add_argument("--alphabet", required=True)
    p.add_argument("op", choices=("product", "coproduct", "antipode"))
    p.add_argument("expr")
    p.add_argument("expr2", nargs="?", default=None)
    p.add_argument("--json", action="store_true")

    p = add("psi", cmd_psi, help="apply the complementing involution")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("expr")

    p = add("uncolor", cmd_uncolor, help="apply the uncoloring map")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("expr")

    p = add("verify", cmd_verify, help="run a verification suite")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--cap", type=int, default=VERIFY_DEGREE_CAP)
    p.add_argument("--json", action="store_true")
    p.add_argument("suite", choices=verify.SUITES)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from_stdin = [name for name in EXPR_ARGS if getattr(args, name, None) == "-"]
    if len(from_stdin) > 1:
        parser.error("at most one expression can be read from stdin ('-')")
    if from_stdin:
        setattr(args, from_stdin[0], sys.stdin.read().strip())
    try:
        return args.fn(args)
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
