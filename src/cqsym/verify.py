"""Runnable verification suites behind the CLI `verify` command.

Each suite replays a family of identities over every index up to a degree
bound and reports a machine-readable summary.  A failure record carries the
offending input and both sides as parseable expression strings.

Duality is checked as sparse rows of the pairing matrix: each DI_J (and
RSDI_J) is expanded in M once and indexed by M key, and each IM_I (and
RSIM_I) expanded in H sums into the row of <IM_I, DI_J> over every J, which
must be the unit vector at I.  Every pair is still covered and counted.
"""

from __future__ import annotations

from . import nsym, qsym
from .exprs import Expr
from .sentences import (
    Alphabet,
    all_sentences,
    all_words,
    sentence_str,
)

SUITES = ("duality", "roundtrip", "pieri", "psi", "antipode", "oracle")


def run(suite: str, alphabet: Alphabet, max_degree: int) -> dict:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    checks = 0
    failures = []

    def record(name, inp, expected, got):
        failures.append(
            {"name": name, "input": inp, "expected": str(expected), "got": str(got)}
        )

    if suite == "duality":
        for n in range(1, max_degree + 1):
            indices = all_sentences(alphabet, n)
            pairings = []
            for im, di in (("IM", "DI"), ("RSIM", "RSDI")):
                by_m = {}
                for j in indices:
                    for k, c in qsym.convert(Expr.basis(di, j, alphabet), "M").terms.items():
                        by_m.setdefault(k, []).append((j, c))
                pairings.append((f"pair({im}, {di})", im, by_m))
            for i in indices:
                rows = []
                for name, im, by_m in pairings:
                    row = {}
                    for k, c in nsym.convert(Expr.basis(im, i, alphabet), "H").terms.items():
                        for j, d in by_m.get(k, ()):
                            row[j] = row.get(j, 0) + c * d
                    rows.append((name, {j: v for j, v in row.items() if v}))
                checks += 2 * len(indices)
                if all(row == {i: 1} for _, row in rows):
                    continue
                for j in indices:
                    want = 1 if i == j else 0
                    for name, row in rows:
                        got = row.get(j, 0)
                        if got != want:
                            record(name, f"{sentence_str(i)} | {sentence_str(j)}", want, got)

    elif suite == "roundtrip":
        qsym_pairs = [
            ("F", "M"), ("M", "F"), ("F", "DI"), ("F", "RSDI"),
            ("M", "DI"), ("M", "RSDI"), ("DI", "RSDI"),
        ]
        nsym_pairs = [
            ("R", "H"), ("H", "R"), ("E", "H"), ("H", "E"),
            ("H", "IM"), ("R", "IM"), ("E", "IM"),
            ("H", "RSIM"), ("R", "RSIM"), ("E", "RSIM"), ("IM", "RSIM"),
        ]
        for n in range(1, max_degree + 1):
            for s in all_sentences(alphabet, n):
                for algebra, pairs in ((qsym, qsym_pairs), (nsym, nsym_pairs)):
                    for src, mid in pairs:
                        e = Expr.basis(src, s, alphabet)
                        back = algebra.convert(algebra.convert(e, mid), src)
                        checks += 1
                        if back != e:
                            record(f"{src}->{mid}->{src}", sentence_str(s), e, back)

    elif suite == "pieri":
        for total in range(1, max_degree + 1):
            for wn in range(0, total + 1):
                jn = total - wn
                for j in all_sentences(alphabet, jn):
                    for w in all_words(alphabet, wn):
                        direct = nsym.pieri(j, w, alphabet)
                        via_ops = nsym.product(
                            nsym.immaculate_in_h(j, alphabet),
                            Expr.basis("H", (w,) if w else (), alphabet),
                            target="IM",
                        )
                        checks += 1
                        if direct != via_ops:
                            record(
                                "pieri",
                                f"{sentence_str(j)} * H[{w or '()'}]",
                                via_ops,
                                direct,
                            )

    elif suite == "psi":
        for n in range(1, max_degree + 1):
            for s in all_sentences(alphabet, n):
                for tag in ("M", "F", "DI", "RSDI"):
                    e = Expr.basis(tag, s, alphabet)
                    back = qsym.psi(qsym.psi(e))
                    checks += 1
                    if back != e:
                        record("psi involution (qsym)", f"{tag}[{sentence_str(s)}]", e, back)
                for tag in ("H", "E", "R", "IM", "RSIM"):
                    e = Expr.basis(tag, s, alphabet)
                    back = nsym.psi(nsym.psi(e))
                    checks += 1
                    if back != e:
                        record("psi involution (nsym)", f"{tag}[{sentence_str(s)}]", e, back)
                got = nsym.psi(Expr.basis("E", s, alphabet))
                want = Expr.basis("H", s, alphabet)
                checks += 1
                if got != want:
                    record("psi(E) = H", sentence_str(s), want, got)
                got = qsym.psi(Expr.basis("DI", s, alphabet))
                want = Expr.basis("RSDI", s, alphabet)
                checks += 1
                if got != want:
                    record("psi(DI) = RSDI", sentence_str(s), want, got)
        # psi is an algebra morphism on the ribbon basis
        half = max_degree // 2 + 1
        for n1 in range(1, half):
            for n2 in range(1, half):
                if n1 + n2 > max_degree:
                    continue
                for i in all_sentences(alphabet, n1):
                    for j in all_sentences(alphabet, n2):
                        ri, rj = Expr.basis("R", i, alphabet), Expr.basis("R", j, alphabet)
                        lhs = nsym.psi(nsym.product(ri, rj))
                        rhs = nsym.product(nsym.psi(ri), nsym.psi(rj))
                        checks += 1
                        if lhs != rhs:
                            record(
                                "psi(R*R) morphism",
                                f"{sentence_str(i)} | {sentence_str(j)}",
                                rhs,
                                lhs,
                            )

    elif suite == "antipode":
        for n in range(1, max_degree + 1):
            for s in all_sentences(alphabet, n):
                e = Expr.basis("H", s, alphabet)
                total = Expr.zero("H", alphabet)
                for (left, right), c in nsym.coproduct_h(e).terms.items():
                    sl = nsym.antipode_h(Expr.basis("H", left, alphabet))
                    total = total + c * nsym.product(sl, Expr.basis("H", right, alphabet))
                checks += 1
                if total:
                    record("antipode collapse (H)", sentence_str(s), "0", total)
                e = Expr.basis("M", s, alphabet)
                total = Expr.zero("M", alphabet)
                for (left, right), c in qsym.coproduct(e).terms.items():
                    sl = qsym.antipode_m(Expr.basis("M", left, alphabet))
                    total = total + c * qsym.product(sl, Expr.basis("M", right, alphabet))
                checks += 1
                if total:
                    record("antipode collapse (M)", sentence_str(s), "0", total)

    elif suite == "oracle":
        for total in range(2, max_degree + 1):
            for n1 in range(1, total):
                n2 = total - n1
                positions = total + 1
                for i in all_sentences(alphabet, n1):
                    ei = Expr.basis("M", i, alphabet)
                    ri = qsym.realize(ei, positions)
                    for j in all_sentences(alphabet, n2):
                        ej = Expr.basis("M", j, alphabet)
                        lhs = qsym.realize(qsym.product(ei, ej), positions)
                        rhs = qsym.realization_product(ri, qsym.realize(ej, positions))
                        checks += 1
                        if lhs != rhs:
                            record(
                                "realization oracle",
                                f"{sentence_str(i)} | {sentence_str(j)}",
                                sorted(rhs.items()),
                                sorted(lhs.items()),
                            )

    return {"suite": suite, "checks": checks, "failures": failures}
