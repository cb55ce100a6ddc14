"""Runnable verification suites behind the CLI `verify` command.

Each suite replays a family of identities over every index up to a degree
bound and reports a machine-readable summary.  A failure record carries the
offending input and both sides as parseable expression strings.

A suite is an ordered list of cases and one function that checks a case and
returns (checks, failures).  `run` maps that function over the cases and
sums the counts and concatenates the failures in case order.  When the
process may use more than one CPU and can fork, the cases are spread in
contiguous chunks over one forked worker per usable CPU; the report is the
same either way.  State that every case reads is built before the fork.

Duality is checked as sparse rows of the pairing matrix: each DI_J (and
RSDI_J) is expanded in M once and indexed by M key, and each IM_I (and
RSIM_I) expanded in H sums into the row of <IM_I, DI_J> over every J, which
must be the unit vector at I.  Every pair is still covered and counted.  The
H expansions come from the creation operators (RSIM_I is the IM_I row with H
relabelled E, then E -> H), not from nsym.convert: that goes through the L
columns, and would pair the L table with itself.
"""

from __future__ import annotations

import os
import threading

from . import nsym, qsym
from .exprs import Expr
from .sentences import (
    Alphabet,
    all_sentences,
    all_words,
    sentence_str,
    size,
)

# Chunks per worker: enough that a worker finishing early takes more work,
# few enough that handing out chunks costs little next to checking them.
CHUNKS_PER_WORKER = 8


def _failure(name, inp, expected, got) -> dict:
    return {"name": name, "input": inp, "expected": str(expected), "got": str(got)}


def _duality(alphabet, max_degree):
    # the M-keyed index of every degree is built here, before any fork, so
    # that every worker reads the same expansions
    degrees = {}
    for n in range(1, max_degree + 1):
        indices = all_sentences(alphabet, n)
        pairings = []
        for im, di in (("IM", "DI"), ("RSIM", "RSDI")):
            by_m = {}
            for j in indices:
                for k, c in qsym.convert(Expr.basis(di, j, alphabet), "M").terms.items():
                    by_m.setdefault(k, []).append((j, c))
            pairings.append((f"pair({im}, {di})", im, by_m))
        degrees[n] = (indices, pairings)

    def check(i):
        indices, pairings = degrees[size(i)]
        imm = nsym._imm_h_row(alphabet, i)
        in_h = {"IM": imm, "RSIM": nsym.convert(Expr("E", alphabet, imm), "H").terms}
        rows = []
        for name, im, by_m in pairings:
            row = {}
            for k, c in in_h[im].items():
                for j, d in by_m.get(k, ()):
                    row[j] = row.get(j, 0) + c * d
            rows.append((name, {j: v for j, v in row.items() if v}))
        failures = []
        if not all(row == {i: 1} for _, row in rows):
            for j in indices:
                want = 1 if i == j else 0
                for name, row in rows:
                    got = row.get(j, 0)
                    if got != want:
                        failures.append(
                            _failure(name, f"{sentence_str(i)} | {sentence_str(j)}", want, got)
                        )
        return 2 * len(indices), failures

    return [i for indices, _ in degrees.values() for i in indices], check


_QSYM_ROUNDTRIPS = (
    ("F", "M"), ("M", "F"), ("F", "DI"), ("F", "RSDI"),
    ("M", "DI"), ("M", "RSDI"), ("DI", "RSDI"),
)
_NSYM_ROUNDTRIPS = (
    ("R", "H"), ("H", "R"), ("E", "H"), ("H", "E"),
    ("H", "IM"), ("R", "IM"), ("E", "IM"),
    ("H", "RSIM"), ("R", "RSIM"), ("E", "RSIM"), ("IM", "RSIM"),
)


def _roundtrip(alphabet, max_degree):
    def check(s):
        checks, failures = 0, []
        for algebra, pairs in ((qsym, _QSYM_ROUNDTRIPS), (nsym, _NSYM_ROUNDTRIPS)):
            for src, mid in pairs:
                e = Expr.basis(src, s, alphabet)
                back = algebra.convert(algebra.convert(e, mid), src)
                checks += 1
                if back != e:
                    failures.append(_failure(f"{src}->{mid}->{src}", sentence_str(s), e, back))
        return checks, failures

    return [s for n in range(1, max_degree + 1) for s in all_sentences(alphabet, n)], check


def _pieri(alphabet, max_degree):
    def check(case):
        j, w = case
        direct = nsym.pieri(j, w, alphabet)
        via_ops = nsym.product(
            nsym.immaculate_in_h(j, alphabet),
            Expr.basis("H", (w,) if w else (), alphabet),
            target="IM",
        )
        if direct == via_ops:
            return 1, []
        return 1, [_failure("pieri", f"{sentence_str(j)} * H[{w or '()'}]", via_ops, direct)]

    cases = [
        (j, w)
        for total in range(1, max_degree + 1)
        for wn in range(0, total + 1)
        for j in all_sentences(alphabet, total - wn)
        for w in all_words(alphabet, wn)
    ]
    return cases, check


def _psi(alphabet, max_degree):
    """Case (s, None): psi is an involution on every basis of both sides on
    s, maps E_s to H_s and DI_s to RSDI_s.  Case (i, j): psi is an algebra
    morphism on R_i * R_j; these cover factors of degree <= max_degree // 2."""

    def check(case):
        i, j = case
        if j is None:
            results = []
            for tag in ("M", "F", "DI", "RSDI"):
                e = Expr.basis(tag, i, alphabet)
                results.append(("psi involution (qsym)", f"{tag}[{sentence_str(i)}]",
                                e, qsym.psi(qsym.psi(e))))
            for tag in ("H", "E", "R", "IM", "RSIM"):
                e = Expr.basis(tag, i, alphabet)
                results.append(("psi involution (nsym)", f"{tag}[{sentence_str(i)}]",
                                e, nsym.psi(nsym.psi(e))))
            results.append(("psi(E) = H", sentence_str(i), Expr.basis("H", i, alphabet),
                            nsym.psi(Expr.basis("E", i, alphabet))))
            results.append(("psi(DI) = RSDI", sentence_str(i), Expr.basis("RSDI", i, alphabet),
                            qsym.psi(Expr.basis("DI", i, alphabet))))
        else:
            ri, rj = Expr.basis("R", i, alphabet), Expr.basis("R", j, alphabet)
            results = [("psi(R*R) morphism", f"{sentence_str(i)} | {sentence_str(j)}",
                        nsym.product(nsym.psi(ri), nsym.psi(rj)), nsym.psi(nsym.product(ri, rj)))]
        return len(results), [
            _failure(name, inp, want, got) for name, inp, want, got in results if got != want
        ]

    half = max_degree // 2
    cases = [(s, None) for n in range(1, max_degree + 1) for s in all_sentences(alphabet, n)]
    cases += [
        (i, j)
        for n1 in range(1, half + 1)
        for n2 in range(1, half + 1)
        for i in all_sentences(alphabet, n1)
        for j in all_sentences(alphabet, n2)
    ]
    return cases, check


def _antipode(alphabet, max_degree):
    def collapse(name, tag, s, coproduct, antipode, product):
        # sum(c * S(left) * right) over the coproduct terms, summed in place
        total = Expr.zero(tag, alphabet)
        for (left, right), c in coproduct(Expr.basis(tag, s, alphabet)).terms.items():
            sl = antipode(Expr.basis(tag, left, alphabet))
            for k, v in product(sl, Expr.basis(tag, right, alphabet)).terms.items():
                total.add_term(k, c * v)
        return [_failure(name, sentence_str(s), "0", total)] if total else []

    def check(s):
        return 2, (
            collapse("antipode collapse (H)", "H", s, nsym.coproduct_h, nsym.antipode_h, nsym.product)
            + collapse("antipode collapse (M)", "M", s, qsym.coproduct, qsym.antipode_m, qsym.product)
        )

    return [s for n in range(1, max_degree + 1) for s in all_sentences(alphabet, n)], check


def _oracle(alphabet, max_degree):
    def check(case):
        i, n2 = case
        positions = size(i) + n2 + 1
        ei = Expr.basis("M", i, alphabet)
        ri = qsym.realize(ei, positions)
        failures = []
        js = all_sentences(alphabet, n2)
        for j in js:
            ej = Expr.basis("M", j, alphabet)
            lhs = qsym.realize(qsym.product(ei, ej), positions)
            rhs = qsym.realization_product(ri, qsym.realize(ej, positions))
            if lhs != rhs:
                failures.append(_failure(
                    "realization oracle",
                    f"{sentence_str(i)} | {sentence_str(j)}",
                    sorted(rhs.items()),
                    sorted(lhs.items()),
                ))
        return len(js), failures

    cases = [
        (i, total - n1)
        for total in range(2, max_degree + 1)
        for n1 in range(1, total)
        for i in all_sentences(alphabet, n1)
    ]
    return cases, check


# suite name -> builder of (ordered cases, case check)
_SUITES = {
    "duality": _duality,
    "roundtrip": _roundtrip,
    "pieri": _pieri,
    "psi": _psi,
    "antipode": _antipode,
    "oracle": _oracle,
}
SUITES = tuple(_SUITES)


def run(suite: str, alphabet: Alphabet, max_degree: int) -> dict:
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    cases, check = _SUITES[suite](alphabet, max_degree)
    checks, failures = _tally(_map_cases(check, cases))
    return {"suite": suite, "checks": checks, "failures": failures}


def _tally(results) -> tuple:
    """Sum the (checks, failures) pairs of results, failures in order."""
    checks, failures = 0, []
    for n, found in results:
        checks += n
        failures += found
    return checks, failures


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return 1


def _map_cases(check, cases):
    """check on each case, in case order.  With more than one usable CPU,
    fork available and no other thread (a forked worker would inherit any
    lock another thread holds, locked for good), contiguous chunks of the
    cases run in forked workers, one per usable CPU, and the results come
    per chunk; every worker has exited when this returns."""
    cpus = _usable_cpus() if hasattr(os, "fork") and threading.active_count() == 1 else 1
    count = min(len(cases), cpus * CHUNKS_PER_WORKER)
    workers = min(cpus, count)
    if workers < 2:
        return map(check, cases)
    import multiprocessing  # here, not at import: the CLI imports this module

    bounds = [len(cases) * k // count for k in range(count + 1)]
    chunks = [cases[a:b] for a, b in zip(bounds, bounds[1:])]
    pool = multiprocessing.get_context("fork").Pool(
        workers, initializer=_set_worker_check, initargs=(check,)
    )
    try:
        results = list(pool.imap(_check_chunk, chunks))
        pool.close()
    except BaseException:
        pool.terminate()
        raise
    finally:
        pool.join()
    return results


# A forked worker's case check.  The initializer runs in the worker, which
# inherits the check (a closure over the suite's state) by the fork, so
# neither is pickled.
_worker_check = None


def _set_worker_check(check) -> None:
    global _worker_check
    _worker_check = check


def _check_chunk(chunk) -> tuple:
    return _tally(map(_worker_check, chunk))
