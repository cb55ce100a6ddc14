import multiprocessing
import os
from contextlib import contextmanager

import pytest

from cqsym import cli, nsym, qsym, verify
from cqsym.exprs import Expr
from cqsym.sentences import Alphabet, all_sentences, sentence_str
from cqsym.tableaux import IMMACULATE, ROW_STRICT, ell_row, row_strict_row

AB = Alphabet("ab")
ABC = Alphabet("abc")


# --- the per-pair duality suite, kept as the reference ----------------------
#
# verify.run("duality", ...) sums sparse rows of the pairing matrix.  This is
# the suite it replaced: one nsym.pair call per (I, J), I-major, J in
# all_sentences order, the IM pairing before the RSIM one.

def _per_pair_duality(alphabet, max_degree):
    checks = 0
    failures = []

    def record(name, inp, expected, got):
        failures.append(
            {"name": name, "input": inp, "expected": str(expected), "got": str(got)}
        )

    for n in range(1, max_degree + 1):
        indices = all_sentences(alphabet, n)
        # the creation operators' rows, as the suite reads them: IM_i in H,
        # and RSIM_i as the same row relabelled E
        h_side = {i: nsym.immaculate_in_h(i, alphabet) for i in indices}
        m_side = {j: qsym.convert(Expr.basis("DI", j, alphabet), "M") for j in indices}
        hrs = {i: Expr("E", alphabet, nsym._imm_h_row(alphabet, i)) for i in indices}
        mrs = {j: qsym.convert(Expr.basis("RSDI", j, alphabet), "M") for j in indices}
        for i in indices:
            for j in indices:
                want = 1 if i == j else 0
                got = nsym.pair(h_side[i], m_side[j])
                checks += 1
                if got != want:
                    record("pair(IM, DI)", f"{sentence_str(i)} | {sentence_str(j)}", want, got)
                got = nsym.pair(hrs[i], mrs[j])
                checks += 1
                if got != want:
                    record(
                        "pair(RSIM, RSDI)", f"{sentence_str(i)} | {sentence_str(j)}", want, got
                    )
    return {"suite": "duality", "checks": checks, "failures": failures}


def _assert_same_report(alphabet, max_degree):
    report = verify.run("duality", alphabet, max_degree)
    assert report == _per_pair_duality(alphabet, max_degree)
    return report


@pytest.mark.parametrize("alphabet,max_degree", [(AB, 4), (ABC, 3)], ids=["ab4", "abc3"])
def test_duality_matches_the_per_pair_reference(alphabet, max_degree):
    report = _assert_same_report(alphabet, max_degree)
    assert report["failures"] == []
    assert report["checks"] == 2 * sum(
        len(all_sentences(alphabet, n)) ** 2 for n in range(1, max_degree + 1)
    )


@contextmanager
def _one_ell_entry_off_by_one(shape, variant):
    """Raise one L entry of shape by one where the routes read it, then put
    it back: no cache holds anything computed from it.  The immaculate
    entry L[J][C] is raised in the cached row of J, which RSDI -> F also
    reads, at complement(C).  The row-strict entry is raised only at the
    row-strict read of that row in RSDI -> F."""
    row = ell_row(shape)
    if variant == IMMACULATE:
        comp = min(row)
        row[comp] += 1
        try:
            yield
        finally:
            row[comp] -= 1
        return

    def faulty(read):
        strict = row_strict_row(read)
        if read is row:
            strict[min(strict)] += 1
        return strict

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qsym, "row_strict_row", faulty)
        yield


@pytest.mark.parametrize("variant", [IMMACULATE, ROW_STRICT])
def test_duality_reports_an_ell_entry_off_by_one_like_the_reference(variant):
    with _one_ell_entry_off_by_one(("ab", "a"), variant):
        report = _assert_same_report(AB, 3)
    names = {f["name"] for f in report["failures"]}
    # an immaculate entry is also a row-strict one, at the complemented
    # descent composition, so raising it shows in both pairings
    if variant == IMMACULATE:
        assert names == {"pair(IM, DI)", "pair(RSIM, RSDI)"}
    else:
        assert names == {"pair(RSIM, RSDI)"}
    assert _assert_same_report(AB, 3)["failures"] == []


def test_duality_reports_a_perturbed_creation_term_like_the_reference(monkeypatch):
    original = nsym._imm_h_terms

    def perturbed(j):
        terms = original(j)
        if j == ("ba",):
            terms = dict(terms)
            terms[("a", "b")] = terms.get(("a", "b"), 0) + 1
        return terms

    original.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(nsym, "_imm_h_terms", perturbed)
            report = _assert_same_report(AB, 3)
    finally:
        original.cache_clear()
    failures = report["failures"]
    assert {f["name"] for f in failures} == {"pair(IM, DI)", "pair(RSIM, RSDI)"}
    assert any(f["expected"] == "0" for f in failures)
    assert _assert_same_report(AB, 3)["failures"] == []


# --- the suites on one CPU and in forked workers ----------------------------

def _see_cpus(patch, count):
    """Make verify see count usable CPUs.  Returns the list that each fork
    in this process appends its child's pid to."""
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    patch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)
    patch.setattr(os, "fork", fork)
    return forks


@pytest.mark.parametrize("suite", verify.SUITES)
@pytest.mark.parametrize("letters,max_degree", [("ab", 4), ("abc", 3)], ids=["ab4", "abc3"])
def test_forked_workers_report_what_one_cpu_reports(monkeypatch, capsys, suite, letters, max_degree):
    argv = ["verify", "--alphabet", letters, "--max-degree", str(max_degree), "--json", suite]
    reports = {}
    for cpus in (2, 1):
        with monkeypatch.context() as patch:
            forks = _see_cpus(patch, cpus)
            report = verify.run(suite, Alphabet(letters), max_degree)
            assert cli.main(argv) == 0
            reports[cpus] = (report, capsys.readouterr().out)
        # two workers for each of the two runs; none on one CPU
        assert len(forks) == (4 if cpus == 2 else 0)
        assert multiprocessing.active_children() == []
    assert reports[2] == reports[1]
    assert reports[1][0]["failures"] == []


def test_a_worker_error_exits_1_with_its_message(monkeypatch, capsys):
    original = nsym.pieri

    def broken(j, w, alphabet):
        if len(j) == 2:
            raise ValueError(f"no Pieri rule for {sentence_str(j)}")
        return original(j, w, alphabet)

    monkeypatch.setattr(nsym, "pieri", broken)
    argv = ["verify", "--alphabet", "ab", "--max-degree", "3", "pieri"]
    for cpus in (2, 1):
        with monkeypatch.context() as patch:
            forks = _see_cpus(patch, cpus)
            assert cli.main(argv) == 1
        assert capsys.readouterr() == ("", "error: no Pieri rule for a,a\n")
        assert len(forks) == (2 if cpus == 2 else 0)
        assert multiprocessing.active_children() == []


def test_forked_chunks_keep_the_case_order(monkeypatch):
    # every suite goes through this map: counts sum, failures in case order
    cases = [(k, w) for k in range(50) for w in ("a", "bb", "")]
    results = {}
    for cpus in (2, 1):
        with monkeypatch.context() as patch:
            forks = _see_cpus(patch, cpus)
            results[cpus] = verify._tally(verify._map_cases(lambda c: (len(c[1]), [c]), cases))
        assert len(forks) == (2 if cpus == 2 else 0)
    assert results[2] == results[1] == (150, cases)
