import itertools

import pytest

from cqsym import cli, descent_graph, exprs, nsym, poset, qsym, sentences, tableaux, verify
from cqsym.sentences import (
    Alphabet,
    all_compositions,
    all_sentences,
    canonical_compare,
    canonical_key,
    coarsenings,
    complement,
    containment,
    from_splits,
    is_refinement,
    mobius,
    parse_sentence,
    parse_weak_sentence,
    pieri_extensions,
    quasishuffle,
    refinements,
    reversal,
    sentence_count,
    sentence_str,
    size,
    split_positions,
    word_lengths,
)

AB = Alphabet("ab")
ABC = Alphabet("abc")
ABCDE = Alphabet("abcde")


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet("")
    with pytest.raises(ValueError):
        Alphabet("aa")
    with pytest.raises(ValueError):
        Alphabet("aB")
    # flag order defines the order, not ASCII
    bac = Alphabet("bac")
    assert bac.word_key("ba") < bac.word_key("ab")


def test_refinement_examples():
    assert is_refinement(("a", "bc"), ("abc",))
    assert not is_refinement(("ab", "c"), ("a", "bc"))
    assert is_refinement(("a", "b", "c"), ("a", "b", "c"))


def test_coarsenings_brute_force():
    # oracle: merge every subset of adjacent separators by hand
    i = ("ab", "c")
    merged = {("ab", "c"), ("abc",)}
    assert set(coarsenings(i)) == merged
    assert set(coarsenings(("a", "b", "c"))) == {
        ("a", "b", "c"),
        ("ab", "c"),
        ("a", "bc"),
        ("abc",),
    }
    assert coarsenings(("a",)) == [("a",)]


def test_refinements_example():
    assert set(refinements(("abc",))) == {("abc",), ("a", "bc"), ("ab", "c"), ("a", "b", "c")}
    assert refinements(()) == [()]
    assert coarsenings(()) == [()]


def _reference_coarsenings(i):
    # merge every subset of the splits, then sort by word lengths
    w = "".join(i)
    base = sorted(split_positions(i))
    out = []
    for r in range(len(base) + 1):
        for keep in itertools.combinations(base, r):
            out.append(from_splits(w, keep))
    out.sort(key=lambda s: tuple(-len(x) for x in s))
    return out


def _reference_refinements(i):
    # add every subset of the free positions to the splits, then sort
    w = "".join(i)
    base = split_positions(i)
    free = [p for p in range(1, len(w)) if p not in base]
    out = []
    for r in range(len(free) + 1):
        for extra in itertools.combinations(free, r):
            out.append(from_splits(w, base.union(extra)))
    out.sort(key=lambda s: tuple(-len(x) for x in s))
    return out


def test_refinement_and_coarsening_order():
    # the lists themselves, order included: callers that render or
    # back-substitute read them in this canonical order
    for alphabet, top in ((AB, 6), (ABC, 4)):
        for n in range(top + 1):
            for i in all_sentences(alphabet, n):
                assert refinements(i) == _reference_refinements(i), i
                assert coarsenings(i) == _reference_coarsenings(i), i
    assert refinements(()) == _reference_refinements(()) == [()]
    assert coarsenings(()) == _reference_coarsenings(()) == [()]


def test_plan_caches_are_bounded():
    # both plans of every composition of size at most 10 (the empty one
    # included) fit in the plan cache, so a long-lived process never evicts
    # and never grows past it
    compositions = [c for n in range(11) for c in all_compositions(n)]
    assert len(compositions) == 1024
    sentences._plans.cache_clear()
    for comp in compositions:
        s = tuple("a" * p for p in comp)
        refinements(s)
        coarsenings(s)
    info = sentences._plans.cache_info()
    assert info.maxsize == 2048
    assert info.currsize == info.misses == 2048


def _reference_compositions(n):
    # every cut set of n, then sorted reverse-lex
    if n == 0:
        return [()]
    out = []
    for r in range(n):
        for cuts in itertools.combinations(range(1, n), r):
            cuts = (0,) + cuts + (n,)
            out.append(tuple(b - a for a, b in zip(cuts, cuts[1:])))
    out.sort(key=lambda c: tuple(-p for p in c))
    return out


def _reference_sentences(alphabet, n):
    # every word cut at every cut set, then sorted by the canonical key
    if n == 0:
        return [()]
    out = []
    for word in itertools.product(alphabet.colors, repeat=n):
        word = "".join(word)
        for r in range(n):
            for cuts in itertools.combinations(range(1, n), r):
                out.append(from_splits(word, cuts))
    return sentences.sort_sentences(out, alphabet)


def test_enumerations_equal_enumerate_then_sort():
    # the ordered walk of cut sets gives the same lists, in the same order,
    # as enumerating every cut set and sorting
    for n in range(11):
        assert all_compositions(n) == _reference_compositions(n), n
    for alphabet, top in ((AB, 7), (ABC, 5)):
        for n in range(top + 1):
            assert all_sentences(alphabet, n) == _reference_sentences(alphabet, n), (alphabet, n)


def test_unbounded_caches_do_not_grow_in_number():
    # a cache without maxsize grows for as long as the process lives
    unbounded = [
        f"{module.__name__}.{name}"
        for module in (cli, descent_graph, exprs, nsym, poset, qsym, sentences, tableaux, verify)
        for name, fn in vars(module).items()
        if getattr(fn, "__module__", None) == module.__name__
        and hasattr(fn, "cache_info")
        and fn.cache_info().maxsize is None
    ]
    assert unbounded == [], unbounded


def test_refinement_coarsening_galois():
    for n in range(5):
        for i in all_sentences(AB, n):
            for j in refinements(i):
                assert i in coarsenings(j)
                assert is_refinement(j, i)
            for j in coarsenings(i):
                assert i in refinements(j)


def test_complement_reversal_examples():
    assert complement(("abc", "de")) == ("a", "b", "cd", "e")
    assert reversal(("abc", "de")) == ("de", "abc")
    assert complement(("a",)) == ("a",)


def test_involutions_exhaustive():
    for n in range(6):
        for s in all_sentences(AB, n):
            assert complement(complement(s)) == s
            assert reversal(reversal(s)) == s


def _split_set_complement(i):
    # the reference: split the maximal word at the positions where i does
    # not split
    w = "".join(i)
    here = split_positions(i)
    return from_splits(w, [p for p in range(1, len(w)) if p not in here])


def test_complement_matches_the_split_set_definition():
    for alphabet, top in ((AB, 6), (ABC, 4)):
        for n in range(top + 1):
            for s in all_sentences(alphabet, n):
                assert complement(s) == _split_set_complement(s), s
    assert complement(()) == _split_set_complement(()) == ()


def _quasishuffle_count(p, q):
    # independent recurrence: the first output word comes from the left
    # sentence, the right sentence, or a merged pair
    if p == 0 or q == 0:
        return 1
    return (
        _quasishuffle_count(p - 1, q)
        + _quasishuffle_count(p, q - 1)
        + _quasishuffle_count(p - 1, q - 1)
    )


def test_quasishuffle_paper_example():
    got = quasishuffle(("ab", "c"), ("d", "e"))
    expected = {
        ("ab", "c", "d", "e"), ("ab", "cd", "e"), ("ab", "d", "c", "e"),
        ("abd", "c", "e"), ("ab", "d", "ce"), ("abd", "ce"),
        ("d", "ab", "c", "e"), ("d", "ab", "ce"), ("ab", "d", "e", "c"),
        ("abd", "e", "c"), ("d", "ab", "e", "c"), ("d", "abe", "c"),
        ("d", "e", "ab", "c"),
    }
    assert set(got) == expected
    assert all(v == 1 for v in got.values())
    assert sum(got.values()) == 13 == _quasishuffle_count(2, 2)


def test_quasishuffle_unit_and_counts():
    assert quasishuffle(("ab", "c"), ()) == {("ab", "c"): 1}
    for li in range(4):
        for lj in range(4):
            i = tuple("a" * (k + 1) for k in range(li))
            j = tuple("b" * (k + 1) for k in range(lj))
            assert sum(quasishuffle(i, j).values()) == _quasishuffle_count(li, lj)


def test_quasishuffle_multiplicity():
    # one-letter alphabet: (aa,a) x (a) carries a repeated summand
    got = quasishuffle(("aa", "a"), ("a",))
    flat = {}
    for s, c in got.items():
        flat[word_lengths(s)] = flat.get(word_lengths(s), 0) + c
    assert flat == {(2, 1, 1): 2, (1, 2, 1): 1, (2, 2): 1, (3, 1): 1}


def test_containment_examples():
    assert containment(("b", "ef"), ("ab", "cdef"), "right") == ("a", "cd")
    assert containment(("a", "cde"), ("ab", "cdef"), "left") == ("b", "f")
    i = ("ab", "cdef")
    assert containment(i, i, "right") == ("", "")
    assert containment(i, i, "left") == ("", "")
    assert containment(("c",), ("ab", "cd"), "right") is None
    with pytest.raises(ValueError):
        containment(("a",), ("ab",), "middle")


def _mirror(s):
    # reverse the row order and every word; suffixes become prefixes
    return tuple(w[::-1] for w in reversed(s))


def test_containment_mirror_duality():
    # right containment removes per-row suffixes, left containment per-row
    # prefixes; the two correspond under the full mirror of padded sentences
    for n in range(1, 5):
        for i in all_sentences(AB, n):
            for m in range(n + 1):
                for j in all_sentences(AB, m):
                    if len(j) > len(i):
                        continue
                    padded = j + ("",) * (len(i) - len(j))
                    r = containment(j, i, "right")
                    l = containment(_mirror(padded), _mirror(i), "left")
                    if r is None:
                        assert l is None
                    else:
                        assert l == _mirror(r)


def test_mobius():
    assert mobius(("a", "b", "c"), ("abc",)) == 1
    assert mobius(("a", "bc"), ("abc",)) == -1
    assert mobius(("a", "bc"), ("a", "bc")) == 1
    with pytest.raises(ValueError):
        mobius(("ab", "c"), ("a", "bc"))


def test_pieri_extensions_examples():
    got = pieri_extensions(("ab", "bc"), "ca")
    assert sorted(got) == sorted(
        [
            ("ab", "bc", "ca"), ("ab", "bca", "c"), ("aba", "bc", "c"),
            ("ab", "bcca"), ("aba", "bcc"), ("abca", "bc"),
        ]
    )
    assert pieri_extensions((), "ca") == [("ca",)]
    assert pieri_extensions(("ab", "bc"), "") == [("ab", "bc")]


def test_pieri_extensions_one_letter():
    got = [word_lengths(k) for k in pieri_extensions(("aa", "a"), "aa")]
    assert sorted(got) == sorted([(2, 1, 2), (2, 2, 1), (3, 1, 1), (2, 3), (3, 2), (4, 1)])


def test_pieri_extensions_multiplicity():
    # both letters could come from either row end: two decompositions, one K
    got = pieri_extensions(("a",), "aa")
    assert got.count(("aa", "a")) == 1
    assert got.count(("aaa",)) == 1
    assert got.count(("a", "aa")) == 1
    # repeated K from distinct splits shows up with multiplicity
    got = pieri_extensions(("a", "a"), "a")
    assert sorted(got) == sorted([("a", "a", "a"), ("a", "aa"), ("aa", "a")])


def test_canonical_order_examples():
    # word-length key: (3,2,1) before (3,1,2)
    assert canonical_compare(("aaa", "aa", "a"), ("aaa", "a", "aa"), AB) == -1
    assert canonical_compare(("ab", "c"), ("ab", "c"), ABC) == 0
    assert canonical_compare(("ab", "c"), ("ba", "c"), ABC) == -1


def test_canonical_order_is_total():
    seen = {}
    for n in range(5):
        for s in all_sentences(AB, n):
            k = canonical_key(s, AB)
            assert k not in seen, (s, seen[k])
            seen[k] = s
    small = all_sentences(AB, 3)
    for a, b in itertools.combinations(small, 2):
        assert canonical_compare(a, b, AB) == -canonical_compare(b, a, AB) != 0


def four_part_key(s, alphabet):
    """The earlier canonical key, whose last part, the sorted split
    positions, is kept here as the reference order."""
    return (
        size(s),
        tuple(-len(w) for w in s),
        alphabet.word_key("".join(s)),
        tuple(sorted(split_positions(s))),
    )


def test_canonical_key_orders_as_the_four_part_key():
    # word lengths and maximal word determine a sentence, so the split
    # positions never decide the order
    cases = [(AB, all_sentences(AB, n)) for n in range(6)]
    cases += [(ABC, all_sentences(ABC, n)) for n in range(5)]
    mixed = [s for n in (3, 0, 4, 1, 2) for s in all_sentences(AB, n)[::-1]]
    cases.append((AB, mixed))
    for alphabet, seq in cases:
        seq = seq[1::2] + seq[::-2]  # a fixed shuffle of the canonical order
        want = sorted(seq, key=lambda s: four_part_key(s, alphabet))
        assert sentences.sort_sentences(seq, alphabet) == want


def test_all_sentences_count():
    for n in range(1, 6):
        assert len(all_sentences(AB, n)) == sentence_count(AB, n) == 2**n * 2 ** (n - 1)
    assert all_sentences(AB, 0) == [()]


def test_all_compositions_order():
    assert all_compositions(4)[:4] == [(4,), (3, 1), (2, 2), (2, 1, 1)]


def test_parse_and_render():
    assert parse_sentence("ab,cb", ABC) == ("ab", "cb")
    assert parse_sentence("()", ABC) == ()
    assert sentence_str(()) == "()"
    assert sentence_str(("ab", "cb")) == "ab,cb"
    assert parse_weak_sentence("-,a,-,bc", ABC) == ("", "a", "", "bc")
    assert sentence_str(("", "a")) == "-,a"
    for bad in ["", "Ab", "a1", "a,,b", "-,a"]:
        with pytest.raises(ValueError):
            parse_sentence(bad, ABC)
    with pytest.raises(ValueError):
        parse_sentence("ad", ABC)
