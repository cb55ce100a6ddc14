"""Differential property tests: the L rows and columns by key against the
whole-degree tables, on random sentences over at most three letters.

The examples are derandomized and their number fixed, so a run is
deterministic and its cost bounded."""

from hypothesis import given, settings
from hypothesis import strategies as st

from cqsym.sentences import Alphabet, from_splits
from cqsym.tableaux import IMMACULATE, ROW_STRICT, ell_column, ell_row, row_strict_row, standard_data

ALPHABETS = tuple(Alphabet(colors) for colors in ("a", "ab", "abc"))


@st.composite
def sentences(draw):
    """(alphabet, sentence): a word of size 1..5 over one of the alphabets,
    split after any set of its positions."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    n = draw(st.integers(1, 5))
    word = "".join(draw(st.lists(st.sampled_from(alphabet.colors), min_size=n, max_size=n)))
    splits = draw(st.sets(st.integers(1, n - 1))) if n > 1 else set()
    return alphabet, from_splits(word, splits)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(sentences())
def test_rows_and_columns_by_key_equal_the_table_and_its_transpose(case):
    alphabet, s = case
    table = standard_data(alphabet, sum(map(len, s)))
    assert ell_row(s, IMMACULATE) == table[s]
    assert ell_row(s, ROW_STRICT) == row_strict_row(table[s])
    # the transpose, read off the row of every shape
    assert ell_column(s) == {j: row[s] for j, row in table.items() if s in row}
