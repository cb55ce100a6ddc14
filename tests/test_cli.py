import csv
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest

from cqsym.cli import main
from cqsym.exprs import parse
from cqsym.sentences import Alphabet


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def same_expr(rendered, expected, alphabet):
    return parse(rendered.strip(), alphabet) == parse(expected, alphabet)


def test_expand_golden(capsys):
    code, out, _ = run_cli(capsys, "expand", "--alphabet", "abc", "--to", "DI", "F[ab,cbb]")
    assert code == 0
    assert same_expr(out, "DI[ab,cbb] - DI[a,cbb,b] + DI[a,c,bbb] - DI[a,cbbb]", Alphabet("abc"))


def test_expand_uncolored_golden(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--alphabet", "a", "--to", "M", "DI[aa,aa]", "--uncolor"
    )
    assert code == 0
    assert out.strip() == "M[2,2] + M[2,1,1] + M[1,3] + 2*M[1,2,1] + 2*M[1,1,2] + 3*M[1,1,1,1]"


def test_expand_json(capsys):
    code, out, _ = run_cli(
        capsys, "expand", "--alphabet", "abc", "--to", "M", "DI[ab,cb]", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["tag"] == "M"
    assert {"sentence": "a,cb,b", "coef": "2"} in doc["terms"]


def test_tableaux_command(capsys):
    code, out, _ = run_cli(
        capsys, "tableaux", "--alphabet", "abc", "--shape", "ab,cb", "--type", "a,cb,b"
    )
    assert code == 0
    blocks = [b for b in out.strip().split("\n\n") if not b.startswith("count:")]
    assert len(blocks) == 2
    assert out.strip().endswith("count: 2")
    assert "a,1|b,2" in out and "c,2|b,3" in out
    # a leading empty word needs the --type= spelling so argparse does not
    # read the dash as a flag
    code, out, _ = run_cli(
        capsys,
        "tableaux", "--alphabet", "abc", "--shape", "ab,cb",
        "--type=-,a,-,cb,b",
    )
    assert code == 0 and out.strip().endswith("count: 2")
    code, out, _ = run_cli(
        capsys, "tableaux", "--alphabet", "abc", "--shape", "ab,cb", "--standard"
    )
    assert code == 0 and out.strip().endswith("count: 3")
    code, out, err = run_cli(capsys, "tableaux", "--alphabet", "abc", "--shape", "ab,cb")
    assert code == 1 and "type" in err
    code, _, err = run_cli(
        capsys,
        "tableaux", "--alphabet", "a", "--shape", "a" * 13, "--standard",
    )
    assert code == 1 and "cap" in err


TABLEAUX_TYPE_GOLDENS = [
    (
        ("--alphabet", "ab", "--shape", "aab,ab", "--type", "a,a,ab,b"),
        "a,1|a,2|b,3\na,3|b,4\n\n"
        "a,1|a,2|b,4\na,3|b,3\n\n"
        "a,1|a,3|b,3\na,2|b,4\n\n"
        "count: 3\n",
    ),
    (
        ("--alphabet", "ab", "--shape", "ab,ba,a", "--type", "a,b,ba,a", "--row-strict"),
        "a,1|b,3\nb,2|a,4\na,3\n\n"
        "a,1|b,3\nb,2|a,3\na,4\n\n"
        "a,1|b,2\nb,3|a,4\na,3\n\n"
        "count: 3\n",
    ),
    (
        ("--alphabet", "abc", "--shape", "ab,cb", "--type=-,a,-,cb,b"),
        "a,2|b,4\nc,4|b,5\n\n"
        "a,2|b,5\nc,4|b,4\n\n"
        "count: 2\n",
    ),
    (
        ("--alphabet", "ab", "--shape", "ab,ba,a", "--type=-,a,b,-,ba,a", "--row-strict"),
        "a,2|b,5\nb,3|a,6\na,5\n\n"
        "a,2|b,5\nb,3|a,5\na,6\n\n"
        "a,2|b,3\nb,5|a,6\na,5\n\n"
        "count: 3\n",
    ),
]


@pytest.mark.parametrize(
    "argv,expected",
    TABLEAUX_TYPE_GOLDENS,
    ids=["immaculate", "row-strict", "weak-immaculate", "weak-row-strict"],
)
def test_tableaux_type_exact_output(capsys, argv, expected):
    # byte-exact, so the order of the blocks is pinned too
    code, out, err = run_cli(capsys, "tableaux", *argv)
    assert (code, out, err) == (0, expected, "")


# captured from the row-sequence enumerator that the standard-filling walk
# replaced, so the order of the fillings is pinned too
TABLEAUX_STANDARD_GOLDENS = [
    (
        ("--alphabet", "ab", "--shape", "aab,ab", "--standard"),
        "a,1|a,2|b,3\na,4|b,5\n\n"
        "a,1|a,2|b,4\na,3|b,5\n\n"
        "a,1|a,2|b,5\na,3|b,4\n\n"
        "a,1|a,3|b,4\na,2|b,5\n\n"
        "a,1|a,3|b,5\na,2|b,4\n\n"
        "a,1|a,4|b,5\na,2|b,3\n\n"
        "count: 6\n",
    ),
    (
        ("--alphabet", "abc", "--shape", "ab,c,ba", "--standard", "--row-strict"),
        "a,1|b,2\nc,3\nb,4|a,5\n\n"
        "a,1|b,3\nc,2\nb,4|a,5\n\n"
        "a,1|b,4\nc,2\nb,3|a,5\n\n"
        "a,1|b,5\nc,2\nb,3|a,4\n\n"
        "count: 4\n",
    ),
]


@pytest.mark.parametrize(
    "argv,expected", TABLEAUX_STANDARD_GOLDENS, ids=["immaculate", "row-strict"]
)
def test_tableaux_standard_exact_output(capsys, argv, expected):
    assert run_cli(capsys, "tableaux", *argv) == (0, expected, "")


# sha256 of the whole-degree outputs, unchanged since the first release (the
# row-strict graph, whose edges are read through the complement of the
# immaculate L table, since it was first pinned)
FULL_TABLE_HASHES = [
    (
        ("coeffs", "--degree", "9", "--uncolored"),
        "10efffb628982c684be6ced4464a6d7ab84b6b5b1198fc1adb9a3596e4abd210",
    ),
    (
        ("coeffs", "--alphabet", "ab", "--degree", "6"),
        "0cf743fc53812a5aafa41860291b22c9845d772da7473d8b07ed773f7a5cffac",
    ),
    (
        ("graph", "--alphabet", "ab", "--degree", "6", "--format", "csv"),
        "d880bf8d6fce35e491e4cf095c0fdcdf8e5c16d265a05a13611a6cc4d1e7a7a0",
    ),
    (
        ("graph", "--alphabet", "ab", "--degree", "5", "--row-strict", "--format", "csv"),
        "8c5c078de3aa8b87b0d7425c1acef998215c285f4cb5ed2809332838979ee304",
    ),
]


@pytest.mark.parametrize(
    "argv,digest",
    FULL_TABLE_HASHES,
    ids=["coeffs-uncolored-9", "coeffs-ab-6", "graph-ab-6", "graph-ab-5-row-strict"],
)
def test_full_table_output_hashes(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_graph_dot_and_csv(capsys):
    code, out, _ = run_cli(
        capsys,
        "graph", "--alphabet", "abc", "--degree", "5",
        "--root", "ab,cbb", "--format", "dot",
    )
    assert code == 0
    assert out.count(" -> ") == 8
    assert out.count('";') >= 7
    code, out, _ = run_cli(
        capsys,
        "graph", "--alphabet", "abc", "--degree", "3", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["from", "to", "weight"]
    assert ["aa,a", "a,aa", "1"] in rows
    code, _, err = run_cli(
        capsys, "graph", "--alphabet", "abc", "--degree", "5", "--cap", "10"
    )
    assert code == 1 and "cap" in err


def test_graph_row_strict(capsys):
    code, out, _ = run_cli(
        capsys,
        "graph", "--alphabet", "abc", "--degree", "5", "--row-strict",
        "--root", "ab,cbb", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    outgoing = {r[1] for r in rows if r[0] == "ab,cbb"}
    assert outgoing == {"a,bc,b,b", "ac,bb,b", "ac,b,bb", "ac,b,b,b"}


def test_coeffs_uncolored_csv(capsys):
    code, out, _ = run_cli(capsys, "coeffs", "--degree", "4", "--uncolored")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["from", "to", "coeff"]
    table = {(r[0], r[1]): int(r[2]) for r in rows[1:]}
    # F_(2,2) = S*_(2,2) - S*_(1,2,1) - ... : diagonal 1 everywhere
    assert table[("2,2", "2,2")] == 1
    assert table[("2,2", "1,2,1")] == -1
    assert all(table[(a, a)] == 1 for (a, b) in table if a == b)


def test_coeffs_colored_paths_flag(capsys):
    code, out1, _ = run_cli(capsys, "coeffs", "--degree", "3", "--alphabet", "ab")
    assert code == 0
    code, out2, _ = run_cli(
        capsys, "coeffs", "--degree", "3", "--alphabet", "ab", "--paths"
    )
    assert code == 0
    assert out1 == out2


def test_pieri_command(capsys):
    code, out, _ = run_cli(
        capsys, "pieri", "--alphabet", "abc", "--sentence", "ab,bc", "--word", "ca"
    )
    assert code == 0
    assert same_expr(
        out,
        "IM[ab,bc,ca] + IM[ab,bca,c] + IM[aba,bc,c] + IM[ab,bcca] + IM[aba,bcc] + IM[abca,bc]",
        Alphabet("abc"),
    )


def test_creation_command(capsys):
    code, out, _ = run_cli(
        capsys, "creation", "--alphabet", "abcdef", "--sentence", "abc,def"
    )
    assert code == 0
    assert same_expr(
        out,
        "H[abc,def] - H[abcf,de] - H[abcef,d] + H[abcfe,d]"
        " - H[abcdef] + H[abcefd] + H[abcfde] - H[abcfed]",
        Alphabet("abcdef"),
    )


def test_pair_command(capsys):
    code, out, _ = run_cli(capsys, "pair", "--alphabet", "ab", "IM[ab,a]", "DI[ab,a]")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run_cli(capsys, "pair", "--alphabet", "ab", "R[ab]", "F[a,b]")
    assert code == 0 and out.strip() == "0"


def test_skew_command(capsys):
    code, out, _ = run_cli(
        capsys,
        "skew", "--alphabet", "abcdef", "--outer", "ab,cdef", "--inner", "a,cde",
        "--to", "M",
    )
    assert code == 0
    # two active boxes, b above f, no first-column constraint: three fillings
    assert same_expr(out, "M[fb] + M[b,f] + M[f,b]", Alphabet("abcdef"))
    code, out, _ = run_cli(
        capsys,
        "skew", "--alphabet", "abcdef", "--outer", "abc,def", "--inner", "a,de",
        "--to", "M",
    )
    assert code == 0
    got = parse(out.strip(), Alphabet("abcdef"))
    assert got.coefficient(("b", "f", "c")) == 1
    code, out, _ = run_cli(
        capsys,
        "skew", "--alphabet", "ab", "--outer", "ab,a", "--inner", "()",
        "--to", "DI",
    )
    assert code == 0
    assert same_expr(out, "DI[ab,a]", Alphabet("ab"))


def test_coproduct_command(capsys):
    code, out, _ = run_cli(
        capsys, "coproduct", "--alphabet", "ab", "--basis", "DI", "--sentence", "ab"
    )
    assert code == 0
    assert out.strip() == "DI[()] @ DI[ab] + DI[a] @ DI[b] + DI[ab] @ DI[()]"
    code, out, _ = run_cli(
        capsys, "coproduct", "--alphabet", "ab", "--basis", "H", "--sentence", "ab", "--json"
    )
    doc = json.loads(out)
    assert doc["tags"] == ["H", "H"]
    assert {"left": "a", "right": "b", "coef": "1"} in doc["terms"]
    code, out, _ = run_cli(
        capsys, "coproduct", "--alphabet", "ab", "--basis", "RSDI", "--sentence", "ab"
    )
    assert code == 0
    assert "RSDI[()] @ RSDI[ab]" in out and "RSDI[ab] @ RSDI[()]" in out


SKEW_COPRODUCT_GOLDENS = [
    (
        ("skew", "--alphabet", "ab", "--outer", "aba,bab", "--inner", "ab", "--to", "DI"),
        "DI[baba] + DI[baa,b] + DI[ba,ab] - DI[ba,ba] + DI[a,bab] - DI[b,aba]"
        " - DI[b,aa,b] + DI[b,ba,a] + DI[b,a,ba] - DI[b,b,aa]\n",
    ),
    (
        ("skew", "--alphabet", "ab", "--outer", "aba,bab", "--inner", "ab", "--to", "F",
         "--row-strict"),
        "F[ab,a,b] + F[b,aa,b] + F[b,a,ab] + F[b,a,b,a]\n",
    ),
    (
        ("skew", "--alphabet", "abc", "--outer", "ab,cab", "--inner", "a,c", "--to", "DI",
         "--row-strict"),
        "RSDI[abb] + RSDI[ab,b] - RSDI[a,bb] + RSDI[b,ab]\n",
    ),
    (
        ("coproduct", "--alphabet", "ab", "--basis", "RSDI", "--sentence", "ab,ba"),
        "RSDI[()] @ RSDI[ab,ba] + RSDI[a] @ RSDI[bab] + RSDI[a] @ RSDI[bb,a]"
        " - RSDI[a] @ RSDI[b,ab] + RSDI[a] @ RSDI[b,ba] + RSDI[ab] @ RSDI[ba]"
        " + RSDI[a,b] @ RSDI[ab] + RSDI[a,b] @ RSDI[b,a] + RSDI[ab,b] @ RSDI[a]"
        " + RSDI[a,ba] @ RSDI[b] + RSDI[ab,ba] @ RSDI[()]\n",
    ),
    (
        ("coproduct", "--alphabet", "abc", "--basis", "DI", "--sentence", "ab,c", "--json"),
        '{"tags": ["DI", "DI"], "terms": [{"left": "()", "right": "ab,c", "coef": "1"}, '
        '{"left": "a", "right": "cb", "coef": "1"}, {"left": "a", "right": "b,c", "coef": "1"}, '
        '{"left": "ab", "right": "c", "coef": "1"}, {"left": "a,c", "right": "b", "coef": "1"}, '
        '{"left": "ab,c", "right": "()", "coef": "1"}]}\n',
    ),
]


@pytest.mark.parametrize(
    "argv,expected",
    SKEW_COPRODUCT_GOLDENS,
    ids=["skew-di", "skew-f-row-strict", "skew-rsdi", "coproduct-rsdi", "coproduct-di-json"],
)
def test_skew_coproduct_exact_output(capsys, argv, expected):
    # non-trivial inner shapes, so the skew conversion is pinned byte for byte
    assert run_cli(capsys, *argv) == (0, expected, "")


def test_structure_command(capsys):
    code, out, _ = run_cli(
        capsys, "structure", "--alphabet", "abc", "--left", "ab", "--right", "c"
    )
    assert code == 0
    assert same_expr(out, "IM[abc] + IM[ab,c]", Alphabet("abc"))


def test_hopf_command(capsys):
    code, out, _ = run_cli(
        capsys, "hopf", "--alphabet", "ab", "product", "H[ab]", "H[a]"
    )
    assert code == 0 and out.strip() == "H[ab,a]"
    code, out, _ = run_cli(capsys, "hopf", "--alphabet", "ab", "antipode", "M[a]")
    assert code == 0 and out.strip() == "-M[a]"
    code, out, _ = run_cli(capsys, "hopf", "--alphabet", "ab", "coproduct", "H[ab]")
    assert code == 0 and "H[a] @ H[b]" in out
    code, _, err = run_cli(capsys, "hopf", "--alphabet", "ab", "product", "H[a]")
    assert code == 1 and "two expressions" in err


def test_hopf_antipode_of_an_nsym_expression_is_nsym_s_error(capsys):
    # the side of the tag picks the algebra, so E goes to NSym, not QSym
    code, out, err = run_cli(capsys, "hopf", "--alphabet", "ab", "antipode", "E[a,b]")
    assert (code, out, err) == (1, "", "error: antipode_h expects an H-tagged expression\n")


def test_hopf_coproduct_of_an_nsym_expression_is_nsym_s_error(capsys):
    code, out, err = run_cli(capsys, "hopf", "--alphabet", "ab", "coproduct", "R[a,b]")
    assert (code, out, err) == (1, "", "error: coproduct_h expects an H-tagged expression\n")


def test_wrong_side_expand_exact_error(capsys):
    code, out, err = run_cli(capsys, "expand", "--alphabet", "ab", "--to", "H", "M[a]")
    assert (code, out) == (1, "")
    assert err == "error: cannot convert QSym_A expression to H (wrong side)\n"
    code, out, err = run_cli(capsys, "expand", "--alphabet", "ab", "--to", "M", "H[a]")
    assert (code, out) == (1, "")
    assert err == "error: cannot convert NSym_A expression to M (wrong side)\n"


def test_hopf_coproduct_exact_output(capsys):
    code, out, _ = run_cli(capsys, "hopf", "--alphabet", "ab", "coproduct", "DI[ab,b] - 2*DI[a]")
    assert code == 0
    assert out == (
        "-2*DI[()] @ DI[a] + DI[()] @ DI[ab,b] - 2*DI[a] @ DI[()] + DI[a] @ DI[bb]"
        " + DI[a] @ DI[b,b] + DI[ab] @ DI[b] + DI[a,b] @ DI[b] + DI[ab,b] @ DI[()]\n"
    )
    code, out, _ = run_cli(capsys, "hopf", "--alphabet", "ab", "coproduct", "--json", "H[ab,b]")
    assert code == 0
    assert out == (
        '{"tags": ["H", "H"], "terms": [{"left": "()", "right": "ab,b", "coef": "1"}, '
        '{"left": "a", "right": "b,b", "coef": "1"}, {"left": "b", "right": "ab", "coef": "1"}, '
        '{"left": "ab", "right": "b", "coef": "1"}, {"left": "a,b", "right": "b", "coef": "1"}, '
        '{"left": "ab,b", "right": "()", "coef": "1"}]}\n'
    )


def test_psi_command(capsys):
    code, out, _ = run_cli(capsys, "psi", "--alphabet", "abc", "DI[ab,cb]")
    assert code == 0 and out.strip() == "RSDI[ab,cb]"


def test_uncolor_command(capsys):
    code, out, _ = run_cli(capsys, "uncolor", "--alphabet", "abc", "H[ab,c] + H[ba,c]")
    assert code == 0 and out.strip() == "2*H[2,1]"


def test_verify_command(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--alphabet", "ab", "--max-degree", "3", "duality"
    )
    assert code == 0 and out.startswith("OK:")
    code, out, _ = run_cli(
        capsys, "verify", "--alphabet", "ab", "--max-degree", "2", "antipode", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["suite"] == "antipode" and doc["failures"] == []
    assert doc["checks"] > 0
    code, _, err = run_cli(
        capsys, "verify", "--alphabet", "ab", "--max-degree", "9", "duality"
    )
    assert code == 1 and "cap" in err


@pytest.mark.parametrize("degree", ["0", "-3"])
def test_verify_rejects_a_max_degree_below_one(capsys, degree):
    code, out, err = run_cli(
        capsys, "verify", "--alphabet", "ab", "--max-degree", degree, "duality"
    )
    assert (code, out, err) == (1, "", "error: max degree must be >= 1\n")


# byte-exact `verify --json` output of every suite: a suite may change how it
# checks, but not the report's shape or its counts
VERIFY_JSON_GOLDENS = [
    ("ab", "3", "duality", 2184),
    ("ab", "3", "roundtrip", 756),
    ("ab", "3", "pieri", 84),
    ("ab", "3", "psi", 466),
    ("ab", "3", "antipode", 84),
    ("ab", "3", "oracle", 36),
    ("abc", "2", "duality", 666),
    ("abc", "2", "roundtrip", 378),
    ("abc", "2", "pieri", 42),
    ("abc", "2", "psi", 240),
    ("abc", "2", "antipode", 42),
    ("abc", "2", "oracle", 9),
]


@pytest.mark.parametrize(
    "alphabet,degree,suite,checks",
    VERIFY_JSON_GOLDENS,
    ids=[f"{a}{d}-{s}" for a, d, s, _ in VERIFY_JSON_GOLDENS],
)
def test_verify_json_golden(capsys, alphabet, degree, suite, checks):
    code, out, _ = run_cli(
        capsys, "verify", "--alphabet", alphabet, "--max-degree", degree, suite, "--json"
    )
    assert code == 0
    assert out == f'{{"suite": "{suite}", "checks": {checks}, "failures": []}}\n'


def test_exit_codes(capsys):
    code, _, err = run_cli(capsys, "expand", "--alphabet", "ab", "--to", "M", "M[xy]")
    assert code == 1 and "alphabet" in err
    with pytest.raises(SystemExit) as info:
        main(["expand", "--alphabet", "ab"])  # missing required --to and expr
    assert info.value.code == 2


@pytest.mark.parametrize("argv", [
    ("coeffs", "--degree", "3", "--uncolored", "--alphabet", "ab"),
    ("tableaux", "--alphabet", "ab", "--shape", "ab", "--standard", "--type", "a,b"),
], ids=["coeffs-uncolored-alphabet", "tableaux-standard-type"])
def test_a_flag_the_command_would_ignore_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_an_expression_too_long_for_one_argument_is_read_from_stdin(capsys, monkeypatch):
    # the M answer of DI[abc,cba,abca] is past the 128 KiB cap on one
    # command-line argument, so "-" takes it from stdin and converts it back
    code, m, _ = run_cli(capsys, "expand", "--alphabet", "abc", "--to", "M", "DI[abc,cba,abca]")
    assert code == 0 and len(m.encode()) == 258002
    monkeypatch.setattr("sys.stdin", io.StringIO(m))
    code, out, _ = run_cli(capsys, "expand", "--alphabet", "abc", "--to", "DI", "-")
    assert code == 0 and out == "DI[abc,cba,abca]\n"


@pytest.mark.parametrize("argv", [
    ("pair", "--alphabet", "ab", "IM[ab]", "-"),
    ("psi", "--alphabet", "ab", "-"),
    ("uncolor", "--alphabet", "ab", "-"),
    ("hopf", "--alphabet", "ab", "product", "DI[a]", "-"),
])
def test_each_expression_command_reads_dash_from_stdin(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdin", io.StringIO("DI[ab]\n"))
    code, out, _ = run_cli(capsys, *argv)
    stdin_free = tuple("DI[ab]" if arg == "-" else arg for arg in argv)
    assert code == 0 and out == run_cli(capsys, *stdin_free)[1]


def test_two_expressions_from_stdin_are_a_usage_error(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("DI[a]"))
    with pytest.raises(SystemExit) as info:
        main(["hopf", "--alphabet", "ab", "product", "-", "-"])
    assert info.value.code == 2
    assert "stdin" in capsys.readouterr().err


def test_output_determinism(capsys):
    args = ["expand", "--alphabet", "abc", "--to", "M", "DI[ab,cb] - 2*DI[a,cb,b]"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_readme_cli_lines_run(capsys):
    # every example in the README's CLI block still runs and exits 0
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("cqsym ")]
    assert lines
    for line in lines:
        assert run_cli(capsys, *shlex.split(line, comments=True)[1:])[0] == 0, line
