import json
import random
from fractions import Fraction

import pytest

from cqsym import nsym, qsym
from cqsym.exprs import (
    NSYM_TAGS,
    QSYM_TAGS,
    Expr,
    ParseError,
    TensorExpr,
    UncoloredExpr,
    parse,
    side_converter,
)
from cqsym.sentences import Alphabet, all_sentences

ABC = Alphabet("abc")
AB = Alphabet("ab")


def test_basis_and_zero():
    e = Expr.basis("H", ("ab", "cb"), ABC)
    assert str(e) == "H[ab,cb]"
    assert Expr.zero("M", ABC).terms == {}
    assert str(Expr.zero("M", ABC)) == "0"


def test_additive_inverse_and_distributivity():
    e = Expr.basis("H", ("ab",), ABC)
    assert not (e + (-1) * e)
    s = Expr.basis("M", ("a", "b"), AB) + Expr.basis("M", ("ab",), AB)
    doubled = 2 * s
    assert doubled.coefficient(("a", "b")) == 2
    assert doubled.coefficient(("ab",)) == 2


def test_mixed_tag_addition_rejected():
    with pytest.raises(ValueError):
        Expr.basis("M", ("a",), AB) + Expr.basis("F", ("a",), AB)
    with pytest.raises(ValueError):
        Expr.basis("M", ("a",), AB) + Expr.basis("M", ("a",), ABC)


def test_parse_simple():
    e = parse("H[ab,cb]", ABC)
    assert e.tag == "H" and e.terms == {("ab", "cb"): 1}
    e = parse("2*M[a,cb,b] - M[abb,c]", ABC)
    assert e.terms == {("a", "cb", "b"): 2, ("abb", "c"): -1}
    e = parse("1/2*F[a] + 1/2*F[a]", AB)
    assert e.terms == {("a",): 1}
    assert parse("-M[a] + M[a]", AB).terms == {}
    assert parse("M[()]", AB).terms == {(): 1}
    assert parse("RSDI[ab]", AB).tag == "RSDI"
    assert parse("IM[ab]", AB).tag == "IM"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as info:
        parse("M[a] + + M[b]", AB)
    assert info.value.pos == 7
    with pytest.raises(ParseError):
        parse("", AB)
    with pytest.raises(ParseError):
        parse("Q[a]", AB)
    with pytest.raises(ParseError):
        parse("M[A]", AB)
    with pytest.raises(ParseError):
        parse("M[ax]", AB)  # letter outside alphabet
    with pytest.raises(ParseError):
        parse("2M[a]", AB)  # missing '*'
    with pytest.raises(ParseError):
        parse("M[a", AB)
    with pytest.raises(ParseError):
        parse("1/0*M[a]", AB)
    with pytest.raises(ValueError):
        parse("M[a] + F[a]", AB)


def test_render_canonical_order_and_signs():
    e = parse("M[a,b] - 2*M[ab] + 1/3*M[b,a]", AB)
    # graded canonical order: (ab) first, then lex on maximal words
    assert str(e) == "-2*M[ab] + M[a,b] + 1/3*M[b,a]"


def test_parse_render_round_trip_random():
    rng = random.Random(20240817)
    pool = [s for n in range(0, 7) for s in all_sentences(AB, n)]
    tags = ("M", "F", "DI", "RSDI", "H", "E", "R", "IM", "RSIM")
    for _ in range(1000):
        tag = rng.choice(tags)
        e = Expr(tag, AB)
        for s in rng.sample(pool, rng.randint(1, 6)):
            num = rng.randint(-8, 8)
            den = rng.choice([1, 1, 1, 2, 3, 7])
            e.add_term(s, Fraction(num, den))
        if e:
            assert parse(str(e), AB) == e


def test_parse_adds_each_term_into_one_expression(monkeypatch):
    # a sum built by Expr.__add__ copies every term parsed so far, which
    # makes parsing a long answer (say, one fed back to the CLI) quadratic
    def no_add(self, other):
        raise AssertionError("parse must not build its sum with Expr.__add__")

    monkeypatch.setattr(Expr, "__add__", no_add)
    e = parse("2*M[a,cb,b] - M[abb,c] + 1/2*M[a,cb,b] - M[()]", ABC)
    assert e.terms == {("a", "cb", "b"): Fraction(5, 2), ("abb", "c"): -1, (): -1}
    assert not parse("M[a] - M[a]", AB)


def test_parse_errors_keep_their_messages_and_positions():
    cases = {
        "M[a] + F[a]": ("mixed tags M and F in one expression", 11),
        "M[a] - 2*M[b] F[a]": ("expected '+' or '-', found 'F'", 14),
        "-M[a] + 1/2*M[b] + ": ("unknown basis tag at ''", 19),
        "M[a] + + M[b]": ("unknown basis tag at '+ M['", 7),
    }
    for text, (message, pos) in cases.items():
        with pytest.raises(ParseError) as info:
            parse(text, AB)
        assert str(info.value) == f"{message} (at position {pos})", text
        assert info.value.pos == pos, text


def test_long_expression_round_trips_through_str_and_parse():
    rng = random.Random(15)
    e = Expr("F", ABC)
    for n in range(0, 5):
        for s in all_sentences(ABC, n) if n else [()]:
            e.add_term(s, Fraction(rng.choice([-7, -2, -1, 1, 3, 9]), rng.choice([1, 1, 2, 5])))
    assert len(e.terms) == 778  # every sentence of abc n <= 4
    text = str(e)
    assert parse(text, ABC) == e
    assert str(parse(text, ABC)) == text


def test_scalar_arithmetic_exact():
    a, b = Fraction(1, 3), Fraction(1, 6)
    assert a + b == Fraction(1, 2)
    e = Fraction(2, 7) * Expr.basis("M", ("a",), AB)
    f = Fraction(1, 7) * Expr.basis("M", ("a",), AB)
    assert e - f == f
    # integral fractions normalize to int so equality is representation-free
    g = Fraction(4, 2) * Expr.basis("M", ("a",), AB)
    assert g.terms == {("a",): 2} and isinstance(g.terms[("a",)], int)


def test_floats_rejected():
    e = Expr.basis("M", ("a",), AB)
    with pytest.raises(TypeError):
        0.5 * e
    with pytest.raises(TypeError):
        Expr("M", AB, {("a",): 0.5})


def test_normalization_idempotent():
    e = Expr("M", AB, {("a",): Fraction(3, 3), ("b",): 0})
    assert e.terms == {("a",): 1}
    again = Expr("M", AB, dict(e.terms))
    assert again == e


def test_tensor_render():
    t = TensorExpr(("M", "M"), ABC)
    assert str(t) == ""
    t.add_term(((), ("a", "bc")), 1)
    t.add_term((("a",), ("bc",)), 2)
    assert str(t) == "M[()] @ M[a,bc] + 2*M[a] @ M[bc]"


def test_json_schema():
    e = parse("2*M[a,cb,b] - M[abb,c]", ABC)
    d = e.to_json_dict()
    assert d["tag"] == "M"
    assert {"sentence": "abb,c", "coef": "-1"} in d["terms"]
    assert {"sentence": "a,cb,b", "coef": "2"} in d["terms"]
    json.dumps(d)


def test_uncolored_expr():
    u = UncoloredExpr("M", {(2, 1): 2, (1, 1, 1): 1})
    assert str(u) == "2*M[2,1] + M[1,1,1]"
    assert u.coefficient((2, 1)) == 2
    assert UncoloredExpr("M", {(): 1}).to_json_dict()["terms"][0]["sentence"] == "()"


@pytest.mark.parametrize(
    "make, text, doc",
    [
        (lambda: Expr("M", ABC), "0", '{"tag": "M", "terms": []}'),
        (
            lambda: parse("2*M[a,cb,b] - M[abb,c] + 1/2*M[()] - M[b]", ABC),
            "1/2*M[()] - M[b] - M[abb,c] + 2*M[a,cb,b]",
            '{"tag": "M", "terms": [{"sentence": "()", "coef": "1/2"}, '
            '{"sentence": "b", "coef": "-1"}, {"sentence": "abb,c", "coef": "-1"}, '
            '{"sentence": "a,cb,b", "coef": "2"}]}',
        ),
        (lambda: TensorExpr(("M", "DI"), ABC), "", '{"tags": ["M", "DI"], "terms": []}'),
        (
            lambda: TensorExpr(
                ("H", "H"),
                ABC,
                {((), ("a", "bc")): -1, (("a",), ("bc",)): Fraction(2, 3), (("b",), ()): -3},
            ),
            "-H[()] @ H[a,bc] + 2/3*H[a] @ H[bc] - 3*H[b] @ H[()]",
            '{"tags": ["H", "H"], "terms": [{"left": "()", "right": "a,bc", "coef": "-1"}, '
            '{"left": "a", "right": "bc", "coef": "2/3"}, '
            '{"left": "b", "right": "()", "coef": "-3"}]}',
        ),
        (lambda: UncoloredExpr("IM"), "0", '{"tag": "IM", "terms": []}'),
        (
            lambda: UncoloredExpr("IM", {(2, 1): -2, (): Fraction(1, 2), (1, 1, 1): 1}),
            "1/2*IM[()] - 2*IM[2,1] + IM[1,1,1]",
            '{"tag": "IM", "terms": [{"sentence": "()", "coef": "1/2"}, '
            '{"sentence": "2,1", "coef": "-2"}, {"sentence": "1,1,1", "coef": "1"}]}',
        ),
    ],
)
def test_render_goldens(make, text, doc):
    e = make()
    assert str(e) == text
    assert json.dumps(e.to_json_dict()) == doc
    assert repr(e) == f"<{type(e).__name__} {text}>"


def test_reprs_name_the_class():
    assert repr(Expr.basis("M", ("a",), AB)) == "<Expr M[a]>"
    assert repr(TensorExpr(("M", "M"), AB)) == "<TensorExpr >"
    assert repr(UncoloredExpr("H", {(1,): -1})) == "<UncoloredExpr -H[1]>"


def test_expression_classes_never_equal_each_other():
    one = {("a",): 1}
    exprs = [Expr("M", AB, one), TensorExpr(("M", "M"), AB, one), UncoloredExpr("M", one)]
    empties = [Expr("M", AB), TensorExpr(("M", "M"), AB), UncoloredExpr("M")]
    for group in (exprs, empties):
        for x in group:
            for y in group:
                assert (x == y) == (x is y)


# The chain of single-step routes each conversion takes, as the path of tags
# it visits.
CONVERSION_PLANS = {
    "qsym": {
        ("M", "F"): "M F", ("M", "DI"): "M F DI", ("M", "RSDI"): "M F RSDI",
        ("F", "M"): "F M", ("F", "DI"): "F DI", ("F", "RSDI"): "F RSDI",
        ("DI", "M"): "DI F M", ("DI", "F"): "DI F", ("DI", "RSDI"): "DI F RSDI",
        ("RSDI", "M"): "RSDI F M", ("RSDI", "F"): "RSDI F", ("RSDI", "DI"): "RSDI F DI",
    },
    "nsym": {
        ("H", "E"): "H E", ("H", "R"): "H R", ("H", "IM"): "H R IM", ("H", "RSIM"): "H R RSIM",
        ("E", "H"): "E H", ("E", "R"): "E R", ("E", "IM"): "E R IM", ("E", "RSIM"): "E R RSIM",
        ("R", "H"): "R H", ("R", "E"): "R E", ("R", "IM"): "R IM", ("R", "RSIM"): "R RSIM",
        ("IM", "H"): "IM R H", ("IM", "E"): "IM R E", ("IM", "R"): "IM R",
        ("IM", "RSIM"): "IM R RSIM",
        ("RSIM", "H"): "RSIM R H", ("RSIM", "E"): "RSIM R E", ("RSIM", "R"): "RSIM R",
        ("RSIM", "IM"): "RSIM R IM",
    },
}


def _recording(routes, log):
    def record(pair, route):
        def step(e):
            log.append(pair)
            return route(e)
        return step

    return {pair: record(pair, route) for pair, route in routes.items()}


@pytest.mark.parametrize("module", [qsym, nsym], ids=["qsym", "nsym"])
def test_conversions_take_the_pinned_chain_of_routes(module):
    which = module.__name__.rsplit(".", 1)[1]
    plans = CONVERSION_PLANS[which]
    tags = QSYM_TAGS if which == "qsym" else NSYM_TAGS
    assert set(plans) == {(src, dst) for src in tags for dst in tags if src != dst}
    log = []
    convert = side_converter(which, _recording(module._ROUTES, log))
    alphabet = Alphabet("ab")
    for (src, dst), path in plans.items():
        steps = path.split()
        log.clear()
        e = Expr.basis(src, ("ab", "a"), alphabet)
        assert convert(e, dst) == module.convert(e, dst)
        assert log == list(zip(steps, steps[1:])), (src, dst)
        log.clear()
        assert convert(e, src) is e and log == []


def test_converter_needs_a_chain_for_every_pair():
    def identity(e):
        return e

    routes = {("M", "F"): identity, ("F", "M"): identity, ("DI", "F"): identity,
              ("RSDI", "F"): identity, ("F", "RSDI"): identity}
    with pytest.raises(ValueError, match="no chain of QSym_A routes from M to DI"):
        side_converter("qsym", routes)


def test_every_route_antipode_and_psi_keeps_the_empty_index():
    # a row route treats () like any other index, so each row must be
    # {(): 1} there: the L row and column of degree 0 (the empty filling
    # reads no word), the Mobius and signed sums over the one refinement of
    # (), and the solves, whose diagonal is all that () has
    c = Fraction(-5, 3)
    maps = [
        (f"{module.__name__} {src} -> {dst}", route, src, dst)
        for module in (qsym, nsym)
        for (src, dst), route in module._ROUTES.items()
    ]
    maps += [("antipode M", qsym.antipode_m, "M", "M"), ("antipode H", nsym.antipode_h, "H", "H")]
    maps += [(f"psi {src}", qsym.psi, src, dst) for src, dst in qsym._PSI_TAG.items()]
    maps += [(f"psi {src}", nsym.psi, src, dst) for src, dst in nsym._PSI_TAG.items()]
    for name, f, src, dst in maps:
        for alphabet in (Alphabet("a"), ABC):
            assert f(Expr(src, alphabet, {(): c})) == Expr(dst, alphabet, {(): c}), name
