"""Seeded single-element queries shared by the cold-query and warm-session
workloads, and the checks that their answers are right.

A query is a JSON-able dict: its kind, its alphabet and its text arguments.
The same query runs as a CLI call (`cli_argv`) or as a library call
(`answer`), and both give the text the CLI prints.  `check` verifies an
answer through an independent route of the library, outside any timed
region.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

# (alphabet, degree) buckets.  abc at degree 6 is left out: one query there
# builds a 729-word table and costs several seconds.
BUCKETS = (("ab", 3), ("ab", 4), ("ab", 5), ("ab", 6), ("abc", 3), ("abc", 4), ("abc", 5))

QSYM_TAGS = ("M", "F", "DI", "RSDI")
NSYM_TAGS = ("H", "E", "R", "IM", "RSIM")

EXPAND_ROUTES = (
    ("DI", "M"), ("DI", "F"), ("RSDI", "M"), ("RSDI", "F"),
    ("M", "DI"), ("M", "RSDI"), ("F", "DI"), ("F", "RSDI"),
    ("H", "IM"), ("H", "RSIM"), ("E", "IM"), ("E", "RSIM"), ("R", "IM"), ("R", "RSIM"),
    ("IM", "H"), ("IM", "R"), ("RSIM", "H"), ("RSIM", "R"),
)

KINDS = tuple(f"expand:{a}>{b}" for a, b in EXPAND_ROUTES) + (
    "skew", "coproduct", "structure", "product", "psi", "pair", "pieri", "creation",
)

PSI_TAG = {"M": "M", "F": "F", "DI": "RSDI", "RSDI": "DI",
           "H": "E", "E": "H", "R": "R", "IM": "RSIM", "RSIM": "IM"}


def random_sentence(rng, alphabet: str, n: int) -> str:
    """Uniform over the |A|^n * 2^(n-1) sentences of size n."""
    word = "".join(rng.choice(alphabet) for _ in range(n))
    rows, start = [], 0
    for pos in range(1, n):
        if rng.random() < 0.5:
            rows.append(word[start:pos])
            start = pos
    rows.append(word[start:])
    return ",".join(rows)


def _proper_inner(rng, outer: str) -> str:
    """A non-empty sentence left-contained in outer (a non-empty prefix of
    each of its first h rows) and smaller than it."""
    rows = outer.split(",")
    while True:
        h = rng.randint(1, len(rows))
        inner = [w[: rng.randint(1, len(w))] for w in rows[:h]]
        if inner != rows:
            return ",".join(inner)


def make_query(rng, kind: str, alphabet: str, n: int, choice: int) -> dict:
    """A query of the kind on sentences of size n.  The choices that set
    its cost class (a degree split, a target or a tag) follow `choice`, not
    rng, so that the seed moves only the sentences and runs of different
    seeds cost alike."""
    q = {"kind": kind, "alphabet": alphabet}
    if kind.startswith("expand:"):
        src, dst = kind[len("expand:"):].split(">")
        q["expr"] = f"{src}[{random_sentence(rng, alphabet, n)}]"
        q["to"] = dst
    elif kind == "skew":
        q["outer"] = random_sentence(rng, alphabet, n)
        q["inner"] = _proper_inner(rng, q["outer"])
        q["to"] = ("M", "DI")[choice % 2]
    elif kind in ("coproduct", "creation"):
        q["sentence"] = random_sentence(rng, alphabet, n)
    elif kind in ("structure", "product"):
        a = 1 + choice % (n - 1)
        q["left"] = random_sentence(rng, alphabet, a)
        q["right"] = random_sentence(rng, alphabet, n - a)
    elif kind == "psi":
        tag = (QSYM_TAGS + NSYM_TAGS)[choice % 9]
        q["expr"] = f"{tag}[{random_sentence(rng, alphabet, n)}]"
    elif kind == "pair":
        i = random_sentence(rng, alphabet, n)
        j = i if choice % 2 else random_sentence(rng, alphabet, n)
        q["nsym"], q["qsym"] = f"IM[{i}]", f"DI[{j}]"
    elif kind == "pieri":
        k = 1 + choice % (n - 1)
        q["sentence"] = random_sentence(rng, alphabet, n - k)
        q["word"] = "".join(rng.choice(alphabet) for _ in range(k))
    else:
        raise ValueError(f"unknown query kind {kind!r}")
    return q


def cli_argv(q: dict) -> list:
    kind, a = q["kind"], q["alphabet"]
    if kind.startswith("expand:"):
        return ["expand", "--alphabet", a, "--to", q["to"], q["expr"]]
    if kind == "skew":
        return ["skew", "--alphabet", a, "--outer", q["outer"], "--inner", q["inner"], "--to", q["to"]]
    if kind == "coproduct":
        return ["coproduct", "--alphabet", a, "--basis", "DI", "--sentence", q["sentence"], "--json"]
    if kind == "structure":
        return ["structure", "--alphabet", a, "--left", q["left"], "--right", q["right"]]
    if kind == "product":
        return ["hopf", "--alphabet", a, "product", f"DI[{q['left']}]", f"DI[{q['right']}]"]
    if kind == "psi":
        return ["psi", "--alphabet", a, q["expr"]]
    if kind == "pair":
        return ["pair", "--alphabet", a, q["nsym"], q["qsym"]]
    if kind == "pieri":
        return ["pieri", "--alphabet", a, "--sentence", q["sentence"], "--word", q["word"]]
    return ["creation", "--alphabet", a, "--sentence", q["sentence"]]


def _side_module(cq, tag):
    return cq.qsym if tag in QSYM_TAGS else cq.nsym


def answer(q: dict, cq) -> str:
    """The query through the library, rendered as the CLI prints it; cq is
    the imported cqsym package with its submodules loaded."""
    kind = q["kind"]
    a = cq.Alphabet(q["alphabet"])
    if kind.startswith("expand:"):
        e = cq.parse(q["expr"], a)
        return str(_side_module(cq, e.tag).convert(e, q["to"]))
    if kind == "skew":
        outer = cq.parse_sentence(q["outer"], a)
        inner = cq.parse_sentence(q["inner"], a)
        return str(cq.poset.skew_expand(outer, inner, q["to"], a))
    if kind == "coproduct":
        t = cq.poset.coproduct_di(cq.parse_sentence(q["sentence"], a), a)
        return json.dumps(t.to_json_dict())
    if kind == "structure":
        left = cq.parse_sentence(q["left"], a)
        right = cq.parse_sentence(q["right"], a)
        return str(cq.Expr("IM", a, cq.poset.structure_constants(left, right, a)))
    if kind == "product":
        return str(cq.qsym.product(cq.parse(f"DI[{q['left']}]", a), cq.parse(f"DI[{q['right']}]", a)))
    if kind == "psi":
        e = cq.parse(q["expr"], a)
        return str(_side_module(cq, e.tag).psi(e))
    if kind == "pair":
        return str(cq.nsym.pair(cq.parse(q["nsym"], a), cq.parse(q["qsym"], a)))
    if kind == "pieri":
        return str(cq.nsym.pieri(cq.parse_sentence(q["sentence"], a), q["word"], a))
    return str(cq.nsym.immaculate_in_h(cq.parse_sentence(q["sentence"], a), a))


def _parse_answer(cq, text: str, tag: str, a):
    return cq.Expr.zero(tag, a) if text == "0" else cq.parse(text, a)


def _h_product(cq, left, right):
    return cq.nsym.product(cq.nsym.convert(left, "H"), cq.nsym.convert(right, "H"))


def check(q: dict, out: str, cq) -> str | None:
    """None when out is the right answer to q, else what is wrong.  Each
    check takes another route than the one that produced the answer."""
    kind = q["kind"]
    a = cq.Alphabet(q["alphabet"])
    if kind.startswith("expand:"):
        # converting back alone would pass a table that both directions
        # share, so the answer must also agree in a third basis, reached
        # through other tables
        src = cq.parse(q["expr"], a)
        got = _parse_answer(cq, out, q["to"], a)
        side = _side_module(cq, src.tag)
        back = side.convert(got, src.tag)
        if back != src:
            return f"converts back to {back}"
        third = next(t for t in ("F", "M", "DI", "H", "R", "IM")
                     if t not in (src.tag, got.tag) and _side_module(cq, t) is side)
        return None if side.convert(got, third) == side.convert(src, third) else f"differs in {third}"
    if kind == "skew":
        # the M expansion counts skew tableaux; the DI one pairs through H
        outer = cq.parse_sentence(q["outer"], a)
        inner = cq.parse_sentence(q["inner"], a)
        other = "DI" if q["to"] == "M" else "M"
        want = cq.qsym.convert(cq.poset.skew_expand(outer, inner, other, a), "M")
        got = cq.qsym.convert(_parse_answer(cq, out, q["to"], a), "M")
        return None if got == want else f"differs from the skew expansion in {other}"
    if kind == "coproduct":
        s = cq.parse_sentence(q["sentence"], a)
        to_m = lambda text: cq.qsym.convert(cq.Expr.basis("DI", cq.parse_sentence(text, a), a), "M")
        got = {}
        for t in json.loads(out)["terms"]:
            c = Fraction(t["coef"])
            for i, ci in to_m(t["left"]).terms.items():
                for j, cj in to_m(t["right"]).terms.items():
                    got[(i, j)] = got.get((i, j), 0) + c * ci * cj
        want = cq.qsym.coproduct(cq.qsym.convert(cq.Expr.basis("DI", s, a), "M")).terms
        got = {k: v for k, v in got.items() if v}
        return None if got == want else "differs from the M deconcatenation"
    if kind == "structure":
        left = cq.nsym.immaculate_in_h(cq.parse_sentence(q["left"], a), a)
        right = cq.nsym.immaculate_in_h(cq.parse_sentence(q["right"], a), a)
        got = cq.nsym.convert(_parse_answer(cq, out, "IM", a), "H")
        return None if got == _h_product(cq, left, right) else "differs from the H product"
    if kind == "product":
        # the polynomial realization is faithful on degree n with n positions
        left, right = (cq.qsym.convert(cq.parse(f"DI[{q[k]}]", a), "M") for k in ("left", "right"))
        n = len((q["left"] + q["right"]).replace(",", ""))
        got = cq.qsym.realize(cq.qsym.convert(_parse_answer(cq, out, "DI", a), "M"), n)
        want = cq.qsym.realization_product(cq.qsym.realize(left, n), cq.qsym.realize(right, n))
        return None if got == want else "differs from the realization oracle"
    if kind == "psi":
        # psi sends X_I to Y_I for the immaculate families, H and E, and
        # F_I, R_I to F, R of the complement; M has no closed form here,
        # so there psi must undo itself
        src = cq.parse(q["expr"], a)
        got = _parse_answer(cq, out, PSI_TAG[src.tag], a)
        if src.tag == "M":
            ok = cq.qsym.psi(got) == src
        else:
            (i,) = src.terms
            target = cq.sentences.complement(i) if src.tag in ("F", "R") else i
            ok = got == cq.Expr.basis(PSI_TAG[src.tag], target, a)
        return None if ok else f"psi gives {got}"
    if kind == "pair":
        want = "1" if q["nsym"][3:] == q["qsym"][3:] else "0"
        return None if out == want else f"pairing is {out}, not {want}"
    if kind == "pieri":
        j = cq.parse_sentence(q["sentence"], a)
        want = _h_product(cq, cq.nsym.immaculate_in_h(j, a), cq.Expr.basis("H", (q["word"],), a))
        got = cq.nsym.convert(_parse_answer(cq, out, "IM", a), "H")
        return None if got == want else "differs from the H product"
    got = cq.nsym.convert(_parse_answer(cq, out, "H", a), "IM")
    want = cq.Expr.basis("IM", cq.parse_sentence(q["sentence"], a), a)
    return None if got == want else f"converts back to {got}"


def input_shapes(q: dict) -> set:
    """The sentences a query names, as (alphabet, degree, sentence text)."""
    texts = [q[k] for k in ("outer", "inner", "sentence", "left", "right") if k in q]
    texts += [q[k].split("[", 1)[1][:-1] for k in ("expr", "nsym", "qsym") if k in q]
    return {(q["alphabet"], len(t.replace(",", "")), t) for t in texts}


# ---------------------------------------------------------------------------
# streams: a run is made of whole passes, so every run sees the same mix of
# query kinds and (alphabet, degree) buckets; the seed picks the sentences
# and the order.  Cold passes take 100 of the 182 kind x bucket cells, the
# i-th cell being (KINDS[i % 26], BUCKETS[(i + 1) % 7]): each kind three or
# four times at as many buckets, each bucket 14 or 15 times.  That keeps one
# pass near 20 s of fresh processes and leaves ten samples above the 90th
# percentile.  The offset 1 puts the 90th percentile among whole-degree
# table builds of similar cost (ab at 6, abc at 5), not at the gap below
# them, where it would jump from seed to seed.

COLD_CELLS = tuple((KINDS[i % len(KINDS)], BUCKETS[(i + 1) % len(BUCKETS)]) for i in range(100))
WARM_CELLS = tuple((kind, bucket) for kind in KINDS for bucket in BUCKETS)


def _pass(cells, seed: int, index: int) -> list:
    rng = random.Random(f"{seed}:{index}")
    out = [make_query(rng, kind, a, n, i + index) for i, (kind, (a, n)) in enumerate(cells)]
    rng.shuffle(out)
    return out


def cold_pass(seed: int, index: int) -> list:
    return _pass(COLD_CELLS, seed, index)


def warm_pass(seed: int, index: int) -> list:
    return _pass(WARM_CELLS, seed, index)


def warmup_conversions() -> list:
    """One conversion per expand route and bucket, on a fixed one-row
    sentence: enough to build every per-degree table the queries read."""
    out = []
    for a, n in BUCKETS:
        word = (a * n)[:n]
        for src, dst in EXPAND_ROUTES:
            out.append({"kind": f"expand:{src}>{dst}", "alphabet": a, "expr": f"{src}[{word}]", "to": dst})
    return out


# ---------------------------------------------------------------------------
# full-tables jobs: (name, CLI arguments, group, expected stdout).  A verify
# job must print OK with its check count; the other outputs are too large
# to check independently here, so their sha256 must match the output of the
# initial cqsym release.

VERIFY_CHECKS = {"duality": 559240, "roundtrip": 12276, "psi": 7602,
                 "antipode": 1364, "oracle": 1252, "pieri": 1364}

JOBS = (
    ("coeffs-uncolored-9", ["coeffs", "--degree", "9", "--uncolored"], "graph",
     "sha256:10efffb628982c684be6ced4464a6d7ab84b6b5b1198fc1adb9a3596e4abd210"),
    ("coeffs-ab-6", ["coeffs", "--alphabet", "ab", "--degree", "6"], "graph",
     "sha256:0cf743fc53812a5aafa41860291b22c9845d772da7473d8b07ed773f7a5cffac"),
    ("graph-ab-6", ["graph", "--alphabet", "ab", "--degree", "6", "--format", "csv"], "graph",
     "sha256:d880bf8d6fce35e491e4cf095c0fdcdf8e5c16d265a05a13611a6cc4d1e7a7a0"),
) + tuple(
    (f"verify-{suite}", ["verify", "--alphabet", "ab", "--max-degree", "5", suite], "verify",
     f"OK: {checks} checks passed\n")
    for suite, checks in VERIFY_CHECKS.items()
)


def check_job(expected: str, out: bytes) -> str | None:
    if expected.startswith("sha256:"):
        ok = hashlib.sha256(out).hexdigest() == expected[len("sha256:"):]
    else:
        ok = out.decode() == expected
    return None if ok else f"output differs from {expected!r}"
