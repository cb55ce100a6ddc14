"""Span tracing for the per-layer metrics, kept entirely outside src/.

`Tracer.install` replaces the traced public functions of the cqsym modules
by recording wrappers: in every module namespace that binds them and in
every closure cell that captured them (qsym and nsym build their routes by
closing over `kostka_table`, `ell_columns` and friends at import time).
Hot recursive helpers such as `inverse_coeff`, `canonical_key` and
`refinements` are not wrapped; their cost shows as their callers' self time.

Spans stay in memory, in compact columns (a verify suite makes over a
million), and are written once, by `Tracer.write`.  A span has an id (its
row), a parent span, a name, a query id, a start and an end, and some
carry counters.  `Totals` folds the traces of a run into per-layer totals.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from array import array

# The work a counter does runs after its span ends, inside this span, so
# that its time is not charged to the caller's self time.
COUNT_SPAN = "trace.count"

# span columns: parent span id (-1 for none), name id, query id, times
COLUMNS = (("parent", "i"), ("name", "H"), ("query", "i"), ("start", "d"), ("end", "d"))


def _items(args, result):
    return {"items": len(result)}


def _graph_size(args, result):
    return {"vertices": len(result.vertices), "edges": sum(len(e) for e in result.edges.values())}


def _reached(g, root, step):
    seen = {root}
    stack = [root]
    while stack:
        for j in step(stack.pop()):
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return len(seen)


def _inverse_row(args, result):
    g, root = args[0], args[1]
    return {"terms": len(result), "reached": _reached(g, root, g.out_edges), "vertices": len(g.vertices)}


def _inverse_column(args, result):
    g, root = args[0], args[1]
    return {"terms": len(result), "reached": _reached(g, root, g.in_neighbors), "vertices": len(g.vertices)}


def _render(args, result):
    return {"terms": len(args[0].terms)}


def _checks(args, result):
    return {"checks": result["checks"]}


# span name -> (module, attribute, counter).  A counter maps the call's
# arguments and result to a dict of counts.
TRACED = {
    "cli.main": ("cli", "main", None),
    "exprs.parse": ("exprs", "parse", None),
    "sentences.sort_sentences": ("sentences", "sort_sentences", _items),
    "sentences.all_sentences": ("sentences", "all_sentences", _items),
    "sentences.quasishuffle": ("sentences", "quasishuffle", None),
    "tableaux.standard_data": ("tableaux", "standard_data", None),
    "tableaux.kostka_table": ("tableaux", "kostka_table", None),
    "tableaux.kostka_columns": ("tableaux", "kostka_columns", None),
    "tableaux.ell_table": ("tableaux", "ell_table", None),
    "tableaux.ell_columns": ("tableaux", "ell_columns", None),
    "descent_graph.build": ("descent_graph", "build", _graph_size),
    "descent_graph.inverse_row": ("descent_graph", "inverse_row", _inverse_row),
    "descent_graph.inverse_column": ("descent_graph", "inverse_column", _inverse_column),
    "descent_graph.uncolored_coeffs": ("descent_graph", "uncolored_coeffs", None),
    "qsym.convert": ("qsym", "convert", None),
    "qsym.product": ("qsym", "product", None),
    "qsym.coproduct": ("qsym", "coproduct", None),
    "qsym.psi": ("qsym", "psi", None),
    "nsym.convert": ("nsym", "convert", None),
    "nsym.immaculate_in_h": ("nsym", "immaculate_in_h", None),
    "nsym.product": ("nsym", "product", None),
    "nsym.pair": ("nsym", "pair", None),
    "nsym.psi": ("nsym", "psi", None),
    "nsym.pieri": ("nsym", "pieri", None),
    "poset.skew_expand": ("poset", "skew_expand", None),
    "poset.enumerate_skew_tableaux": ("poset", "enumerate_skew_tableaux", _items),
    "poset.coproduct_di": ("poset", "coproduct_di", None),
    "poset.structure_constants": ("poset", "structure_constants", None),
    "verify.run": ("verify", "run", _checks),
}

# Every expression class renders through these two methods.
RENDER_CLASSES = ("Expr", "TensorExpr", "UncoloredExpr")
RENDER_METHODS = ("__str__", "to_json_dict")

# lru_caches read at the end of a traced process: group -> (module, name).
CACHES = {
    "tableaux": (("tableaux", "standard_data"), ("tableaux", "kostka_table"),
                 ("tableaux", "kostka_columns"), ("tableaux", "ell_columns")),
    "nsym.creation": (("nsym", "_bernstein_terms"), ("nsym", "_imm_h_terms")),
}

MODULES = ("cli", "exprs", "sentences", "tableaux", "descent_graph", "qsym", "nsym", "poset", "verify")


class Tracer:
    """Spans in columns: parent span, name, query id, start and end time."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.columns = {key: array(code) for key, code in COLUMNS}
        self.counts = {}      # span id -> {counter: value}
        self.stack = [-1]     # open spans; -1 is the root
        self.query = -1
        self.enumerated = []  # [alphabet, degree, shapes] per standard_data build
        self._caches = {}     # "module.name" -> (group, lru_cache), set by install

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, name, fn, counter):
        tracer, stack, name_id = self, self.stack, self.name_id(name)
        cols = self.columns
        parents, names, queries, starts, ends = (cols[key] for key, _ in COLUMNS)
        count_id = self.name_id(COUNT_SPAN)
        miss_info = getattr(fn, "cache_info", None) if name == "tableaux.standard_data" else None
        per_suite = name == "verify.run"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(starts)
            parents.append(stack[-1])
            names.append(tracer.name_id(f"verify.{args[0]}") if per_suite else name_id)
            queries.append(tracer.query)
            ends.append(0.0)
            stack.append(i)
            misses = miss_info().misses if miss_info else 0
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = time.perf_counter()
                stack.pop()
            if miss_info and miss_info().misses > misses:
                tracer.enumerated.append(["".join(args[0].colors), args[1], len(result)])
                tracer.counts[i] = {"shapes": len(result)}
            elif counter is not None:
                parents.append(stack[-1])
                names.append(count_id)
                queries.append(tracer.query)
                starts.append(time.perf_counter())
                tracer.counts[i] = counter(args, result)
                ends.append(time.perf_counter())
            return result

        return wrapper

    def install(self, cqsym) -> None:
        """Wrap the traced functions of the imported cqsym package."""
        modules = [importlib.import_module(f"cqsym.{m}") for m in MODULES] + [cqsym]
        self._caches = {
            f"{mod}.{attr}": (group, getattr(getattr(cqsym, mod), attr))
            for group, members in CACHES.items()
            for mod, attr in members
        }
        wrappers = {}
        for name, (mod, attr, counter) in TRACED.items():
            fn = getattr(getattr(cqsym, mod), attr)
            wrappers[id(fn)] = self._wrap(name, fn, counter)
        # closures first: afterwards the wrappers themselves close over the
        # originals and must keep them
        for module in modules:
            for value in list(vars(module).values()):
                if isinstance(value, types.FunctionType) and value.__closure__:
                    for cell in value.__closure__:
                        try:
                            wrapped = wrappers.get(id(cell.cell_contents))
                        except ValueError:  # empty cell
                            continue
                        if wrapped is not None:
                            cell.cell_contents = wrapped
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapped = wrappers.get(id(value))
                if wrapped is not None:
                    setattr(module, attr, wrapped)
        for cls_name in RENDER_CLASSES:
            cls = getattr(cqsym.exprs, cls_name)
            for method in RENDER_METHODS:
                setattr(cls, method, self._wrap("exprs.render", getattr(cls, method), _render))

    def write(self, path, **extra) -> None:
        """One JSON header line, then the columns as raw arrays."""
        caches = {}
        for name, (group, cache) in self._caches.items():
            info = cache.cache_info()
            caches[name] = [group, info.hits, info.misses, info.currsize]
        header = {"names": self.names, "n": len(self.columns["start"]), "counts": self.counts,
                  "enumerated": self.enumerated, "caches": caches, **extra}
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for key, _ in COLUMNS:
                self.columns[key].tofile(f)


def read(path) -> dict:
    """A trace file as its header dict, with the columns under "columns"."""
    with open(path, "rb") as f:
        trace = json.loads(f.readline())
        trace["columns"] = {}
        for key, code in COLUMNS:
            column = array(code)
            column.fromfile(f, trace["n"])
            trace["columns"][key] = column
    return trace


class Totals:
    """Per-layer totals over the trace files of one run."""

    def __init__(self):
        self.self_s = {}
        self.calls = {}
        self.counts = {}
        self.caches = {}  # group -> [hits, misses, entries]
        self.shapes_enumerated = 0
        self.shapes_used = 0
        self.start_s = 0.0

    def add(self, trace: dict, used_shapes) -> None:
        """Fold in one process's trace.  used_shapes is the set of
        (alphabet, degree, sentence) the process was asked about, or None
        when the process reads every row it enumerates."""
        names = trace["names"]
        cols = trace["columns"]
        parents, name_ids, starts, ends = cols["parent"], cols["name"], cols["start"], cols["end"]
        inner = [0.0] * trace["n"]
        for i, p in enumerate(parents):
            if p >= 0:
                inner[p] += ends[i] - starts[i]
        self_s = [0.0] * len(names)
        calls = [0] * len(names)
        for i, k in enumerate(name_ids):
            self_s[k] += ends[i] - starts[i] - inner[i]
            calls[k] += 1
        for k, name in enumerate(names):
            if name != COUNT_SPAN:
                self.self_s[name] = self.self_s.get(name, 0.0) + self_s[k]
                self.calls[name] = self.calls.get(name, 0) + calls[k]
        for i, counts in trace["counts"].items():
            name = names[name_ids[int(i)]]
            for key, value in counts.items():
                self.counts[(name, key)] = self.counts.get((name, key), 0) + value
        for group, hits, misses, entries in trace["caches"].values():
            total = self.caches.setdefault(group, [0, 0, 0])
            total[0] += hits
            total[1] += misses
            total[2] += entries
        for alphabet, degree, shapes in trace["enumerated"]:
            self.shapes_enumerated += shapes
            if used_shapes is None:
                self.shapes_used += shapes
            else:
                self.shapes_used += sum(1 for a, n, _ in used_shapes if a == alphabet and n == degree)
        self.start_s += trace.get("start_s", 0.0)

    def s(self, name) -> float:
        return self.self_s.get(name, 0.0)

    def n(self, name) -> int:
        return self.calls.get(name, 0)

    def count(self, name, key) -> int:
        return self.counts.get((name, key), 0)

    def cache_entries(self, group) -> int:
        return self.caches.get(group, [0, 0, 0])[2]

    def cache_hit_ratio(self, group) -> float:
        hits, misses, _ = self.caches.get(group, [0, 0, 0])
        return hits / (hits + misses) if hits + misses else 0.0
