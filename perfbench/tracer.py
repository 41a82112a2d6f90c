"""Outside-in spans for the geomforge layers.

``Tracer.install`` wraps the public functions and methods of every layer
module from here, without changing the package: each call records one span
(name, parent span, start, end, optional note) in memory, and ``dump``
writes them as JSON lines once the step is over.  ``summarize`` turns a
span file into the per-layer metrics.  This module imports nothing from
geomforge, so the parent process can summarize without loading it.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter
from types import FunctionType

LAYERS = ("perm", "gf2", "geom", "build", "natrep", "cover", "local", "graphs", "m22", "cli")

# Inner methods called hundreds of thousands of times per step: a span each
# would cost more than the work it measures, so their time stays with the
# caller's span.
UNWRAPPED = frozenset({
    "perm.label_key",
    "perm.Permutation.is_identity",
    "perm.Permutation.inverse",
    "perm.GroupAction.apply",
    "geom.Geometry.incident",
    "geom.Geometry.pencil",
    "geom.Geometry.elements_of_type",
    "gf2.MatrixGFp.get",
    "gf2.MatrixGFp.row",
    "graphs.Graph.neighbors",
    "graphs.Graph.has_edge",
    "graphs.Graph.degree",
})

# Private functions whose time is a named metric.
PRIVATE_SPANS = frozenset({
    "perm.PermutationGroup._setwise_stabilizer",
    "geom._check_action",
})

# Constructed tens of thousands of times per step: counted, not spanned.
COUNTED = frozenset({"perm.Permutation.__init__"})


def _wanted(name: str, attr: str) -> bool:
    if name in UNWRAPPED:
        return False
    return not attr.startswith("_") or attr == "__init__" or name in PRIVATE_SPANS


def _domain_size(args, kwargs, result):
    return len(result.domain)


def _length(args, kwargs, result):
    return len(result)


def _enumeration(args, kwargs, result):
    return [result.status, result.index]


def _matrix_note(matrix_type):
    """[prime, rows, cols] of the matrix a gf2 call works on: the instance
    it is called on or takes first, else the matrix it returns."""

    def note(args, kwargs, result):
        m = args[0] if args and isinstance(args[0], matrix_type) else result
        if isinstance(m, matrix_type):
            return [m.prime, m.rows, m.cols]
        return None

    return note


class Tracer:
    """Span recorder for one traced step."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack = [-1]

    def span(self, fn, name: str, note=None):
        spans, stack, nid = self.spans, self._stack, len(self.names)
        self.names.append(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [nid, stack[-1], 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if note is not None:
                record[4] = note(args, kwargs, result)
            return result

        return wrapper

    def counter(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _wrap(self, fn, name: str, note):
        if name in COUNTED:
            return self.counter(fn, name)
        return self.span(fn, name, note)

    def install(self, modules: dict) -> None:
        """Wrap every layer of ``modules`` (layer name -> module).  A
        function is replaced wherever a layer binds it, because modules
        import each other's functions by name (``local`` even renames
        ``graphs.girth``); patching only the defining module would miss
        those calls."""
        notes = {
            "perm.induced_action": _domain_size,
            "geom.Geometry.maximal_flags": _length,
            "cover.todd_coxeter": _enumeration,
        }
        matrix_note = _matrix_note(modules["gf2"].MatrixGFp)
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            default_note = matrix_note if layer == "gf2" else None
            for attr, obj in list(vars(module).items()):
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if isinstance(obj, type):
                    if not attr.startswith("_") and not issubclass(obj, BaseException):
                        self._wrap_class(obj, name, notes, default_note)
                elif callable(obj) and _wanted(name, attr):
                    replaced[id(obj)] = self._wrap(obj, name, notes.get(name, default_note))
        for module in modules.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])

    def _wrap_class(self, cls, prefix: str, notes: dict, default_note) -> None:
        for attr, raw in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            if isinstance(fn, FunctionType) and _wanted(name, attr):
                wrapped = self._wrap(fn, name, notes.get(name, default_note))
                setattr(cls, attr, kind(wrapped) if kind else wrapped)

    def dump(self, path) -> None:
        """Header line (span names, counters), then one line per span:
        [name index, parent span index or -1, start s, end s, note]."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "counts": dict(self.counts)}) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


# -- summarizing ------------------------------------------------------------------

# inclusive time of the outermost span of any of these names
INCLUSIVE = {
    "perm.setwise_s": {"perm.PermutationGroup._setwise_stabilizer"},
    "perm.induced_action_s": {"perm.induced_action"},
    "geom.residue_s": {"geom.residue"},
    "geom.action_check_s": {"geom._check_action"},
    "geom.flag_transitive_s": {"geom.is_flag_transitive"},
    "geom.is_geometry_s": {"geom.is_geometry"},
    "geom.diagram_s": {"geom.diagram"},
    "gf2.pack_s": {"gf2.MatrixGFp.from_rows", "gf2.MatrixGFp.from_entries"},
    "gf2.rref_s": {"gf2.MatrixGFp.rref"},
    "gf2.extract_s": {
        "gf2.MatrixGFp.nullspace", "gf2.MatrixGFp.row_space",
        "gf2.MatrixGFp.transpose", "gf2.solve", "gf2.dump_matrix",
    },
    "cover.tc_s": {"cover.todd_coxeter"},
}
_SEARCH = {"perm.subgroup_search", "m22.aut_m22"}
_CHAIN = "perm.StabilizerChain.__init__"

TIME_METRICS = (
    [f"{layer}.self_s" for layer in LAYERS]
    + list(INCLUSIVE)
    + ["gf2.gf3_s", "gf2.small_s"]
)
COUNT_METRICS = [f"{layer}.calls" for layer in ("perm", "geom", "gf2")] + [
    "perm.permutations_built",
    "perm.chains_built",
    "perm.setwise_chains_built",
    "perm.search_chains_built",
    "perm.induced_action_points",
    "geom.residue_calls",
    "geom.maximal_flags",
    "gf2.pack_entries",
    "gf2.rref_calls",
    "gf2.rref_entries",
    "cover.tc_calls",
    "cover.index_total",
    "cover.overflows",
]


def summarize(path) -> dict:
    """Per-layer metrics of one span file.  A layer's self time is its
    spans' durations minus the durations of their direct child spans."""
    with open(path, encoding="utf-8") as fh:
        header = json.loads(fh.readline())
        spans = [json.loads(line) for line in fh]
    names = header["names"]
    bits = {metric: 1 << i for i, metric in enumerate(INCLUSIVE)}
    search_bit, setwise_bit = 1 << len(bits), bits["perm.setwise_s"]
    gf2_bit = search_bit << 1
    own = []
    for name in names:
        mask = sum(bit for metric, bit in bits.items() if name in INCLUSIVE[metric])
        mask |= search_bit if name in _SEARCH else 0
        mask |= gf2_bit if name.startswith("gf2.") else 0
        own.append(mask)

    out = dict.fromkeys(TIME_METRICS + COUNT_METRICS, 0)
    out["perm.permutations_built"] = header["counts"].get("perm.Permutation.__init__", 0)
    children = [0.0] * len(spans)
    for nid, parent, start, end, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    inside = [0] * len(spans)
    for i, (nid, parent, start, end, note) in enumerate(spans):
        name = names[nid]
        layer = name.split(".", 1)[0]
        duration = end - start
        above = inside[parent] if parent >= 0 else 0
        inside[i] = above | own[nid]
        out[f"{layer}.self_s"] += duration - children[i]
        if f"{layer}.calls" in out:
            out[f"{layer}.calls"] += 1
        for metric, bit in bits.items():
            if own[nid] & bit and not above & bit:
                out[metric] += duration
        if own[nid] & gf2_bit and not above & gf2_bit and note:
            if note[0] == 3:
                out["gf2.gf3_s"] += duration
            if note[2] <= 64:
                out["gf2.small_s"] += duration
        if name == _CHAIN:
            out["perm.chains_built"] += 1
            if above & setwise_bit:
                out["perm.setwise_chains_built"] += 1
            elif above & search_bit:
                out["perm.search_chains_built"] += 1
        elif name == "perm.induced_action" and note is not None:
            out["perm.induced_action_points"] += note
        elif name == "geom.residue":
            out["geom.residue_calls"] += 1
        elif name == "geom.Geometry.maximal_flags" and note is not None:
            out["geom.maximal_flags"] += note
        elif name in INCLUSIVE["gf2.pack_s"] and note and not above & bits["gf2.pack_s"]:
            out["gf2.pack_entries"] += note[1] * note[2]
        elif name == "gf2.MatrixGFp.rref":
            out["gf2.rref_calls"] += 1
            if note:
                out["gf2.rref_entries"] += note[1] * note[2]
        elif name == "cover.todd_coxeter":
            out["cover.tc_calls"] += 1
            if note and note[0] == "completed":
                out["cover.index_total"] += note[1]
            elif note:
                out["cover.overflows"] += 1
    return out
