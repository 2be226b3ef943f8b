"""Span recorder for the padiczeta benchmark.

The recorder wraps public functions and methods of the package from the
outside.  Every call of a wrapped target becomes a span: its name, start,
end, the span that was open when it started (its parent) and the request
it belongs to.  Spans are kept in flat arrays in memory and written out at
the end of a run.  A few targets are only counted (no span), because they
are called too often to time one by one.

Package modules bind names directly (``testfn`` does
``from .group import iwasawa_UAK``), so a target is replaced in every
module of the package that holds it, not only where it is defined, and
methods are replaced on their class under every attribute name that holds
the function (``CycValue.__radd__`` is ``CycValue.__add__``).  Leaving the
``installed()`` block restores every original binding.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "padiczeta"

# (span name, module, attribute path); a dotted path names a class method
SPAN_TARGETS = (
    ("arith.CycValue.add", "arith", "CycValue.__add__"),
    ("arith.CycValue.reduced", "arith", "CycValue.reduced"),
    ("residue.int_det", "residue", "int_det"),
    ("residue.ZMat.matmul", "residue", "ZMat.__matmul__"),
    ("group.Mat.matmul", "group", "Mat.__matmul__"),
    ("group.Mat.inv", "group", "Mat.inv"),
    ("group.iwasawa_UAK", "group", "iwasawa_UAK"),
    ("group.bruhat_open_cell", "group", "bruhat_open_cell"),
    ("group.enumerate_cosets", "group", "enumerate_cosets"),
    ("params.chi_tau_eval", "params", "chi_tau_eval"),
    ("testfn.f_convolution", "testfn", "f_convolution"),
    ("testfn.f_explicit", "testfn", "f_explicit"),
    ("testfn.mellin_component", "testfn", "mellin_component"),
    ("whitmodel.WhittakerOnH.value_parts", "whitmodel",
     "WhittakerOnH.value_parts"),
    ("zeta.zeta_direct", "zeta", "zeta_direct"),
    ("zeta.zeta_explicit", "zeta", "zeta_explicit"),
    ("rslocal.W_fcg", "rslocal", "W_fcg"),
    ("nicedomain.vanishing_check", "nicedomain", "vanishing_check"),
    ("nicedomain.classify", "nicedomain", "classify"),
    ("cli.main", "cli", "main"),
)

COUNT_TARGETS = (
    ("arith.psi", "arith", "psi"),
    ("arith.valuation", "arith", "valuation"),
)

LAYERS = ("arith", "residue", "group", "params", "testfn", "whitmodel",
          "zeta", "rslocal", "nicedomain", "cli")

# quantities read from return values, at the boundary where the work is done
RESULT_COUNTERS = (
    "group.enumerate_cosets.reps",
    "nicedomain.vanishing_check.cells",
    "nicedomain.vanishing_check.zero",
    "whitmodel.value_parts.support_hits",
)


def _resolve(module, path: str):
    """(owner, function) for a module-level or class attribute path."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, vars(owner)[attr]


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Spans and counters of one traced pass, in flat arrays.

    Span i has name ``names[name_ids[i]]``, runs from ``starts[i]`` to
    ``ends[i]`` (perf_counter seconds), was caused by span ``parents[i]``
    (-1 for none) and belongs to request ``requests[i]``.  A parent is
    always recorded before its children, so ``parents[i] < i``.
    """

    def __init__(self):
        self.names = [name for name, _, _ in SPAN_TARGETS]
        self.name_ids = array("H")
        self.requests = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = {name: 0 for name, _, _ in COUNT_TARGETS}
        self.counts.update({name: 0 for name in RESULT_COUNTERS})
        self.request = -1   # advanced by the caller before each request
        self._stack = [-1]

    def __len__(self):
        return len(self.name_ids)

    # -- wrappers --------------------------------------------------------

    def _span(self, fn, name_id: int, on_result=None):
        name_ids, requests = self.name_ids, self.requests
        parents = self.parents
        starts, ends, stack = self.starts, self.ends, self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_ids)
            name_ids.append(name_id)
            requests.append(tracer.request)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _result_hooks(self):
        counts = self.counts

        def cosets(reps):
            counts["group.enumerate_cosets.reps"] += len(reps)

        def vanishing(cs):
            counts["nicedomain.vanishing_check.cells"] += cs.cells
            counts["nicedomain.vanishing_check.zero"] += not cs.parts

        def whittaker(parts):
            counts["whitmodel.value_parts.support_hits"] += parts[0].sign != 0

        return {"group.enumerate_cosets": cosets,
                "nicedomain.vanishing_check": vanishing,
                "whitmodel.WhittakerOnH.value_parts": whittaker}

    # -- installation ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Replace every binding of every target inside the package for
        the duration of the block, then put the originals back."""
        modules = package_modules()
        by_name = {mod.__name__: mod for mod in modules}
        hooks = self._result_hooks()
        plan = []  # (original, wrapper, namespaces that may bind it)
        for name_id, (name, modname, path) in enumerate(SPAN_TARGETS):
            module = by_name[f"{PACKAGE}.{modname}"]
            owner, fn = _resolve(module, path)
            plan.append((fn, self._span(fn, name_id, hooks.get(name)),
                         modules if owner is module else [owner]))
        for name, modname, path in COUNT_TARGETS:
            module = by_name[f"{PACKAGE}.{modname}"]
            owner, fn = _resolve(module, path)
            plan.append((fn, self._count(fn, name),
                         modules if owner is module else [owner]))
        patched = []  # (namespace, attribute, original)
        for fn, wrapped, namespaces in plan:
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapped)
                        patched.append((ns, attr, fn))
        try:
            yield self
        finally:
            for owner, attr, fn in reversed(patched):
                setattr(owner, attr, fn)

    # -- output ----------------------------------------------------------

    def write(self, prefix: Path) -> None:
        """Write the spans as ``<prefix>.json`` (names, counts, layout) and
        ``<prefix>.bin`` (the arrays in the order listed in the JSON)."""
        prefix.parent.mkdir(parents=True, exist_ok=True)
        fields = [("name_ids", "H"), ("requests", "i"), ("parents", "i"),
                  ("starts", "d"), ("ends", "d")]
        header = {"names": self.names, "spans": len(self),
                  "fields": [[f, code, getattr(self, f).itemsize]
                             for f, code in fields],
                  "counts": self.counts}
        with open(f"{prefix}.bin", "wb") as fh:
            for f, _ in fields:
                getattr(self, f).tofile(fh)
        with open(f"{prefix}.json", "w") as fh:
            json.dump(header, fh, indent=1, sort_keys=True)


def read_spans(prefix: Path) -> dict:
    """Load what ``Tracer.write`` wrote: the header plus one array per
    field."""
    with open(f"{prefix}.json") as fh:
        header = json.load(fh)
    out = dict(header)
    n = header["spans"]
    with open(f"{prefix}.bin", "rb") as fh:
        for field, code, _ in header["fields"]:
            arr = array(code)
            arr.fromfile(fh, n)
            out[field] = arr
    return out


def self_times(parents, starts, ends) -> list:
    """Self time of every span: its duration minus the part covered by its
    children.  On one thread the children of a span are disjoint and lie
    inside it, so the covered part is the sum of their durations."""
    own = [e - s for s, e in zip(starts, ends)]
    out = list(own)
    for i, parent in enumerate(parents):
        if parent >= 0:
            out[parent] -= own[i]
    return out


def _has_ancestor(name_ids, parents, target: int) -> list:
    """For each span, whether some ancestor has name id ``target``
    (parents are recorded before their children, so one pass suffices)."""
    flag = [False] * len(name_ids)
    for i, parent in enumerate(parents):
        if parent >= 0:
            flag[i] = name_ids[parent] == target or flag[parent]
    return flag


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics: calls and self time per target, self time per
    module, counters, and work-per-value ratios."""
    names = tracer.names
    ids = {name: i for i, name in enumerate(names)}
    name_ids, parents = tracer.name_ids, tracer.parents
    selfs = self_times(parents, tracer.starts, tracer.ends)
    calls = [0] * len(names)
    self_s = [0.0] * len(names)
    for nid, st in zip(name_ids, selfs):
        calls[nid] += 1
        self_s[nid] += st
    out = {}
    for i, name in enumerate(names):
        out[f"{name}.calls"] = (calls[i], "count")
        out[f"{name}.self_s"] = (self_s[i], "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(self_s[i] for i, name in enumerate(names)
                                      if name.split(".")[0] == layer), "s")
    counts = tracer.counts
    out["arith.psi.calls"] = (counts["arith.psi"], "count")
    out["arith.valuation.calls"] = (counts["arith.valuation"], "count")
    out["group.enumerate_cosets.reps"] = (
        counts["group.enumerate_cosets.reps"], "count")

    # nested level calls per value certified by stabilization
    conv = ids["testfn.f_convolution"]
    nested_by_outer: dict = {}
    for nid, parent in zip(name_ids, parents):
        if nid == conv and parent >= 0 and name_ids[parent] == conv:
            nested_by_outer[parent] = nested_by_outer.get(parent, 0) + 1
    out["testfn.f_convolution.levels_per_value"] = (
        _ratio(sum(nested_by_outer.values()), len(nested_by_outer)), "ratio")

    wfcg, iwa = ids["rslocal.W_fcg"], ids["group.iwasawa_UAK"]
    under = _has_ancestor(name_ids, parents, wfcg)
    iwa_under = sum(1 for nid, u in zip(name_ids, under) if u and nid == iwa)
    out["rslocal.W_fcg.iwasawa_per_call"] = (
        _ratio(iwa_under, calls[wfcg]), "ratio")

    checks = calls[ids["nicedomain.vanishing_check"]]
    out["nicedomain.vanishing_check.cells_per_check"] = (
        _ratio(counts["nicedomain.vanishing_check.cells"], checks), "ratio")
    out["nicedomain.vanishing_check.zero_ratio"] = (
        _ratio(counts["nicedomain.vanishing_check.zero"], checks), "ratio")
    out["whitmodel.support_hit_ratio"] = (
        _ratio(counts["whitmodel.value_parts.support_hits"],
               calls[ids["whitmodel.WhittakerOnH.value_parts"]]), "ratio")
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
