"""In-memory span tracer for the benchmark's traced pass.

`install` wraps the public functions of detlink's modules (rings,
families, groebner, idealops, graphs, checks), plus the polynomial
arithmetic and the fraction-free reduction kernel, and rebinds every name
that refers to them, including the names `checks` and `graphs` import from
other modules and the entries of `checks.CHECKS`. Each call records a span
(name, start, end, parent) in flat arrays; a few boundaries also record
deterministic work counts. Nothing is written until `write` is called at
the end of the pass.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from array import array
from collections import Counter

from detlink import checks, families, graphs, groebner, idealops, rings

TRACED_MODULES = (rings, families, groebner, idealops, graphs, checks)
REBIND_MODULES = TRACED_MODULES + (sys.modules["detlink"],)

# Per-layer metric name -> span names it aggregates (None: every public
# function of the module, so one metric covers all family constructors).
LAYERS = {
    "rings.poly_mul": ("rings.Polynomial.__mul__",),
    "rings.poly_add": ("rings.Polynomial.__add__",),
    "families.build": None,
    "groebner.gb": ("groebner.reduced_groebner_basis",),
    "groebner.reduce": ("groebner._IntReducer.reduce",),
    "groebner.certificate": ("groebner.is_groebner_basis",),
    "groebner.member": ("groebner.member",),
    "groebner.interreduce": ("groebner.interreduce",),
    "groebner.divide": ("groebner.divide",),
    "idealops.intersect": ("idealops.intersect",),
    "idealops.quotient_by_poly": ("idealops.quotient_by_poly",),
    "idealops.quotient": ("idealops.quotient",),
    "idealops.height": ("idealops.height",),
    "graphs.verify_res_int": ("graphs.verify_res_int",),
}

COUNTS = tuple(f"groebner.gb.{key}" for key in (
    "pairs_pushed", "pairs_processed", "discard_coprime", "discard_chain",
    "zero_reductions", "basis_added", "max_coeff_bits")) + (
    "groebner.certificate.pairs", "groebner.member.cached",
    "idealops.intersect.noop", "idealops.quotient.duplicate_parts")


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__qualname__}"


def rebind(old, new) -> None:
    """Point every detlink name that refers to `old`, and every entry of
    checks.CHECKS, at `new`."""
    for mod in REBIND_MODULES:
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)
    for name, fn in list(checks.CHECKS.items()):
        if fn is old:
            checks.CHECKS[name] = new


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []      # [span index, time covered by children]
        self._gb_depth = 0
        self._parts_stack: list[list] = []  # principal colons of each open quotient
        self.paused = False               # set while the tracer does its own work

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                ends[idx] = t1
                dur = t1 - t0
                self_s[nid] += dur - frame[1]
                calls[nid] += 1
                if stack:
                    stack[-1][1] += dur

        return traced

    # -- counting hooks (run inside the span of the function they wrap) -----

    def _count_gb(self, fn):
        sig = inspect.signature(fn)
        counts = self.counts

        @functools.wraps(fn)
        def gb(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            stats = bound.arguments.get("stats")
            if stats is None:
                stats = groebner.GBStats()
                bound.arguments["stats"] = stats
            self._gb_depth += 1
            try:
                return fn(*bound.args, **bound.kwargs)
            finally:
                self._gb_depth -= 1
                counts["groebner.gb.pairs_pushed"] += stats.pairs_pushed
                counts["groebner.gb.pairs_processed"] += stats.pairs_processed
                counts["groebner.gb.discard_coprime"] += stats.discarded_coprime
                counts["groebner.gb.discard_chain"] += stats.discarded_chain
                counts["groebner.gb.zero_reductions"] += stats.zero_reductions
                counts["groebner.gb.basis_added"] += stats.basis_added

        return gb

    def _count_reduce(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def reduce(reducer, p):
            rem = fn(reducer, p)
            if rem and self._gb_depth:
                bits = max(abs(v).bit_length() for v in rem.values())
                if bits > counts["groebner.gb.max_coeff_bits"]:
                    counts["groebner.gb.max_coeff_bits"] = bits
            return rem

        return reduce

    def _count_certificate(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def certificate(polys, order=None, budget=None):
            budget = budget if budget is not None else groebner.Budget()
            before = budget.pairs
            try:
                return fn(polys, order, budget)
            finally:
                counts["groebner.certificate.pairs"] += budget.pairs - before

        return certificate

    def _count_member(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def member(f, I, budget=None):
            if I.has_cached_basis():
                counts["groebner.member.cached"] += 1
            return fn(f, I, budget)

        return member

    def _count_intersect(self, fn, member):
        counts = self.counts

        def noop_check(I, W):
            # W = I ∩ J lies in I, so W == I iff I lies in W.
            self.paused = True
            try:
                if I.has_cached_basis():
                    return I.groebner() == W.groebner()
                return all(member(g, W) for g in I.gens)
            finally:
                self.paused = False

        checked = self.wrap("trace.noop_check", noop_check)

        @functools.wraps(fn)
        def intersect(I, J, budget=None):
            W = fn(I, J, budget)
            if checked(I, W):
                counts["idealops.intersect.noop"] += 1
            return W

        return intersect

    def _count_quotient(self, fn):
        parts_stack = self._parts_stack
        counts = self.counts

        @functools.wraps(fn)
        def quotient(I, J, budget=None):
            parts_stack.append([])
            try:
                return fn(I, J, budget)
            finally:
                parts = parts_stack.pop()
                counts["idealops.quotient.duplicate_parts"] += len(parts) - len(set(parts))

        return quotient

    def _count_quotient_by_poly(self, fn):
        parts_stack = self._parts_stack

        @functools.wraps(fn)
        def quotient_by_poly(I, f, budget=None):
            out = fn(I, f, budget)
            if parts_stack:
                parts_stack[-1].append(out.groebner())
            return out

        return quotient_by_poly

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        public = [val for mod in TRACED_MODULES for attr, val in vars(mod).items()
                  if not attr.startswith("_") and callable(val)
                  and not isinstance(val, type)
                  and getattr(val, "__module__", None) == mod.__name__]
        member = groebner.member
        hooks = {
            groebner.reduced_groebner_basis: self._count_gb,
            groebner.is_groebner_basis: self._count_certificate,
            groebner.member: self._count_member,
            idealops.intersect: lambda fn: self._count_intersect(fn, member),
            idealops.quotient: self._count_quotient,
            idealops.quotient_by_poly: self._count_quotient_by_poly,
        }
        for fn in public:
            hook = hooks.get(fn)
            rebind(fn, self.wrap(_span_name(fn), hook(fn) if hook else fn))

        poly = rings.Polynomial
        for attrs in (("__mul__", "__rmul__"), ("__add__", "__radd__")):
            fn = getattr(poly, attrs[0])
            wrapped = self.wrap(_span_name(fn), fn)
            for attr in attrs:
                setattr(poly, attr, wrapped)
        reduce = groebner._IntReducer.reduce
        groebner._IntReducer.reduce = self.wrap(_span_name(reduce),
                                                self._count_reduce(reduce))

    # -- results ------------------------------------------------------------

    def _layer_ids(self, layer: str) -> list[int]:
        spans = LAYERS[layer]
        if spans is None:
            prefix = layer.split(".", 1)[0] + "."
            spans = [n for n in self.names if n.startswith(prefix)]
        return [self._ids[s] for s in spans if s in self._ids]

    def layer_counts(self) -> dict[str, int]:
        """Deterministic counts only: calls per layer and the work counters."""
        out = {f"{layer}.calls": sum(self.calls[i] for i in self._layer_ids(layer))
               for layer in LAYERS}
        for key in COUNTS:
            out[key] = self.counts[key]
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Counts, self times and ratios, keyed by per-layer metric name."""
        counts = self.layer_counts()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = counts[f"{layer}.calls"]
            out[f"{layer}.self_s"] = sum(self.self_s[i] for i in self._layer_ids(layer))
        for key in COUNTS:
            if key != "groebner.member.cached":
                out[key] = counts[key]
        added = counts["groebner.gb.basis_added"]
        out["groebner.gb.useful_ratio"] = _ratio(
            added, added + counts["groebner.gb.zero_reductions"])
        out["groebner.member.cached_ratio"] = _ratio(
            counts["groebner.member.cached"], counts["groebner.member.calls"])
        intersections = counts["idealops.intersect.calls"]
        out["idealops.intersect.useful_ratio"] = _ratio(
            intersections - counts["idealops.intersect.noop"], intersections)
        return out

    def write(self, path: str) -> None:
        """Write every span as [name, start, end, parent index] rows."""
        rows = [[self.span_name[i], round(self.span_start[i], 7),
                 round(self.span_end[i], 7), self.span_parent[i]]
                for i in range(len(self.span_start))]
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start", "end", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
