"""Spans and counters around hyperalg's public functions, installed from outside.

A traced pass wraps the functions of freshly imported hyperalg modules.  A
wrapped call records a span (name, start, end, parent) in memory; a layer's
self time is the time of its spans minus the time their child spans cover.
Other wrappers only count calls and distinct arguments.  Distinct arguments
tell hypergroups apart by table, so two instances with one table count once.
Spans are written out when the pass ends.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

STATEMENT_IDS = ("thm-center", "thm-ct", "thm-strongly", "thm-ns", "prop-s", "prop-nq",
                 "lem-cq", "cor-n", "lem-cen", "lem-qu", "lem-sn", "lem-main1", "lem-com")

# (module, function) -> span name; a span's self time goes to the metric
# SELF_TIME[name].  verify_statement spans are named after the statement.
SPANS = {
    ("core", "validate"): "core.validate",
    ("fileformat", "parse"): "fileformat.parse",
    ("closed", "all_closed_subsets"): "closed.lattice",
    ("quotient", "build_quotient"): "quotient.build",
    ("series", "lower_central_series"): "series.lower_central",
    ("series", "closed_center_series"): "series.center_series",
    ("series", "thin_residue"): "series.thin_residue",
    ("series", "is_solvable"): "series.solvable",
    ("series", "rt_analysis"): "series.rt",
    ("series", "verify_statement"): "stmt",
    ("enumeration", "enumerate_hypergroups"): "enumeration",
    ("enumeration", "canonical_representatives"): "enumeration.canonical",
    ("harness", "run_harness"): "harness.run",
    ("report", "render_machine"): "report.render",
}
SELF_TIME = {name: f"{name}_s" for name in SPANS.values() if name != "stmt"}
SELF_TIME["enumeration"] = "enumeration.s"
SELF_TIME.update({f"stmt.{sid}": f"stmt.{sid}_s" for sid in STATEMENT_IDS})

# (module, function) -> counter; calls only, no span.
COUNTED = {
    ("closed", "generated_closure"): "closed.closure",
    ("closed", "sub_hypergroup"): "closed.sub_hypergroup",
    ("closed", "is_normal"): "closed.is_normal",
    ("series", "commutator_subset"): "series.commutator_subset",
}

COUNTS = (
    "core.validate_calls", "core.validate_distinct_tables", "core.set_product_calls",
    "closed.closed_subsets", "closed.closure_calls", "closed.closure_distinct",
    "closed.sub_hypergroup_calls", "closed.sub_hypergroup_distinct", "closed.is_normal_calls",
    "quotient.build_calls", "quotient.build_distinct",
    "series.rt_chains", "series.rt_truncated", "series.commutator_subset_calls",
    "enumeration.validator_calls",
)

# Every per-layer metric with its unit, in report order.
PER_LAYER = {
    **{m: "count" for m in COUNTS},
    **{m: "s" for m in SELF_TIME.values()},
    "enumeration.survivor_ratio": "ratio",
    "trace.overhead_s": "s",
}


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.distinct: dict[str, set] = {}
        self._table_ids: dict = {}
        self._by_instance: dict[int, int] = {}
        self._pinned: list = []  # keeps ids in _by_instance from being reused
        self._lattices: dict[int, int] = {}
        self._survivors = 0

    # --- installing -----------------------------------------------------------

    def install(self, hg) -> None:
        """Wrap the layer functions in every module of `hg` that binds them."""
        modules = vars(hg).values()
        for (mod, fn), name in SPANS.items():
            self._replace(modules, getattr(hg, mod, None), fn,
                          lambda f, n=name: self._span(f, n))
        for (mod, fn), name in COUNTED.items():
            self._replace(modules, getattr(hg, mod, None), fn,
                          lambda f, n=name: self._count(f, n))
        cls = hg.core.Hypergroup
        cls.set_product = self._count_set_product(cls.set_product)

    @staticmethod
    def _replace(modules, home, attr, make) -> None:
        original = getattr(home, attr, None)
        if original is None:  # the package no longer has this function
            return
        wrapper = make(original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    # --- wrappers -------------------------------------------------------------

    def _table_id(self, h) -> int:
        tid = self._by_instance.get(id(h))
        if tid is None:
            self._pinned.append(h)
            tid = self._table_ids.setdefault((h.order, h.table), len(self._table_ids))
            self._by_instance[id(h)] = tid
        return tid

    def _note(self, name: str, args) -> None:
        """Count a call and remember its distinct argument."""
        self.counts[name + "_calls"] += 1
        if name == "core.validate":
            order, raw = args[0], args[1]
            key = (order, tuple(tuple(row) for row in raw))
        elif name in ("closed.closure", "closed.sub_hypergroup", "quotient.build"):
            key = (self._table_id(args[0]), args[1])
        else:
            return
        self.distinct.setdefault(name, set()).add(key)

    def _after(self, name: str, result) -> None:
        if name == "closed.lattice":
            self._pinned.append(result)
            self._lattices[id(result)] = len(result.masks)
        elif name == "series.rt":
            self.counts["series.rt_chains"] += getattr(result, "chain_count", 0)
            self.counts["series.rt_truncated"] += bool(getattr(result, "chains_truncated", False))
        elif name == "enumeration":
            self._survivors += len(result.survivors)

    def _span(self, fn, name):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter_ns
        counted = name in ("core.validate", "quotient.build")
        after = name in ("closed.lattice", "series.rt", "enumeration")
        statement = name == "stmt"

        def wrapper(*args, **kwargs):
            if counted:
                self._note(name, args)
            i = len(names)
            names.append(f"stmt.{args[1]}" if statement else name)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after:
                self._after(name, result)
            return result

        return wrapper

    def _count(self, fn, name):
        def wrapper(*args, **kwargs):
            self._note(name, args)
            return fn(*args, **kwargs)

        return wrapper

    def _count_set_product(self, fn):
        counts = self.counts

        def set_product(h, p, q):
            counts["core.set_product_calls"] += 1
            return fn(h, p, q)

        return set_product

    # --- results --------------------------------------------------------------

    def self_times(self) -> Counter:
        """Seconds per span name, each span minus its direct children."""
        child = [0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: Counter = Counter()
        for i, name in enumerate(self.names):
            out[name] += (self.ends[i] - self.starts[i] - child[i]) / 1e9
        return out

    def _validator_calls_in_enumeration(self) -> int:
        """validate spans under the enumeration sweep, not under canonicalisation."""
        calls = 0
        for i, name in enumerate(self.names):
            if name != "core.validate":
                continue
            p = self.parents[i]
            while p >= 0 and self.names[p] not in ("enumeration", "enumeration.canonical"):
                p = self.parents[p]
            calls += p >= 0 and self.names[p] == "enumeration"
        return calls

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric except the overhead, which needs an untraced pass."""
        out = {m: 0 for m in PER_LAYER if m != "trace.overhead_s"}
        for name, seconds in self.self_times().items():
            if name in SELF_TIME:
                out[SELF_TIME[name]] = seconds
        for name, n in self.counts.items():
            out[name] = n
        out["core.validate_distinct_tables"] = len(self.distinct.get("core.validate", ()))
        for name in ("closed.closure", "closed.sub_hypergroup", "quotient.build"):
            out[name + "_distinct"] = len(self.distinct.get(name, ()))
        out["closed.closed_subsets"] = sum(self._lattices.values())
        calls = self._validator_calls_in_enumeration()
        out["enumeration.validator_calls"] = calls
        out["enumeration.survivor_ratio"] = self._survivors / calls if calls else 0
        return out

    def write_spans(self, path) -> None:
        """One line per span: name, start and end in ns from the first span, parent."""
        t0 = self.starts[0] if self.starts else 0
        with open(path, "w", encoding="utf-8") as out:
            out.write("name\tstart_ns\tend_ns\tparent\n")
            for i, name in enumerate(self.names):
                out.write(f"{name}\t{self.starts[i] - t0}\t{self.ends[i] - t0}"
                          f"\t{self.parents[i]}\n")
