"""Spans around calls into qcamaj's public functions.

The tracer wraps functions from outside: it replaces every module
attribute of the loaded qcamaj modules that refers to a traced function,
so calls through `from .x import f` names are caught too.  Nothing in
the package is edited, and uninstall() puts the originals back.

A span records its name, start, end, parent span and request number.
Counts a metric needs (nodes, cells, sweeps) are taken from the call's
arguments and result after the span ends; the time that takes is
charged to the benchmark, not to the enclosing span.
"""

import json
import statistics
import sys
from time import perf_counter

import reference

LAYERS = ("cli", "expr", "truthtable", "network", "synth", "adders",
          "cellsim")

# unit of every per-layer metric summarize() returns
UNITS = {
    "cli.self_ms": "ms",
    "expr.parse_expr.ms": "ms",
    "expr.nodes_per_s": "1/s",
    "expr.share_ratio": "ratio",
    "network.truth_table.ms": "ms",
    "network.truth_table.node_rows_per_s": "1/s",
    "network.verify.ms": "ms",
    "network.cost.ms": "ms",
    "network.format_expr.ms": "ms",
    "network.format_expr.chars": "chars",
    "synth.synthesize.ms": "ms",
    "synth.synthesize.class0.p50_ms": "ms",
    "synth.synthesize.class1.p50_ms": "ms",
    "synth.synthesize.class2.p50_ms": "ms",
    "synth.synthesize.class3.p50_ms": "ms",
    "synth.synthesize.found": "count",
    "synth.synthesize.not_found": "count",
    "adders.compare_adders.ms": "ms",
    "cellsim.build.ms": "ms",
    "cellsim.build.cells": "count",
    "cellsim.build.us_per_cell": "us",
    "cellsim.relax.ms": "ms",
    "cellsim.relax.sweeps": "count",
    "cellsim.relax.cell_updates_per_s": "1/s",
    **{f"{layer}.self_share": "ratio" for layer in LAYERS + ("bench",)},
    "trace.overhead_ratio": "ratio",
}

def _synth_counts(args, kwargs, result):
    spec = args[0]
    budget = args[1] if len(args) > 1 else kwargs.get("budget")
    return {"table": sum(b << k for k, b in enumerate(spec.bits)),
            "default_budget": budget is None or (
                budget.max_gates, budget.max_levels, budget.allow_maj5
            ) == (4, 3, True),
            "found": result is not None}


def _grid_cells(args, kwargs, result):
    return {"cells": len(result.cells)}


def _relax_counts(args, kwargs, result):
    grid = args[0]
    active = sum(1 for c in grid.cells if c.role != "driver")
    return {"sweeps": result.sweeps, "updates": result.sweeps * active}


# (module, attribute, span name, counts taken after the call)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("expr", "parse_expr", "expr.parse_expr",
     lambda a, k, r: {"text": a[0], "nodes": len(r.nodes)}),
    ("truthtable", "parse_minterm_spec", "truthtable.parse_minterm_spec",
     None),
    ("truthtable", "format_minterms", "truthtable.format_minterms", None),
    ("truthtable", "TruthTable.from_minterms",
     "truthtable.TruthTable.from_minterms", None),
    ("network", "truth_table", "network.truth_table",
     lambda a, k, r: {"node_rows": len(a[0].nodes) << a[0].n_vars}),
    ("network", "verify", "network.verify", None),
    ("network", "cost", "network.cost", None),
    ("network", "format_expr", "network.format_expr",
     lambda a, k, r: {"chars": len(r)}),
    ("network", "order_note", "network.order_note", None),
    ("synth", "synthesize", "synth.synthesize", _synth_counts),
    ("synth", "synthesize_all_3var", "synth.synthesize_all_3var", None),
    ("adders", "compare_adders", "adders.compare_adders", None),
    ("adders", "audit_entries", "adders.audit_entries", None),
    ("cellsim", "build_wire", "cellsim.build", _grid_cells),
    ("cellsim", "build_inverter", "cellsim.build", _grid_cells),
    ("cellsim", "build_maj3", "cellsim.build", _grid_cells),
    ("cellsim", "build_maj5", "cellsim.build", _grid_cells),
    ("cellsim", "relax", "cellsim.relax", _relax_counts),
    ("cellsim", "read_logic", "cellsim.read_logic", None),
)


class Span:
    __slots__ = ("name", "layer", "parent", "request", "start", "end",
                 "after", "counts", "child")

    def __init__(self, name, parent, request):
        self.name = name
        self.layer = name.split(".", 1)[0]
        self.parent = parent
        self.request = request
        self.counts = None
        self.after = 0.0     # time spent taking counts, after `end`
        self.child = 0.0     # time covered by child spans (and their counts)

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._undo = []

    def _wrap(self, fn, name, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.request)
            spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, return_value)
                span.after = perf_counter() - span.end
            return return_value

        return traced

    def install(self):
        modules = {k: v for k, v in sys.modules.items()
                   if k == "qcamaj" or k.startswith("qcamaj.")}
        for mod, attr, name, counter in TARGETS:
            owner = modules["qcamaj." + mod]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, classmethod(
                    self._wrap(orig.__func__, name, counter)))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            traced = self._wrap(orig, name, counter)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is orig:
                        setattr(module, key, traced)
                        self._undo.append((module, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()


def _mean_ms(spans):
    return 1000.0 * statistics.fmean(s.seconds for s in spans) if spans else 0.0


def _rate(spans, key):
    busy = sum(s.seconds for s in spans)
    return sum(s.counts[key] for s in spans) / busy if busy else 0.0


def summarize(spans, wall_s, min_gates):
    """Per-layer table rows and per_layer metrics from finished spans.

    wall_s is the wall time of the traced rounds; the layers' self times
    plus the `bench` row add up to it.
    """
    for s in spans:
        if s.parent is not None:
            s.parent.child += s.seconds + s.after
    table = {layer: {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0}
             for layer in LAYERS}
    by_name = {}
    for s in spans:
        row = table[s.layer]
        row["calls"] += 1
        if s.parent is None or s.parent.layer != s.layer:
            row["busy_ms"] += 1000.0 * s.seconds
        row["self_ms"] += 1000.0 * (s.seconds - s.child)
        by_name.setdefault(s.name, []).append(s)
    # outside every span's self time: input generation, answer checks,
    # output capture and the tracer's own count taking
    bench_ms = 1000.0 * wall_s - sum(row["self_ms"] for row in table.values())
    table["bench"] = {"calls": 0, "busy_ms": bench_ms, "self_ms": bench_ms}

    def named(name):
        return by_name.get(name, [])

    m = {}
    mains = named("cli.main")
    m["cli.self_ms"] = (1000.0 * statistics.fmean(s.seconds - s.child
                                                  for s in mains)
                        if mains else 0.0)
    parses = named("expr.parse_expr")
    m["expr.parse_expr.ms"] = _mean_ms(parses)
    m["expr.nodes_per_s"] = _rate(parses, "nodes")
    written = sum(reference.occurrences(s.counts["text"]) for s in parses)
    m["expr.share_ratio"] = (sum(s.counts["nodes"] for s in parses) / written
                             if written else 0.0)
    tts = named("network.truth_table")
    m["network.truth_table.ms"] = _mean_ms(tts)
    m["network.truth_table.node_rows_per_s"] = _rate(tts, "node_rows")
    for fn in ("verify", "cost", "format_expr"):
        m[f"network.{fn}.ms"] = _mean_ms(named(f"network.{fn}"))
    fmts = named("network.format_expr")
    m["network.format_expr.chars"] = (
        statistics.fmean(s.counts["chars"] for s in fmts) if fmts else 0.0)
    synths = named("synth.synthesize")
    m["synth.synthesize.ms"] = _mean_ms(synths)
    for c in range(4):
        times = [s.seconds for s in synths
                 if s.counts["default_budget"]
                 and min_gates[s.counts["table"]] == c]
        m[f"synth.synthesize.class{c}.p50_ms"] = (
            1000.0 * statistics.median(times) if times else 0.0)
    m["synth.synthesize.found"] = sum(s.counts["found"] for s in synths)
    m["synth.synthesize.not_found"] = len(synths) - m["synth.synthesize.found"]
    m["adders.compare_adders.ms"] = _mean_ms(named("adders.compare_adders"))
    builds = named("cellsim.build")
    m["cellsim.build.ms"] = _mean_ms(builds)
    cells = sum(s.counts["cells"] for s in builds)
    m["cellsim.build.cells"] = cells / len(builds) if builds else 0.0
    m["cellsim.build.us_per_cell"] = (
        1e6 * sum(s.seconds for s in builds) / cells if cells else 0.0)
    relaxes = named("cellsim.relax")
    m["cellsim.relax.ms"] = _mean_ms(relaxes)
    m["cellsim.relax.sweeps"] = (
        statistics.fmean(s.counts["sweeps"] for s in relaxes)
        if relaxes else 0.0)
    m["cellsim.relax.cell_updates_per_s"] = _rate(relaxes, "updates")
    for layer, row in table.items():
        m[f"{layer}.self_share"] = row["self_ms"] / (1000.0 * wall_s)
    return table, m


def dump(path, spans):
    """Write the raw spans as JSON lists: name, request, parent index,
    start and end in seconds from the first span."""
    index = {id(s): i for i, s in enumerate(spans)}
    t0 = spans[0].start if spans else 0.0
    rows = [[s.name, s.request,
             index[id(s.parent)] if s.parent is not None else None,
             s.start - t0, s.end - t0] for s in spans]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"fields": ["name", "request", "parent",
                                           "start_s", "end_s"],
                                "spans": rows}))
