"""Per-layer tracing for one CLI job, installed from outside the library.

``install()`` wraps public functions of the ``tilegraphs`` modules and
rebinds each wrapped name in every ``tilegraphs`` module that holds it, so a
call through ``from .graph import compose`` is traced like one through
``graph.compose``.  Every wrapped call becomes a span (name, start, end,
parent) kept in flat arrays; ``Tracer.summary()`` folds the spans into self
time per layer metric, where a span's self time is its duration minus the
durations of its direct children.  The root span is the ``main(argv)`` call
itself, so the self times of one job sum to its traced run time.

``edge_condition`` is the one function counted without a span when the
skeleton calls it: it runs 2 * V**2 times per skeleton build, and a span per
call would mostly measure the tracer.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from collections import defaultdict

ROOT = "cli.self_s"

# (module, function, time metric, call counter). Functions left unwrapped
# (run_axiom_suite, simplicity_report, count_blocks, find_breaking_cycle,
# ...) add their self time to the nearest wrapped caller.
SPANS = [
    ("serialize", "load_json", "serialize.load_s", None),
    ("serialize", "basic_data_from_dict", "serialize.load_s", None),
    ("serialize", "prw_from_dict", "serialize.load_s", None),
    ("serialize", "dumps", "serialize.emit_s", None),
    ("serialize", "basic_data_to_dict", "serialize.emit_s", None),
    ("serialize", "vertex_to_dict", "serialize.emit_s", None),
    ("serialize", "report_to_dict", "serialize.emit_s", None),
    ("serialize", "census_to_rows", "serialize.emit_s", None),
    ("serialize", "census_to_csv", "serialize.emit_s", None),
    ("graph", "to_dot", "serialize.emit_s", None),
    ("data", "enumerate_vertices", "data.vertices_s", None),
    ("data", "import_prw", "data.import_s", None),
    ("data", "prw_vertex_labellings", "data.prw_oracle_s", None),
    ("graph", "build_skeleton", "graph.skeleton_s", None),
    ("graph", "enumerate_paths", "graph.enumerate_s", None),
    ("graph", "all_paths", "graph.enumerate_s", None),
    ("graph", "compose", "graph.compose_s", "graph.compose_calls"),
    ("graph", "factorize", "graph.factorize_s", "graph.factorize_calls"),
    ("lattice", "translate_union", "lattice.translate_union_s",
     "lattice.translate_union_calls"),
    ("checks", "brute_force_paths", "checks.brute_force_s", None),
    ("checks", "check_unique_factorisation", "checks.unique_factorisation_s", None),
    ("checks", "check_associativity", "checks.associativity_s", None),
    ("checks", "check_vertex_count", "checks.counts_s", None),
    ("checks", "check_degree_counts", "checks.counts_s", None),
    ("checks", "check_commuting_squares", "checks.counts_s", None),
    ("dynamics", "aperiodicity_verdict", "dynamics.certificate_s", None),
    ("dynamics", "strong_connectivity", "dynamics.connectivity_s", None),
    ("dynamics", "periodicity_witness_search", "dynamics.witness_s",
     "dynamics.witness_searches"),
    ("shifts", "entropy_sequence", "shifts.census_s", None),
]


def _edges_kept(sk) -> int:
    return len(sk.blue) + len(sk.red)


# Counters read off a wrapped function's result.
RESULT_COUNTERS = {
    "build_skeleton": ("graph.edges_kept", _edges_kept),
    "enumerate_paths": ("graph.paths", len),
    "brute_force_paths": ("checks.brute_force_paths", len),
    "periodicity_witness_search": ("dynamics.witnesses_found",
                                   lambda w: w is not None),
}

TIME_METRICS = sorted({m for _, _, m, _ in SPANS} | {ROOT, "cli.oracle_s"})
COUNTERS = sorted(
    {c for *_, c in SPANS if c}
    | {c for c, _ in RESULT_COUNTERS.values()}
    | {"graph.edge_tests", "cli.oracle_edge_tests"}
)


class Tracer:
    """Spans and counters of one job, held in memory until ``write``."""

    def __init__(self):
        self.labels: list[str] = []  # per name id: the wrapped function
        self.metrics: list[str] = []  # per name id: the metric it is charged to
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, fn, metric: str, calls: str | None = None, result=None):
        """``fn`` with a span charged to ``metric`` around every call."""
        name_id = len(self.labels)
        self.labels.append(f"{fn.__module__}.{fn.__qualname__}")
        self.metrics.append(metric)
        clock = time.perf_counter
        stack, counts = self._stack, self.counts
        span_names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            if calls is not None:
                counts[calls] += 1
            idx = len(starts)
            span_names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if result is not None:
                counts[result[0]] += result[1](out)
            return out

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn, counter: str):
        """``fn`` with a bare call counter and no span."""
        counts = self.counts

        def traced(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict:
        """Self time per metric and the counters, over all recorded spans."""
        n = len(self.span_start)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        self_s = {m: 0.0 for m in TIME_METRICS}
        for i in range(n):
            self_s[self.metrics[self.span_name[i]]] += dur[i] - child[i]
        counts = {c: 0 for c in COUNTERS}
        counts.update(self.counts)
        return {"self_s": self_s, "counts": counts, "spans": n}

    def write(self, path: str, title: str) -> None:
        """Spans as gzip'd tab-separated lines under a ``# title`` line:
        id, parent, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(f"# {title}\nid\tparent\tname\tstart\tend\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t"
                    f"{self.labels[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )


def _rebind(original, replacement, only_in: str | None = None) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("tilegraphs") or mod is None:
            continue
        if only_in is not None and mod_name != f"tilegraphs.{only_in}":
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install() -> Tracer:
    """Wrap the library's public functions; call after importing the CLI."""
    import tilegraphs.cli  # noqa: F401  (loads every module to patch)
    from tilegraphs import graph

    tracer = Tracer()
    for mod_name, fn_name, metric, calls in SPANS:
        fn = getattr(sys.modules[f"tilegraphs.{mod_name}"], fn_name)
        wrapped = tracer.wrap(fn, metric, calls, RESULT_COUNTERS.get(fn_name))
        _rebind(fn, wrapped)
    # The skeleton's edge tests are counted only; the import command's
    # pairwise oracle in cli gets spans of its own.
    edge = graph.edge_condition
    _rebind(edge, tracer.counted(edge, "graph.edge_tests"), only_in="graph")
    _rebind(
        edge,
        tracer.wrap(edge, "cli.oracle_s", "cli.oracle_edge_tests"),
        only_in="cli",
    )
    return tracer
