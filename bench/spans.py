"""Spans around the program's public functions, recorded from outside it.

A traced round replaces module attributes with timing wrappers at the
places the program's callers look them up (``calibration.sample``,
``DETECTORS[id]``, ``sweep.run_cell`` ...), runs the round, and puts every
attribute back.  Spans are kept in memory as (name, layer, start, end,
parent); a layer's self time is its spans' time minus the time of their
child spans.  Nothing inside ``src/`` is edited, so a wrapper only sees a
call that crosses a module boundary through an attribute lookup.
"""
from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import Counter, defaultdict

import numpy as np

# the order in which the layer report lists layers
LAYERS = ("cli", "sweep", "calibration", "risk", "oracle", "pool",
          "models", "graph", "detectors", "bench")


def _edge_count(graph):
    # popcount of the packed rows; Graph.total_edges() would cache degrees
    # on the graph and so change the cost of the detector that runs next
    return int(np.bitwise_count(graph.packed_rows).sum()) // 2


class Tracer:
    """Records spans and counts while its patches are installed."""

    def __init__(self):
        self.spans = []      # [name, layer, start, end, parent, outermost]
        self.counts = Counter()
        self.missing = []    # attributes a patch could not find
        self._stack = []
        self._active = Counter()
        self._undo = []

    # ---------------------------------------------------------- spans

    def begin(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        outermost = self._active[name] == 0
        self._active[name] += 1
        self.spans.append([name, layer, time.perf_counter(), None, parent,
                           outermost])
        self._stack.append(len(self.spans) - 1)

    def end(self):
        span = self.spans[self._stack.pop()]
        span[3] = time.perf_counter()
        self._active[span[0]] -= 1

    # -------------------------------------------------------- patches

    def _swap(self, owner, attr, make):
        is_dict = isinstance(owner, dict)
        if (attr not in owner) if is_dict else not hasattr(owner, attr):
            where = "dict" if is_dict else owner.__name__
            self.missing.append(f"{where}.{attr}")
            return
        original = owner[attr] if is_dict else getattr(owner, attr)
        replacement = make(original)
        if is_dict:
            owner[attr] = replacement
            self._undo.append(lambda: owner.__setitem__(attr, original))
        else:
            setattr(owner, attr, replacement)
            self._undo.append(lambda: setattr(owner, attr, original))

    def wrap(self, owner, attr, name, layer, after=None):
        """Time every call of owner.attr as a span; then
        after(counts, args, result) when given."""
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                self.begin(name, layer)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end()
                if after is not None:
                    after(self.counts, args, result)
                return result
            return traced
        self._swap(owner, attr, make)

    def wrap_generator(self, owner, attr, name, layer, after):
        """Time each step of a generator function; after(counts, item)."""
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    self.begin(name, layer)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self.end()
                    after(self.counts, item)
                    yield item
            return traced
        self._swap(owner, attr, make)

    def wrap_pool(self, owner, name):
        """Count executors made through owner.ProcessPoolExecutor and time
        each one from creation to shutdown, in the parent process."""
        tracer = self

        def make(base):
            class TracedPool(base):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    tracer.begin(name, "pool")

                def shutdown(self, *args, **kwargs):
                    try:
                        super().shutdown(*args, **kwargs)
                    finally:
                        tracer.end()
            return TracedPool
        self._swap(owner, "ProcessPoolExecutor", make)

    def restore(self):
        while self._undo:
            self._undo.pop()()

    # -------------------------------------------------------- summary

    def self_times(self):
        """Self seconds per layer."""
        child = [0.0] * len(self.spans)
        for name, layer, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, layer, t0, t1, parent, _) in enumerate(self.spans):
            out[layer] += (t1 - t0) - child[i]
        return out

    def by_name(self):
        """name -> (outermost seconds, calls, per-call seconds)."""
        total = defaultdict(float)
        durations = defaultdict(list)
        for name, layer, t0, t1, parent, outermost in self.spans:
            durations[name].append(t1 - t0)
            if outermost:
                total[name] += t1 - t0
        return {k: (total[k], len(v), v) for k, v in durations.items()}


def install(tracer, *, spans=True):
    """Patch the program's module attributes into the tracer.

    With spans=False only the executor counters go in: the parallel round
    that counts pools runs its detector calls in worker processes, which a
    wrapper in the parent cannot see.
    """
    from subgraph_sentinel import (calibration, cli, models, oracle, risk,
                                   sweep)
    from subgraph_sentinel.detectors import densest, scan, spectral
    from subgraph_sentinel.detectors.base import DETECTORS

    tracer.wrap_pool(calibration, "calibration.pool")
    tracer.wrap_pool(risk, "risk.pool")
    if not spans:
        return

    def drawn(counts, args, result):
        graph = result[0] if isinstance(result, tuple) else result
        counts["models.edges_drawn"] += _edge_count(graph)

    for owner in (calibration, risk):
        tracer.wrap(owner, "sample", "models.sample", "models", drawn)
    tracer.wrap(cli, "sample_with_witness", "models.sample", "models", drawn)
    tracer.wrap(models, "Graph", "graph.pack", "graph")

    def written(counts, args, result):
        counts["graph.bytes_written"] += len(result)

    def read(counts, args, result):
        counts["graph.bytes_read"] += os.path.getsize(args[0])

    tracer.wrap(cli, "format_graph", "graph.write", "graph", written)
    tracer.wrap(cli, "read_graph", "graph.read", "graph", read)

    for det in sorted(DETECTORS):
        tracer.wrap(DETECTORS, det, f"detectors.{det}", "detectors")
    tracer.wrap(densest, "maximum_flow", "detectors.densest.flow",
                "detectors")
    tracer.wrap(spectral, "sdp_dual_bound", "detectors.spectral.dual_bound",
                "detectors")

    def enumerated(counts, item):
        counts["detectors.subsets.enumerated"] += len(item[1])

    for owner in (scan, oracle):
        tracer.wrap_generator(owner, "iter_subset_edge_counts",
                              "detectors.subsets.enumerate", "detectors",
                              enumerated)

    for owner, attr in ((calibration, "calibrate"),
                        (calibration, "bootstrap_calibrate"),
                        (sweep, "calibrate"), (cli, "calibrate"),
                        (cli, "bootstrap_calibrate")):
        tracer.wrap(owner, attr, "calibration", "calibration")
    for owner in (risk, sweep, cli, oracle):
        tracer.wrap(owner, "estimate_risk", "risk", "risk")
    tracer.wrap(oracle, "lr_oracle_risk", "oracle.lr_oracle_risk", "oracle")
    tracer.wrap(oracle, "lr_statistic", "oracle.lr_statistic", "oracle")
    tracer.wrap(sweep, "run_cell", "sweep.run_cell", "sweep")
    tracer.wrap(cli, "phase_sweep", "sweep.phase_sweep", "sweep")
    tracer.wrap(cli, "main", "cli.main", "cli")
    if tracer.missing:
        print("trace: not found, left untraced: " + ", ".join(tracer.missing),
              file=sys.stderr)


def _quantile_ms(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1000.0 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tracer, pool_tracer, detector_ids):
    """The per-layer metrics of one traced round, by benchmark metric name.

    Pool counts and seconds come from pool_tracer, which watched the round
    that ran with worker processes; everything else from tracer.
    """
    names = tracer.by_name()
    pools = pool_tracer.by_name()
    selfs = tracer.self_times()
    c = tracer.counts

    def seconds(name, source=names):
        return source.get(name, (0.0, 0, []))[0]

    def calls(name, source=names):
        return source.get(name, (0.0, 0, []))[1]

    def per_call(name):
        return names.get(name, (0.0, 0, []))[2]

    m = {
        "models.sample_s": (seconds("models.sample"), "s"),
        "models.sample_calls": (calls("models.sample"), "count"),
        "models.sample_ms_p50": (_quantile_ms(per_call("models.sample"), 0.5),
                                 "ms"),
        "models.edges_drawn": (c["models.edges_drawn"], "count"),
        "graph.pack_s": (seconds("graph.pack"), "s"),
        "graph.write_s": (seconds("graph.write"), "s"),
        "graph.read_s": (seconds("graph.read"), "s"),
        "graph.bytes_written": (c["graph.bytes_written"], "bytes"),
        "graph.bytes_read": (c["graph.bytes_read"], "bytes"),
    }
    for det in detector_ids:
        key = f"detectors.{det}"
        m[f"{key}.s"] = (seconds(key), "s")
        m[f"{key}.calls"] = (calls(key), "count")
        m[f"{key}.ms_p50"] = (_quantile_ms(per_call(key), 0.5), "ms")
        m[f"{key}.ms_p99"] = (_quantile_ms(per_call(key), 0.99), "ms")
    m.update({
        "detectors.densest.flow_solves": (calls("detectors.densest.flow"),
                                          "count"),
        "detectors.densest.flow_s": (seconds("detectors.densest.flow"), "s"),
        "detectors.spectral.dual_bounds": (
            calls("detectors.spectral.dual_bound"), "count"),
        "detectors.spectral.dual_bound_s": (
            seconds("detectors.spectral.dual_bound"), "s"),
        "detectors.subsets.enumerated": (c["detectors.subsets.enumerated"],
                                         "count"),
        "detectors.subsets.enumerate_s": (
            seconds("detectors.subsets.enumerate"), "s"),
    })
    for layer in ("calibration", "risk"):
        m[f"{layer}.s"] = (seconds(layer), "s")
        m[f"{layer}.self_s"] = (selfs.get(layer, 0.0), "s")
        m[f"{layer}.pools_started"] = (calls(f"{layer}.pool", pools), "count")
        m[f"{layer}.pool_s"] = (seconds(f"{layer}.pool", pools), "s")
    m.update({
        "oracle.lr_statistic_s": (seconds("oracle.lr_statistic"), "s"),
        "oracle.lr_statistic_calls": (calls("oracle.lr_statistic"), "count"),
        "sweep.run_cell_s": (seconds("sweep.run_cell"), "s"),
        "sweep.self_s": (selfs.get("sweep", 0.0), "s"),
        "cli.commands": (calls("cli.main"), "count"),
        "cli.command_s": (seconds("cli.main"), "s"),
    })
    return m
