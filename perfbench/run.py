#!/usr/bin/env python3
"""End-to-end benchmark of topoMPC with per-layer attribution.

One closed-loop client in one process sends each operation only after
the previous one has finished, on fat-tree(8x8): 64 compute nodes,
leaf links of bandwidth 2, uplinks of bandwidth 4.  Four workloads,
of which ``BENCHMARK.json`` gates ``serve-warm`` and ``cc-converge``
(the other two are run by hand, see ``record.json``):

* ``serve-cold``  -- a mixed query stream through the stateless
  ``repro.run`` / ``repro.run_plan`` (no cache survives a query);
* ``serve-warm``  -- the same stream and seed through one
  ``EngineSession`` (artifact and plan caches hit);
* ``cc-converge`` -- hash-to-min connected components to convergence
  (``repro.run_components``) on a pool of 2.5k-edge G(n, m) graphs;
* ``bulk-tasks``  -- one-shot ``repro.run`` of set intersection,
  cartesian product, sorting and equijoin on 10^5-10^6 tuples.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload serve-warm --seed 1 \\
        --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seconds 55

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` gives the per-layer metrics: it runs every operation on
two copies of the workload, one untraced and one traced, alternating
which goes first, both with the metrics registry on, and checks that
the two agree on every simulated cost and exact count.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it is the full record (host, seed, sample counts, layer
table).  ``--workload all`` runs every workload in both modes, each in
its own process.

Every operation runs with its verifier on; an operation that raises or
fails its verifier is counted in ``failed`` and never skipped.  The
program under test is imported from ``src/`` next to this directory,
never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("serve-cold", "serve-warm", "cc-converge", "bulk-tasks")

#: Set-up is measured this many times, each in a fresh interpreter
#: (``import repro`` included), spread evenly over the measured run so
#: the samples see the same host phases as the operations, and
#: reported as the median.
SETUP_SAMPLES = 9

#: Serve stream: relation size of every task input and plan relation.
SERVE_ROWS = 200
SERVE_TASKS = (
    "set-intersection",
    "cartesian-product",
    "sorting",
    "equijoin",
    "groupby-aggregate",
)
SERVE_PLACEMENTS = ("zipf", "uniform", "proportional", "zipf")

#: cc-converge graph size.  A 10k-edge run takes 1.2-2 s, longer than
#: the host's fast phases, so even its best run moves with the host; at
#: 2.5k edges a run takes about 0.4 s with the same 15-23 supersteps.
CC_EDGES = 2_500
CC_PLACEMENTS = ("zipf", "uniform")
#: Graphs per cc-converge run: eight average out how many supersteps a
#: single random graph happens to need, and each recurs about ten times.
CC_GRAPHS = 8

#: bulk-tasks: (task, |R|, |S|).  Group-by stays out: its 20-bit
#: payload packing rejects inputs this large by design.
BULK_TASKS = (
    ("set-intersection", 100_000, 200_000),
    ("cartesian-product", 500_000, 500_000),
    ("sorting", 1_000_000, 0),
    ("equijoin", 100_000, 100_000),
)

#: Report fields that legitimately differ between two runs of the same
#: operation: wall clock and the metrics-registry digest.
VOLATILE_KEYS = ("wall_time_s", "metrics")

#: Registry counter families summed into the exact per-layer counts.
COUNTERS = {
    "sim.rounds": "repro_rounds_total",
    "sim.delivered_elements": "repro_delivered_elements_total",
    "sim.compactions": "repro_storage_compactions_total",
    "graphs.supersteps": "repro_supersteps_total",
    "artifact_hits": "repro_artifact_cache_hits_total",
    "artifact_misses": "repro_artifact_cache_misses_total",
    "plan_hits": "repro_plan_cache_hits_total",
    "plan_misses": "repro_plan_cache_misses_total",
}

#: Layers whose self time the traced pass reports, in table order.
LAYERS = (
    "plan.compile",
    "plan.execute",
    "engine.self",
    "graphs.driver",
    "sim.round_compute",
    "sim.group",
    "sim.deliver",
    "sim.charge",
    "bound",
    "verify",
    "unattributed",
    "other",
)

#: Span category -> layer.  The benchmark's own spans use ``bench.*``;
#: the rest are the categories the program emits.
CATEGORY_LAYER = {
    "bench.op": "unattributed",
    "bench.compile": "plan.compile",
    "bench.execute": "plan.execute",
    "plan": "plan.execute",
    "stage": "plan.execute",
    "engine": "engine.self",
    "superstep": "graphs.driver",
    "round": "sim.round_compute",
    "bound": "bound",
    "verify": "verify",
}
PHASES = (("t_group_s", "sim.group"), ("t_deliver_s", "sim.deliver"),
          ("t_charge_s", "sim.charge"))


def import_repro():
    """Import the program from this checkout's ``src/``, or fail."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"perfbench: no program to measure: {SRC}/repro is missing; "
            "run from the root of a full checkout"
        )
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    return repro


def fat_tree(repro):
    return repro.two_level(
        [8] * 8,
        leaf_bandwidth=2.0,
        uplink_bandwidth=4.0,
        name="fat-tree(8x8)",
    )


# ---------------------------------------------------------------------- #
# workloads
# ---------------------------------------------------------------------- #


class Op:
    """One operation of the closed loop.

    ``run()`` is the untraced call through the public one-call API;
    ``run_traced(span)`` makes the same call with the benchmark's own
    spans around the layer functions it calls.  ``api`` names the
    per-operation root span and ``kind`` the latency class.  ``key``
    names the repeating operation it is an instance of: operations with
    one key do the same work on the same input and differ only in the
    protocol seed, so their fastest run is the operation's cost in the
    host's fastest phase (see :func:`latency_summary`).
    """

    def __init__(self, api, kind, key, run, run_traced=None):
        self.api = api
        self.kind = kind
        self.key = key
        self.run = run
        self.run_traced = run_traced or (lambda span: run())


class Serve:
    """The mixed query stream, cold (stateless) or warm (one session).

    Every fourth query is a plan (chain-3, star-2, chain-4 in
    rotation); the others rotate five tasks over four placements.
    """

    window = 12  # three plans and nine tasks: every task, every shape

    def __init__(self, repro, seed, *, warm):
        from repro.plan import (
            chain_catalog,
            chain_query,
            star_catalog,
            star_query,
        )

        self.repro = repro
        self.warm = warm
        self.tree = fat_tree(repro)
        base = seed * 1000
        self.pairs = []
        for offset, policy in enumerate(SERVE_PLACEMENTS):
            self.pairs.append(
                {
                    size: repro.random_distribution(
                        self.tree,
                        r_size=SERVE_ROWS,
                        s_size=size,
                        policy=policy,
                        seed=base + offset,
                    )
                    for size in (SERVE_ROWS, 2 * SERVE_ROWS)
                }
            )
        self.catalog = chain_catalog(
            self.tree, num_relations=4, rows=SERVE_ROWS, seed=base
        )
        self.catalog.update(
            star_catalog(
                self.tree, num_satellites=2, rows=SERVE_ROWS, seed=base
            )
        )
        self.queries = (chain_query(3), star_query(2), chain_query(4))
        self.session = None

    def start(self):
        """Fresh per-pass state: a new session on the warm path."""
        if self.warm:
            self.session = self.repro.EngineSession(
                self.tree, catalog=self.catalog
            )

    def op(self, index):
        if index % 4 == 3:
            return self._plan_op(index)
        count = index - (index + 1) // 4  # tasks before this query
        task = SERVE_TASKS[count % len(SERVE_TASKS)]
        placement = count % len(SERVE_PLACEMENTS)
        pair = self.pairs[placement]
        key = f"{task}@{placement}"
        # cartesian product takes |R| = |S|; the other tasks |S| = 2|R|
        size = SERVE_ROWS if task == "cartesian-product" else 2 * SERVE_ROWS
        dist = pair[size]
        if self.warm:
            session = self.session
            return Op("EngineSession.run", "task", key,
                      lambda: session.run(task, dist, seed=index))
        tree = self.tree
        return Op("repro.run", "task", key,
                  lambda: self.repro.run(task, tree, dist, seed=index))

    def _plan_op(self, index):
        from repro.plan import execute_plan, optimize

        repro, tree, catalog = self.repro, self.tree, self.catalog
        warm = self.warm
        slot = (index // 4) % len(self.queries)
        query = self.queries[slot]
        session = self.session if warm else None

        def run():
            if warm:
                return session.run_plan(query, seed=index)
            return repro.run_plan(query, tree, catalog, seed=index)

        def run_traced(span):
            # run_plan's body with compile timed from outside: the same
            # artifact scope, then optimize and execute_plan.
            cache = session.artifact_cache if warm else repro.ArtifactCache()
            plan_cache = session.plan_cache if warm else None
            with repro.use_artifacts(cache):
                with span("repro.plan.optimize", category="bench.compile"):
                    physical = optimize(query, tree, catalog, cache=plan_cache)
                with span("execute_plan", category="bench.execute"):
                    return execute_plan(physical, tree, catalog, seed=index)

        api = "EngineSession.run_plan" if warm else "repro.run_plan"
        return Op(api, "plan", f"plan{slot}", run, run_traced)


class Components:
    """Connected components to convergence on G(n, m) graphs.

    A pool of ``CC_GRAPHS`` graphs, each with its own graph seed and
    placements alternating zipf and uniform, is generated at set-up;
    runs cycle through the pool, each with its own protocol seed.
    """

    window = CC_GRAPHS

    def __init__(self, repro, seed):
        self.repro = repro
        self.tree = fat_tree(repro)
        self.graphs = [
            repro.random_graph_distribution(
                self.tree,
                num_edges=CC_EDGES,
                policy=CC_PLACEMENTS[slot % len(CC_PLACEMENTS)],
                seed=seed * 1000 + slot,
            )
            for slot in range(CC_GRAPHS)
        ]

    def start(self):
        pass

    def op(self, index):
        repro, tree = self.repro, self.tree
        slot = index % CC_GRAPHS
        policy = CC_PLACEMENTS[slot % len(CC_PLACEMENTS)]
        graph = self.graphs[slot]

        def run():
            report = repro.run_components(
                tree, graph, seed=index, placement=policy
            )
            if not report.converged:
                raise RuntimeError(f"components run {index} did not converge")
            return report

        return Op("repro.run_components", "graph", f"graph{slot}", run)


class Bulk:
    """One-shot runs of the paper's three tasks and equijoin, large."""

    window = len(BULK_TASKS)

    def __init__(self, repro, seed):
        self.repro = repro
        self.tree = fat_tree(repro)
        self.inputs = [
            repro.random_distribution(
                self.tree,
                r_size=r_size,
                s_size=s_size,
                policy="zipf",
                seed=seed * 1000 + offset,
            )
            for offset, (_task, r_size, s_size) in enumerate(BULK_TASKS)
        ]

    def start(self):
        pass

    def op(self, index):
        position = index % len(BULK_TASKS)
        task = BULK_TASKS[position][0]
        repro, tree, dist = self.repro, self.tree, self.inputs[position]
        return Op("repro.run", task, task,
                  lambda: repro.run(task, tree, dist, seed=index))


def build(repro, name, seed):
    if name == "serve-cold":
        return Serve(repro, seed, warm=False)
    if name == "serve-warm":
        return Serve(repro, seed, warm=True)
    if name == "cc-converge":
        return Components(repro, seed)
    return Bulk(repro, seed)


# ---------------------------------------------------------------------- #
# measurement
# ---------------------------------------------------------------------- #


def self_times(events, layers):
    """Add each span's self time to its layer: duration minus the part
    its direct children cover.  Round spans give their measured
    group/deliver/charge phases to those layers and keep the rest as
    protocol compute."""
    children = {}
    stack = []
    for event in sorted(events, key=lambda e: (e.start, e.depth)):
        while stack and stack[-1].depth >= event.depth:
            stack.pop()
        if stack:
            parent = id(stack[-1])
            children[parent] = children.get(parent, 0.0) + event.duration
        stack.append(event)
    for event in events:
        category = event.attrs.get("category")
        layer = CATEGORY_LAYER.get(category, "other")
        own = event.duration - children.get(id(event), 0.0)
        if category == "round":
            for attr, phase in PHASES:
                spent = event.attrs.get(attr, 0.0)
                layers[phase] += spent
                own -= spent
        layers[layer] += own


class Pass:
    """One closed-loop pass over ops ``0, 1, ...`` of a workload:
    latencies, failures, costs and, with ``collect``, exact counters
    from a registry of its own."""

    def __init__(self, repro, workload, *, traced=False, collect=False):
        self.repro = repro
        self.workload = workload
        self.traced = traced
        self.registry = repro.obs.MetricsRegistry() if collect else None
        self.latencies = {}  # key -> [seconds]
        self.kinds = {}  # key -> kind
        self.completed = []  # key of every completed op, in order
        self.busy = 0.0
        self.attempted = 0
        self.failed = 0
        self.outcomes = []  # (cost, rounds) per op, None on failure
        self.window_reports = []
        self.window_counts = None
        self.layers = dict.fromkeys(LAYERS, 0.0)
        workload.start()

    def step(self, index):
        """Run op ``index``; ops must be stepped in order."""
        repro = self.repro
        op = self.workload.op(index)
        report = None
        registry_scope = (
            repro.obs.use_registry(self.registry)
            if self.registry is not None
            else nullcontext()
        )
        tracer_scope = repro.tracing() if self.traced else nullcontext()
        with registry_scope, tracer_scope as tracer:
            started = time.perf_counter()
            try:
                if self.traced:
                    with tracer.span(op.api, category="bench.op"):
                        report = op.run_traced(tracer.span)
                else:
                    report = op.run()
            except Exception as exc:  # counted, never skipped
                print(f"perfbench: op {index} ({op.api} {op.kind}) "
                      f"failed: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
            elapsed = time.perf_counter() - started
        if self.traced:
            if tracer.dropped:
                raise RuntimeError(f"tracer dropped {tracer.dropped} spans")
            self_times(tracer.events, self.layers)
        self.busy += elapsed
        self.attempted += 1
        if report is None:
            self.failed += 1
            self.outcomes.append(None)
        else:
            self.latencies.setdefault(op.key, []).append(elapsed)
            self.kinds[op.key] = op.kind
            self.completed.append(op.key)
            self.outcomes.append((report.cost, report.rounds))
        if self.attempted <= self.workload.window:
            self.window_reports.append(report)
            if self.attempted == self.workload.window and self.registry:
                self.window_counts = self.counts()

    def counts(self):
        counters = self.registry.snapshot()["counters"]
        return {
            name: sum(counters.get(family, {}).values())
            for name, family in COUNTERS.items()
        }


def run_for(passes, seconds, between=None):
    """Step ``passes`` through the same ops until together they have
    been busy ``seconds`` (and have run at least the window).  With
    two passes the order alternates per op, so warm-up and slow
    phases of the host fall on both alike.  ``between(progress)`` is
    called after every op with the busy share of ``seconds`` so far."""
    window = passes[0].workload.window
    index = 0
    while index < window or sum(p.busy for p in passes) < seconds:
        for side in passes if index % 2 == 0 else passes[::-1]:
            side.step(index)
        index += 1
        if between is not None:
            between(sum(p.busy for p in passes) / seconds)


def strip(report):
    """A report as plain data without its volatile fields."""

    def scrub(value):
        if isinstance(value, dict):
            return {k: scrub(v) for k, v in value.items()
                    if k not in VOLATILE_KEYS}
        if isinstance(value, (list, tuple)):
            return [scrub(v) for v in value]
        if hasattr(value, "tolist"):
            return value.tolist()
        return value

    return None if report is None else scrub(asdict(report))


def model_cost(reports):
    return float(sum(r.cost for r in reports if r is not None))


def latency_summary(measured):
    """Throughput and latency of a pass from each op's best run.

    A shared host's speed swings by up to 2x over seconds to tens of
    seconds as neighbours come and go, so a plain median moves with the
    share of the run spent in slow phases.  Each op key recurs many
    times in a run; its fastest run is the op's cost in the fastest
    phase the run saw, which moves much less.  ``qps`` is the pass's
    op mix at those costs (ops over the sum of their best seconds);
    ``p50`` is the geometric mean over kinds of the median over each
    kind's keys of their best latency.  Keys recur equally often by
    construction; counting each key once keeps the median from jumping
    between two keys as the op count changes parity.  Per-kind medians
    of every run and the overall p90 (when at least ten samples lie
    beyond it) are kept for the record."""
    if not measured.completed:
        raise SystemExit("perfbench: every operation failed")
    best = {key: min(values) for key, values in measured.latencies.items()}
    qps = len(measured.completed) / sum(best[k] for k in measured.completed)
    kinds = {}
    for key, kind in measured.kinds.items():
        kinds.setdefault(kind, []).append(key)
    table = {}
    for kind, keys in sorted(kinds.items()):
        runs = [v for key in keys for v in measured.latencies[key]]
        table[kind] = {
            "best_p50_ms": statistics.median(best[k] for k in keys) * 1e3,
            "p50_ms": statistics.median(runs) * 1e3,
            "keys": len(keys),
            "samples": len(runs),
        }
    p50 = math.exp(statistics.fmean(
        math.log(k["best_p50_ms"]) for k in table.values()))
    every = sorted(v for values in measured.latencies.values()
                   for v in values)
    p90 = None
    if len(every) >= 100:
        p90 = statistics.quantiles(every, n=10)[-1] * 1e3
    return qps, p50, table, p90, len(every)


def peak_rss_mb():
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def host_record():
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def measure_setup(name, seed):
    """Seconds from workload start, ``import repro`` included, to the
    first operation ready; measured in this (fresh) process."""
    started = time.perf_counter()
    repro = import_repro()
    build(repro, name, seed).start()
    return time.perf_counter() - started


def setup_probe(name, seed):
    """One set-up in a fresh interpreter; its seconds."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-probe",
         "--workload", name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(repro, name, seed, seconds):
    """``--trace 0``: the untraced pass and the user-visible metrics."""
    workload = build(repro, name, seed)
    measured = Pass(repro, workload)
    setup_samples = []

    def probe(progress):
        while (len(setup_samples) < SETUP_SAMPLES
               and progress >= len(setup_samples) / SETUP_SAMPLES):
            setup_samples.append(setup_probe(name, seed))

    run_for([measured], seconds, between=probe)
    probe(1.0)
    correct = measured.failed == 0
    checks = {}
    if isinstance(workload, Serve):
        # The twin path must answer the window byte for byte alike.
        twin = Pass(repro, Serve(repro, seed, warm=not workload.warm))
        for index in range(workload.window):
            twin.step(index)
        same = [strip(a) == strip(b) for a, b in
                zip(measured.window_reports, twin.window_reports)]
        checks["twin_identical"] = all(same) and twin.failed == 0
        checks["twin_model_cost"] = model_cost(twin.window_reports)
        correct = correct and checks["twin_identical"] and (
            checks["twin_model_cost"] == model_cost(measured.window_reports))
    qps, p50, kinds, p90, samples = latency_summary(measured)
    metrics = {
        "setup_s": metric(statistics.median(setup_samples), "s"),
        "qps": metric(qps, "1/s"),
        "latency_p50_ms": metric(p50, "ms"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    record = {
        "workload": name, "seed": seed, "trace": 0,
        "host": host_record(),
        "busy_s": measured.busy,
        "qps_all_runs": len(measured.completed) / measured.busy,
        "latency_samples": samples,
        "latency_by_kind": kinds,
        "latency_p90_ms": p90,
        "setup_samples_s": setup_samples,
        "model_cost_window": model_cost(measured.window_reports),
        "failed_share": measured.failed / measured.attempted,
        "checks": checks,
    }
    rows = [(key, m["value"], m["unit"]) for key, m in metrics.items()]
    for kind, k in kinds.items():
        rows.append((f"{kind} best p50 ({k['keys']} keys)",
                     k["best_p50_ms"], "ms"))
        rows.append((f"{kind} p50 ({k['samples']} samples)",
                     k["p50_ms"], "ms"))
    rows.append(("qps over all runs", record["qps_all_runs"], "1/s"))
    if p90 is not None:
        rows.append((f"latency_p90_ms ({samples} samples)", p90, "ms"))
    rows += [("model_cost (window)", record["model_cost_window"], "cost"),
             ("failed_share", record["failed_share"], "share")]
    print_table(f"{name} seed {seed}: end to end", rows)
    return correct, measured, metrics, record


def per_layer(repro, name, seed, seconds):
    """``--trace 1``: the same operations untraced and traced, op by op
    on two copies of the workload; per-layer self times from the traced
    copy.  Both copies collect the exact counters."""
    plain = Pass(repro, build(repro, name, seed), collect=True)
    traced = Pass(repro, build(repro, name, seed), traced=True, collect=True)
    run_for([plain, traced], seconds)
    counts = traced.counts()
    checks = {
        "outcomes_equal": plain.outcomes == traced.outcomes,
        "window_counts_equal": plain.window_counts == traced.window_counts,
        "counts_equal": plain.counts() == counts,
        "model_cost_equal": (model_cost(plain.window_reports)
                             == model_cost(traced.window_reports)),
    }
    correct = all(checks.values()) and plain.failed == traced.failed == 0
    ops = traced.attempted
    window = traced.window_counts

    def ratio(hits, misses):
        total = counts[hits] + counts[misses]
        return counts[hits] / total if total else 0.0

    metrics = {
        f"{layer}_s": metric(traced.layers[layer] / ops, "s/op")
        for layer in LAYERS if layer not in ("unattributed", "other")
    }
    metrics.update({
        "plan.cache_hit_ratio": metric(
            ratio("plan_hits", "plan_misses"), "ratio"),
        "topology.artifact_hit_ratio": metric(
            ratio("artifact_hits", "artifact_misses"), "ratio"),
        "model_cost": metric(model_cost(traced.window_reports), "cost"),
    })
    for key in ("graphs.supersteps", "sim.rounds", "sim.delivered_elements",
                "sim.compactions"):
        metrics[key] = metric(window[key], "count")
    metrics["trace.unattributed_share"] = metric(
        traced.layers["unattributed"] / traced.busy, "share")
    metrics["trace.overhead"] = metric(traced.busy / plain.busy - 1, "ratio")
    record = {
        "workload": name, "seed": seed, "trace": 1,
        "host": host_record(),
        "ops": ops,
        "busy_s": {"untraced": plain.busy, "traced": traced.busy},
        "layers_s": traced.layers,
        "counts_window": window,
        "counts_pass": counts,
        "checks": checks,
    }
    rows = [
        (f"{layer} ({100 * spent / traced.busy:.1f}% of wall)",
         spent / ops * 1e3, "ms/op")
        for layer, spent in traced.layers.items()
    ]
    rows += [(key, m["value"], m["unit"]) for key, m in metrics.items()
             if not key.endswith("_s")]
    print_table(f"{name} seed {seed}: layers over {ops} ops", rows)
    return correct, traced, metrics, record


def print_table(title, rows):
    print(title)
    width = max(len(label) for label, _, _ in rows)
    for label, value, unit in rows:
        print(f"  {label:<{width}}  {value:>14.6g}  {unit}")


def run_all(seed, seconds):
    """Every workload, untraced then traced, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    model_costs = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, os.path.abspath(__file__),
                 "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600, check=True,
            )
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-2]))
            result = json.loads(lines[-1])
            merged["correct"] = merged["correct"] and result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                merged["metrics"][f"{name}.{key}"] = value
            if trace:
                model_costs[name] = result["metrics"]["model_cost"]["value"]
    if model_costs["serve-cold"] != model_costs["serve-warm"]:
        print("perfbench: serve-cold and serve-warm model_cost differ",
              file=sys.stderr)
        merged["correct"] = False
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(measure_setup(args.workload, args.seed))
        return 0
    if args.workload == "all":
        import_repro()  # fail fast outside a checkout
        print(json.dumps(run_all(args.seed, args.seconds)))
        return 0
    repro = import_repro()
    measure = per_layer if args.trace else end_to_end
    correct, result, metrics, record = measure(
        repro, args.workload, args.seed, args.seconds)
    print(json.dumps(record))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
