"""In-memory span tracing of pickopt's public entry points.

The benchmark never edits the package.  A :class:`Tracer` replaces public
functions of ``pickopt`` (in every ``pickopt`` module namespace that holds
them, so calls between modules are seen too) with wrappers that record a
span per call: name, start, end, parent span and job id.  Distance
estimators, which run up to hundreds of thousands of times per job, are
recorded as one aggregate span per parent that carries the summed duration
and the call count.  Partition enumeration is counted, not timed.

Per-layer self time is computed from the records after the run: a span's
self time is its duration minus the durations of its child records, and a
layer is the part of a span name before the first dot.  The job span
(``bench.job``) is the root of every job, so the self times of one job add
up to its traced wall time.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict

import pickopt.cli  # loads every pickopt module the tracer wraps

SETUP_JOB = -1

# record fields
NAME, JOB, PARENT, START, END, DUR, CALLS, FAILED = range(8)

# (module attribute, span name) of every traced public entry point; the CLI
# entry point and build_model are wrapped separately, see Tracer._wrap_main
# and Tracer._wrap_build_model
ENTRY_POINTS = [
    ("pickopt.instance.generate_instance", "instance.generate"),
    ("pickopt.instance.load_instance", "instance.load"),
    ("pickopt.instance.save_instance", "instance.save"),
    ("pickopt.layout.build_graph", "layout.build_graph"),
    ("pickopt.layout.build_auxiliary_graph", "layout.build_auxiliary_graph"),
    ("pickopt.model.check_feasible", "model.check_feasible"),
    ("pickopt.model.write_lp", "model.write_lp"),
    ("pickopt.model.write_mps", "model.write_mps"),
    ("pickopt.model.write_model_json", "model.write_json"),
    ("pickopt.encoding.encode_walk_PG", "encoding.encode"),
    ("pickopt.encoding.encode_walk_PF", "encoding.encode"),
    ("pickopt.separation.separate_connectivity", "separation.separate"),
    ("pickopt.separation.cut_to_row", "separation.cut_to_row"),
    ("pickopt.exact.solve_exact", "exact.solve_exact"),
    ("pickopt.exact.solve_no_reversal_exact", "exact.solve_no_reversal"),
    ("pickopt.exact.batching_to_solution", "exact.batching_to_solution"),
    ("pickopt.exact.load_solution", "exact.load_solution"),
    ("pickopt.exact.save_solution", "exact.save_solution"),
    ("pickopt.heuristics.seed_batching", "heuristics.seed"),
    ("pickopt.heuristics.cw2_batching", "heuristics.cw2"),
]

ESTIMATOR_FACTORIES = [
    ("pickopt.heuristics.make_s_shape_estimator", "sshape.estimate"),
    ("pickopt.heuristics.make_oracle_estimator", "exact.oracle_estimate"),
]


def _resolve(path: str):
    module_name, attr = path.rsplit(".", 1)
    return sys.modules[module_name], attr


def _pickopt_namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "pickopt" or name.startswith("pickopt."))]


class Tracer:
    """Span records of one run, plus counters measured at the same boundaries."""

    def __init__(self):
        self.records: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.job: int | None = None  # None: calls are not recorded
        self._stack: list[int] = []
        self._aggregates: dict[tuple, int] = {}
        self._patches: list[tuple] = []  # (namespace, attribute, original)
        self._replacements: dict = {}
        self._thread = threading.get_ident()

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        rid = len(self.records)
        self.records.append([name, self.job, parent, time.perf_counter(), 0.0, 0.0, 1, False])
        self._stack.append(rid)
        return rid

    def _close(self, rid: int, failed: bool) -> None:
        rec = self.records[rid]
        rec[END] = time.perf_counter()
        rec[DUR] = rec[END] - rec[START]
        rec[FAILED] = failed
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``; record it if a job is open.

        Only calls on the thread that runs the jobs are recorded: the span
        stack is not shared with worker threads of the program.
        """
        if self.job is None or threading.get_ident() != self._thread:
            return fn(*args, **kwargs)
        rid = self._open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            self._close(rid, True)
            raise
        self._close(rid, False)
        return result

    def aggregate(self, name: str, fn, *args):
        """Like :meth:`span`, merged into one record per (parent, name)."""
        if self.job is None or threading.get_ident() != self._thread:
            return fn(*args)
        parent = self._stack[-1] if self._stack else None
        key = (parent, name, self.job)
        rid = self._aggregates.get(key)
        start = time.perf_counter()
        if rid is None:
            rid = len(self.records)
            self.records.append([name, self.job, parent, start, start, 0.0, 0, False])
            self._aggregates[key] = rid
        self._stack.append(rid)
        rec = self.records[rid]
        try:
            return fn(*args)
        except BaseException:
            rec[FAILED] = True
            raise
        finally:
            end = time.perf_counter()
            rec[END] = end
            rec[DUR] += end - start
            rec[CALLS] += 1
            self._stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        if self.job is not None and threading.get_ident() == self._thread:
            self.counts[name] += value

    def run_job(self, job: int, fn, *args):
        """Run one job under a ``bench.job`` root span."""
        self.job = job
        try:
            return self.span("bench.job", fn, *args)
        finally:
            self.job = None

    # -- instrumentation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every traced entry point wherever pickopt holds a reference."""
        if self._patches:
            return
        if not self._replacements:
            self._replacements = self._make_replacements()
        for namespace in _pickopt_namespaces():
            for attr, value in list(vars(namespace).items()):
                hit = self._replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(namespace, attr, hit[1])
                    self._patches.append((namespace, attr, value))

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patches):
            setattr(namespace, attr, original)
        self._patches.clear()

    def _make_replacements(self) -> dict:
        """id(original) -> (original, wrapper) for every traced entry point."""
        wrappers = [("pickopt.cli.main", self._wrap_main),
                    ("pickopt.formulations.build_model", self._wrap_build_model),
                    ("pickopt.exact.capacity_feasible_partitions", self._wrap_partitions),
                    ("pickopt.exact.WalkSpace", self._walkspace_class)]
        wrappers += [(path, functools.partial(self._wrap, name=name))
                     for path, name in ENTRY_POINTS]
        wrappers += [(path, functools.partial(self._wrap_factory, name=name))
                     for path, name in ESTIMATOR_FACTORIES]
        replacements = {}
        for path, wrap in wrappers:
            module, attr = _resolve(path)
            original = getattr(module, attr)
            replacements[id(original)] = (original, wrap(original))
        return replacements

    def _wrap_main(self, main):
        tracer = self

        @functools.wraps(main)
        def traced_main(argv=None):
            command = argv[0] if argv else "main"
            return tracer.span(f"cli.{command}", main, argv)
        return traced_main

    def _wrap_build_model(self, build_model):
        tracer = self

        @functools.wraps(build_model)
        def traced_build(instance, graph, kind, options=None):
            model = tracer.span(f"formulations.build_model.{kind}", build_model,
                                instance, graph, kind, options)
            tracer.count("formulations.models")
            tracer.count("formulations.vars", len(model.variables))
            tracer.count("formulations.rows", len(model.constraints))
            return model
        return traced_build

    def _wrap(self, fn, name):
        tracer = self
        counters = {
            "model.check_feasible": lambda r: tracer.count("model.rows_checked", r.checked_rows),
            "model.write_lp": lambda r: tracer.count("model.export_bytes", len(r)),
            "model.write_mps": lambda r: tracer.count("model.export_bytes", len(r)),
            "model.write_json": lambda r: tracer.count("model.export_bytes", len(r)),
            "separation.separate": lambda r: tracer.count("separation.cuts", len(r)),
        }
        counter = counters.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if counter is not None:
                counter(result)
            return result
        return traced

    def _wrap_factory(self, factory, name):
        """Estimator factories return callables timed by aggregate spans."""
        tracer = self

        @functools.wraps(factory)
        def traced_factory(graph):
            estimate = factory(graph)
            seen = set()

            def traced_estimate(picks):
                tracer.count("heuristics.estimator_calls")
                if picks not in seen:
                    seen.add(picks)
                    tracer.count("heuristics.estimator_distinct")
                return tracer.aggregate(name, estimate, picks)
            return traced_estimate
        return traced_factory

    def _wrap_partitions(self, enumerate_partitions):
        tracer = self

        @functools.wraps(enumerate_partitions)
        def counted(*args, **kwargs):
            for partition in enumerate_partitions(*args, **kwargs):
                tracer.count("exact.partitions")
                yield partition
        return counted

    def _walkspace_class(self, base):
        tracer = self

        class TracedWalkSpace(base):
            def __init__(self, graph):
                tracer.span("exact.walkspace_build", super().__init__, graph)
                tracer.count("exact.walkspace_vectors_scanned", 3 ** self.n_edges)
                tracer.count("exact.walkspace_vectors_kept", len(self.mult))

        TracedWalkSpace.__name__ = base.__name__
        TracedWalkSpace.__qualname__ = base.__qualname__
        return TracedWalkSpace

    # -- analysis ------------------------------------------------------------

    def self_times(self, jobs: set[int]) -> dict[str, float]:
        """Summed self time per layer over the records of ``jobs``."""
        child = [0.0] * len(self.records)
        for rec in self.records:
            if rec[PARENT] is not None:
                child[rec[PARENT]] += rec[DUR]
        out: dict[str, float] = defaultdict(float)
        for rid, rec in enumerate(self.records):
            if rec[JOB] in jobs:
                out[rec[NAME].split(".", 1)[0]] += rec[DUR] - child[rid]
        return out

    def call_stats(self) -> dict[str, tuple[float, int]]:
        """Summed duration and call count per span name, setup included."""
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for rec in self.records:
            entry = out[rec[NAME]]
            entry[0] += rec[DUR]
            entry[1] += rec[CALLS]
        return {name: (total, calls) for name, (total, calls) in out.items()}

    def failures(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for rec in self.records:
            if rec[FAILED]:
                out[rec[NAME].split(".", 1)[0]] += 1
        return out

    def record_count(self, jobs: set[int]) -> int:
        return sum(1 for rec in self.records if rec[JOB] in jobs)

    def job_walls(self, jobs: set[int]) -> list[float]:
        return [rec[DUR] for rec in self.records
                if rec[NAME] == "bench.job" and rec[JOB] in jobs]

    def write(self, path) -> None:
        """Write every record as one JSON line, start and end in seconds."""
        with open(path, "w") as fh:
            for rid, rec in enumerate(self.records):
                fh.write(json.dumps({
                    "id": rid, "name": rec[NAME], "job": rec[JOB], "parent": rec[PARENT],
                    "start": rec[START], "end": rec[END], "dur": rec[DUR],
                    "calls": rec[CALLS], "failed": rec[FAILED]}) + "\n")
