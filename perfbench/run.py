"""Seeded benchmark of pickopt: one closed-loop client per workload.

Run from the root of a checkout::

    python3 perfbench/run.py --workload oracle-suite --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run.  Lines before it give every metric with its unit and
sample count, and the environment the run pinned.  A result file (and, for
traced runs, the span records) is written under ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 3
MIN_ROUNDS = 3
MAX_REPEATS = 8
# about reference_kernel's median time on the 2-vCPU Xeon (2.1 GHz) host the
# bounds were set on; see HostSpeed
REFERENCE_SECONDS = 0.0005
MAX_PRINTED_TRACEBACKS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS")

LAYERS = ("cli", "instance", "layout", "formulations", "model", "encoding",
          "separation", "exact", "sshape", "heuristics")
TIMES = ("jobs_per_s", "job_p50_ms", "job_p90_ms", "setup_s")
KINDS = ("P_basic", "P_A", "P_G", "P_F", "P_U", "P_U1", "P_U2")


def pin_environment() -> dict:
    """Unset PICKOPT_THREADS and cap BLAS/OpenMP threads; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    os.environ.pop("PICKOPT_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))
    return {"nproc": nproc, "os_cpu_count": os.cpu_count(),
            "blas_threads": nproc, "pickopt_threads": None}


def timed_setup(workload, repeats: int) -> list[float]:
    """Seconds per set-up: a fresh interpreter importing pickopt's CLI, as
    each invocation does, then the workload's own preparation."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import pickopt.cli"], check=True, timeout=120)
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


class Loop:
    """Runs jobs, times them and collects check results."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failed_checks: dict[str, int] = {}
        self._counting = False  # checks of traced jobs add to the tracer's counters

    def _count(self, name, value):
        if self._counting:
            self.tracer.counts[name] += value

    def run(self, k: int, trace_id: int | None = None):
        """Job k of the round, traced as job ``trace_id`` when given; returns
        (seconds, output or None when it raised or failed a check)."""
        traced = trace_id is not None
        self.attempted += 1
        start = time.perf_counter()
        try:
            if traced:
                out = self.tracer.run_job(trace_id, self.workload.job, k)
            else:
                out = self.workload.job(k)
            seconds = time.perf_counter() - start
            self._counting = traced
            problems = self.workload.check(k, out, self._count)
        except Exception:
            seconds = time.perf_counter() - start
            if self.failed < MAX_PRINTED_TRACEBACKS:
                traceback.print_exc()
            out, problems = None, ["raised"]
        finally:
            self._counting = False
        if problems:
            self.failed += 1
            for name in problems:
                self.failed_checks[name] = self.failed_checks.get(name, 0) + 1
            print(f"job {k}: failed {', '.join(problems)}", file=sys.stderr)
            out = None
        return seconds, out


def reference_kernel() -> int:
    """Fixed interpreter work that allocates no containers, so that no garbage
    collection of pickopt's heap lands in it."""
    total = 0
    for i in range(3000):
        total += len(str(i)) * (i % 97)
    return total


class HostSpeed:
    """Times ``reference_kernel`` after every job of an untraced run.

    The host lends the benchmark a few cores of a shared machine, and how
    fast they run drifts by 20% and more over tens of seconds as other
    tenants come and go.  The kernel's median time shows how fast the host
    ran during this run: every reported time is scaled by REFERENCE_SECONDS
    over it, so that a slow minute of the host does not read as a slower
    pickopt.  The unscaled times are printed as well.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        start = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        return REFERENCE_SECONDS / statistics.median(self.samples)


def measure(workload, seconds: float) -> dict:
    """Untraced run: rounds of the workload's jobs until ``seconds`` have passed,
    but at least MIN_ROUNDS whole rounds.

    Each job's time is the median of its runs.  A job shorter than the
    workload's ``repeat_seconds`` runs again within its round, up to
    MAX_REPEATS times, so that short jobs get more runs; the rounds spread
    each job's runs over the whole run.
    """
    loop = Loop(workload)
    host = HostSpeed()
    times: list[list[float]] = [[] for _ in range(workload.cycle)]
    distance = 0.0
    rounds = 0
    start = time.perf_counter()
    while True:
        for k in range(workload.cycle):
            if rounds >= MIN_ROUNDS and time.perf_counter() - start >= seconds:
                return {"loop": loop, "job_times": [statistics.median(t) for t in times],
                        "rounds": rounds, "distance": distance, "host": host}
            spent = 0.0
            for repeat in range(MAX_REPEATS):
                dt, out = loop.run(k)
                host.sample()
                times[k].append(dt)
                if rounds == 0 and repeat == 0 and out is not None:
                    distance += workload.distance(k, out)
                spent += dt
                if spent >= workload.repeat_seconds:
                    break
        rounds += 1


def measure_traced(workload, tracer, seconds: float) -> dict:
    """Jobs of the round in turn, each twice, untraced and traced in
    alternating order, until ``seconds``."""
    loop = Loop(workload, tracer)
    plain: list[float] = []
    traced: list[float] = []
    k = 0
    start = time.perf_counter()
    while k == 0 or time.perf_counter() - start < seconds:
        for is_traced in ((False, True) if k % 2 == 0 else (True, False)):
            if is_traced:
                tracer.install()
            else:
                tracer.uninstall()
            dt, _ = loop.run(k % workload.cycle, k if is_traced else None)
            (traced if is_traced else plain).append(dt)
        k += 1
    tracer.uninstall()
    return {"loop": loop, "plain": plain, "traced": traced, "jobs": set(range(k))}


def quantiles(values: list[float]) -> tuple[float, float]:
    deciles = statistics.quantiles(values, n=10)
    return deciles[4], deciles[8]


def end_to_end_metrics(result: dict, setup_times: list[float], scale: float) -> dict:
    """The end-to-end metrics, with every time multiplied by ``scale``."""
    job_times, loop = [scale * t for t in result["job_times"]], result["loop"]
    p50, p90 = quantiles(job_times)
    jobs = len(job_times)
    return {
        "jobs_per_s": (jobs / sum(job_times), "1/s", loop.attempted),
        "job_p50_ms": (1000 * p50, "ms", jobs),
        "job_p90_ms": (1000 * p90, "ms", jobs),
        "setup_s": (scale * statistics.median(setup_times), "s", len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB", 1),
        "passed_ratio": ((loop.attempted - loop.failed) / loop.attempted, "ratio",
                         loop.attempted),
        "heuristic_distance": (result["distance"], "length", jobs),
    }


def per_layer_metrics(result: dict, tracer) -> dict:
    calls = tracer.call_stats()
    counts = tracer.counts

    def n_calls(*names):
        return sum(calls.get(name, (0.0, 0))[1] for name in names)

    def per_call(name):
        total, n = calls.get(name, (0.0, 0))
        return (total / n if n else 0.0, "s", n)

    def ratio(numerator, denominator, unit="count", samples=None):
        n = denominator
        return (numerator / n if n else 0.0, unit, int(n if samples is None else samples))

    builds = n_calls("exact.walkspace_build")
    solves = n_calls("exact.solve_exact", "exact.solve_no_reversal")
    separations = n_calls("separation.separate")
    models = counts["formulations.models"]
    exports = n_calls("model.write_lp", "model.write_mps", "model.write_json")
    heuristics = n_calls("heuristics.seed", "heuristics.cw2")
    estimate_total = calls.get("sshape.estimate", (0.0, 0))[0]

    metrics = {
        "exact.walkspace_build_s": per_call("exact.walkspace_build"),
        "exact.walkspace_vectors_scanned": ratio(counts["exact.walkspace_vectors_scanned"],
                                                 builds),
        "exact.walkspace_vectors_kept": ratio(counts["exact.walkspace_vectors_kept"], builds),
        "exact.walkspace_keep_ratio": ratio(counts["exact.walkspace_vectors_kept"],
                                            counts["exact.walkspace_vectors_scanned"], "ratio",
                                            builds),
        "exact.solve_exact_s": per_call("exact.solve_exact"),
        "exact.solve_no_reversal_s": per_call("exact.solve_no_reversal"),
        "exact.partitions": ratio(counts["exact.partitions"], solves),
        "exact.batching_to_solution_s": per_call("exact.batching_to_solution"),
        "model.check_feasible_s": per_call("model.check_feasible"),
        "model.rows_checked": ratio(counts["model.rows_checked"], n_calls("model.check_feasible")),
        "encoding.encode_s": per_call("encoding.encode"),
        "separation.separate_s": per_call("separation.separate"),
        "separation.cut_to_row_s": per_call("separation.cut_to_row"),
        "separation.cuts": ratio(counts["separation.cuts"], separations),
        "separation.cuts_violated_ratio": ratio(counts["separation.cuts_violated"],
                                                counts["separation.cuts"], "ratio"),
    }
    for kind in KINDS:
        metrics[f"formulations.build_model_s.{kind}"] = per_call(
            f"formulations.build_model.{kind}")
    metrics.update({
        "formulations.vars": ratio(counts["formulations.vars"], models),
        "formulations.rows": ratio(counts["formulations.rows"], models),
        "model.write_lp_s": per_call("model.write_lp"),
        "model.write_mps_s": per_call("model.write_mps"),
        "model.write_json_s": per_call("model.write_json"),
        "model.export_bytes": ratio(counts["model.export_bytes"], exports, "bytes"),
        "heuristics.seed_s": per_call("heuristics.seed"),
        "heuristics.cw2_s": per_call("heuristics.cw2"),
        "heuristics.estimator_calls": ratio(counts["heuristics.estimator_calls"], heuristics),
        "heuristics.estimator_distinct": ratio(counts["heuristics.estimator_distinct"],
                                               heuristics),
        "sshape.estimate_s": ratio(estimate_total, heuristics, "s"),
        "layout.build_graph_s": per_call("layout.build_graph"),
        "instance.generate_s": per_call("instance.generate"),
        "cli.generate_s": per_call("cli.generate"),
        "cli.build_s": per_call("cli.build"),
        "cli.solve_s": per_call("cli.solve"),
    })
    failures = tracer.failures()
    for layer in LAYERS:
        metrics[f"{layer}.failed"] = (failures.get(layer, 0), "count", len(result["traced"]))

    jobs = result["jobs"]
    n_jobs = len(result["traced"])
    self_times = tracer.self_times(jobs)
    for layer in LAYERS + ("bench",):
        metrics[f"{layer}.self_ms"] = (1000 * self_times.get(layer, 0.0) / n_jobs, "ms", n_jobs)
    job_wall = sum(tracer.job_walls(jobs))
    attributed = sum(self_times.values())
    if abs(attributed - job_wall) > 1e-6 * max(1.0, job_wall):
        raise RuntimeError(f"self times {attributed} do not add up to job wall {job_wall}")
    traced, plain = sum(result["traced"]), sum(result["plain"])
    metrics.update({
        "trace.job_ms": (1000 * job_wall / n_jobs, "ms", n_jobs),
        "trace.untraced_job_ms": (1000 * plain / len(result["plain"]), "ms", len(result["plain"])),
        "trace.overhead_ratio": (traced / plain - 1, "ratio", n_jobs),
        "trace.spans_per_job": (tracer.record_count(jobs) / n_jobs, "count", n_jobs),
    })
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs and a single set-up, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "pickopt" / "__init__.py").is_file():
        print(f"error: no pickopt sources under {SRC}", file=sys.stderr)
        return 2
    env = pin_environment()

    import numpy
    import workloads
    from tracing import SETUP_JOB, Tracer

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    env.update(python=platform.python_version(), numpy=numpy.__version__)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        workload = workloads.make(args.workload, args.seed, args.size, workdir)
        repeats = SETUP_REPEATS if args.size == "full" else 1
        if args.trace:
            tracer = Tracer()
            tracer.install()
            tracer.job = SETUP_JOB
            timed_setup(workload, repeats)
            tracer.job = None
            result = measure_traced(workload, tracer, args.seconds)
            metrics = per_layer_metrics(result, tracer)
        else:
            setup_times = timed_setup(workload, repeats)
            result = measure(workload, args.seconds)
            scale = result["host"].scale()
            metrics = end_to_end_metrics(result, setup_times, scale)
            unscaled = end_to_end_metrics(result, setup_times, 1.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    loop = result["loop"]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.jsonl")
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "size": args.size, "environment": env, "attempted": loop.attempted,
        "failed": loop.failed, "failed_checks": loop.failed_checks,
        "job_times_s": result.get("job_times"),
        "host_scale": None if args.trace else scale,
        "unscaled": None if args.trace else {name: unscaled[name][0] for name in TIMES},
        "metrics": {name: {"value": v, "unit": u, "samples": n}
                    for name, (v, u, n) in metrics.items()},
    }, indent=1) + "\n")

    print(f"environment: python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}, "
          f"BLAS/OpenMP threads {env['blas_threads']}, PICKOPT_THREADS unset")
    print(f"jobs attempted {loop.attempted}, failed {loop.failed}, failed_ratio "
          f"{loop.failed / loop.attempted:.6g}, checks failed {loop.failed_checks or 'none'}")
    if "rounds" in result:
        print(f"{result['rounds']} whole rounds of {loop.workload.cycle} jobs; a job's time is "
              f"the median of its runs")
        print(f"host speed: reference kernel median {1000 * REFERENCE_SECONDS / scale:.4g} ms "
              f"over {len(result['host'].samples)} runs; times scaled by {scale:.4g}")
        print("unscaled: " + ", ".join(f"{name} = {unscaled[name][0]:.6g} {unscaled[name][1]}"
                                       for name in TIMES))
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} = {value:.6g} {unit} (samples {samples})")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
