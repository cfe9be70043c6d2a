"""The benchmark's three workloads.

Each workload is a closed loop with one client: the runner calls ``job(k)``
for k = 0 .. cycle - 1, one after another in one process, and repeats that
round of jobs.  The inputs of job k are a function of the workload seed and
k only, so every round runs the same jobs on the same inputs.  Job kinds,
layouts, order counts and order profiles are fixed per k, and the seed
draws only the orders' contents, so every run measures the same job mix.

``job`` holds only calls into pickopt and is what the runner times;
``check`` validates its outputs afterwards and returns the names of the
checks that failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

import pickopt as pk
import pickopt.cli

# layout shapes (aisles, blocks, locations per subaisle) whose picking graph
# stays within the walk oracle's bound |E| <= 14; the same list as the test
# suite's ORACLE_SHAPES
ORACLE_SHAPES = [
    (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2),
    (2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 1, 2),
]

# writers are looked up on the package at call time, so that the traced run
# sees the tracer's wrappers
WRITERS = {"lp": "write_lp", "mps": "write_mps", "json": "write_model_json"}


def _rng(*key) -> random.Random:
    return random.Random(":".join(str(part) for part in key))


def _violated(row, model, assignment) -> bool:
    lhs = sum(coef * assignment.get(model.var_name(pos)) for pos, coef in row.coeffs)
    if row.sense == ">=":
        return lhs < row.rhs
    if row.sense == "<=":
        return lhs > row.rhs
    return lhs != row.rhs


class Workload:
    name = ""
    cycle = 1  # jobs in one round; the runner repeats the round
    repeat_seconds = 0.0  # a job runs again within its round until it has taken this long

    def setup(self) -> None:
        """Prepare shared inputs; the runner times it and calls it repeatedly."""

    def job(self, k: int):
        raise NotImplementedError

    def check(self, k: int, out, count) -> list[str]:
        raise NotImplementedError

    def distance(self, k: int, out) -> float:
        raise NotImplementedError


# -- oracle-suite --------------------------------------------------------------


class OracleSuite(Workload):
    """Verification traffic on desk-scale instances over shared graphs.

    The suite is stratified over shape, order count, aisle spacing and
    order profile; the seed draws only the order contents.  Every graph's
    walk space is built during setup, so the exact layer only answers warm
    queries during jobs.
    """

    name = "oracle-suite"

    def __init__(self, seed: int, size: str):
        self.seed = seed
        if size == "full":  # 9 shapes x 1-6 orders x 2 spacings x 3 profiles = 324
            self.strata = [(shape, n_orders, spacing, delta)
                           for delta in (5, 10, 20) for spacing in (1, 2)
                           for n_orders in range(1, 7) for shape in ORACLE_SHAPES]
        else:
            self.strata = [(shape, 1 + i % 3, 1 + i % 2, (5, 10, 20)[i % 3])
                           for i, shape in enumerate(ORACLE_SHAPES)]
        self.cycle = len(self.strata)
        self.suite: list = []

    def setup(self) -> None:
        rng = _rng(self.name, self.seed)
        graphs = {}
        suite = []
        for (na, nb, m), n_orders, spacing, delta in self.strata:
            layout = pk.WarehouseLayout(na, nb, m, 1, spacing)
            if layout not in graphs:
                graphs[layout] = pk.build_graph(layout)
                pk.walk_space(graphs[layout])
            instance = pk.generate_instance(layout, n_orders, delta, seed=rng.randrange(2 ** 31))
            suite.append((instance, graphs[layout]))
        self.suite = suite

    def job(self, k: int):
        instance, graph = self.suite[k]
        exact = pk.solve_exact(instance, graph)
        no_reversal = pk.solve_no_reversal_exact(instance, graph)
        model_g = pk.build_model(instance, graph, "P_G")
        model_f = pk.build_model(instance, graph, "P_F")
        encoded_g = pk.encode_walk_PG(model_g, instance, graph, exact)
        encoded_f = pk.encode_walk_PF(model_f, instance, graph, exact)
        report_g = pk.check_feasible(model_g, encoded_g)
        report_f = pk.check_feasible(model_f, encoded_f)
        optimal_cuts = pk.separate_connectivity(graph, "P_G", encoded_g, instance)
        candidate = self._disconnect(model_g, graph, instance, encoded_g)
        cuts = pk.separate_connectivity(graph, "P_G", candidate, instance)
        rows = [pk.cut_to_row(cut, model_g, graph) for cut in optimal_cuts + cuts]
        heuristic = []
        for batching in (pk.seed_batching, pk.cw2_batching):
            batches = batching(instance, pk.make_oracle_estimator(graph), graph).batches
            heuristic.append(pk.batching_to_solution(instance, graph, batches))
        return dict(instance=instance, graph=graph, exact=exact, no_reversal=no_reversal,
                    reports=(report_g, report_f), optimal_cuts=optimal_cuts,
                    model=model_g, candidate=candidate, cut_rows=rows[len(optimal_cuts):],
                    heuristic=heuristic)

    @staticmethod
    def _disconnect(model, graph, instance, encoded):
        """The optimal P_G encoding with every gamma arc at the origin removed.

        What the origin reached through those arcs is now a component away
        from the origin, so each picker whose walk leaves the origin should
        yield a cut.
        """
        dropped = set()
        for t in range(instance.pickers):
            for u, v, _, _ in graph.reduced_edges:
                if graph.origin in (u, v):
                    for a, b in ((u, v), (v, u)):
                        if model.has_var("g", t, a, b):
                            dropped.add(model.var_name(model.var("g", t, a, b)))
        return pk.VariableAssignment(
            {name: value for name, value in encoded.items() if name not in dropped})

    def check(self, k: int, out, count) -> list[str]:
        instance, graph, exact = out["instance"], out["graph"], out["exact"]
        failed = []
        for label, solution in [("exact", exact), ("no_reversal", out["no_reversal"]),
                                ("seed", out["heuristic"][0]), ("cw2", out["heuristic"][1])]:
            try:
                pk.validate_solution(instance, graph, solution)
            except pk.ValidationError:
                failed.append(f"validate_solution.{label}")
        if out["no_reversal"].total < exact.total:
            failed.append("no_reversal_below_exact")
        if not all(report.satisfied for report in out["reports"]):
            failed.append("encoding_infeasible")
        if out["optimal_cuts"]:
            failed.append("optimal_encoding_cut")
        violated = sum(_violated(row, out["model"], out["candidate"]) for row in out["cut_rows"])
        count("separation.cuts_violated", violated)
        if violated != len(out["cut_rows"]):
            failed.append("cut_not_violated")
        if any(solution.total < exact.total for solution in out["heuristic"]):
            failed.append("heuristic_below_exact")
        return failed

    def distance(self, k: int, out) -> float:
        return sum(solution.total for solution in out["heuristic"])


# -- cli-cold --------------------------------------------------------------------


# fixed per-cycle mix of shapes: the |E| = 14 shape once and the |E| = 13 shape
# twice in 20 jobs, so the slowest 15% of jobs are walk-space bound and p90
# falls inside the |E| = 13 group rather than between two groups
CLI_SHAPES = [
    (1, 1, 1), (2, 1, 2), (1, 2, 2), (3, 1, 2), (3, 1, 1),
    (1, 1, 2), (2, 2, 1), (2, 1, 1), (1, 2, 1), (4, 1, 1),
    (1, 1, 1), (2, 1, 2), (1, 2, 2), (3, 1, 2), (3, 1, 1),
    (1, 1, 2), (2, 2, 1), (2, 1, 1), (1, 2, 1), (2, 1, 2),
]
CLI_SHAPES_TINY = [(1, 1, 1), (1, 2, 1), (2, 1, 1), (2, 1, 2), (2, 2, 1), (1, 1, 2)]


class CliCold(Workload):
    """Per-invocation traffic: generate, build P_G as LP, solve exactly.

    Every ``solve`` builds a new graph, so its walk space is scanned cold.
    The CLI runs with its defaults: no ``--threads`` and no PICKOPT_THREADS.
    """

    name = "cli-cold"
    repeat_seconds = 0.05

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.shapes = 2 * CLI_SHAPES if size == "full" else CLI_SHAPES_TINY
        self.cycle = len(self.shapes)
        self.workdir = workdir

    def _paths(self, k: int) -> tuple[str, str, str]:
        stem = self.workdir / f"job{k}"
        return f"{stem}.json", f"{stem}_pg.lp", f"{stem}_solution.json"

    def job(self, k: int):
        na, nb, m = self.shapes[k]
        # order count, profile and spacing vary with k; the seed draws only
        # the order contents
        n_orders, delta, spacing = 1 + k % 6, (5, 10, 20)[k // 6 % 3], 1 + k // 18 % 2
        instance, model, solution = self._paths(k)
        argvs = [
            ["generate", "--aisles", str(na), "--blocks", str(nb), "--locs", str(m),
             "--aisle-spacing", str(spacing), "--orders", str(n_orders), "--delta", str(delta),
             "--seed", str(_rng(self.name, self.seed, k).randrange(2 ** 31)), "-o", instance],
            ["build", "-i", instance, "-f", "PG", "--format", "lp", "-o", model],
            ["solve", "-i", instance, "--mode", "exact", "-o", solution],
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            return [pickopt.cli.main(argv) for argv in argvs]

    def check(self, k: int, out, count) -> list[str]:
        if any(code != 0 for code in out):
            return ["exit_code"]
        instance_path, _, solution_path = self._paths(k)
        instance = pk.load_instance(instance_path)
        graph = pk.instance_graph(instance)
        try:
            pk.validate_solution(instance, graph, pk.load_solution(solution_path, graph))
        except pk.ValidationError:
            return ["validate_solution"]
        return []

    def distance(self, k: int, out) -> float:
        _, _, solution_path = self._paths(k)
        return json.loads(Path(solution_path).read_text())["total"]


# -- warehouse-scale ---------------------------------------------------------------


# scale -> (layout, orders, pickers, picks); every warehouse instance uses
# order profile 10.  Pickers and picks are the instance size a job aims at:
# the most common picker count and the mean number of picks at that layout
# and order count.
WAREHOUSE_SCALES = {
    "full": {"A": ((10, 2, 15), 20, 5, 60), "B": ((10, 1, 15), 20, 5, 60),
             "C": ((20, 2, 30), 40, 9, 120), "D": ((20, 2, 30), 50, 11, 150)},
    "tiny": {"A": ((3, 2, 3), 6, 2, 18), "B": ((3, 1, 3), 6, 2, 18),
             "C": ((4, 2, 4), 8, 2, 24), "D": ((4, 2, 4), 10, 3, 30)},
}
WAREHOUSE_DELTA = 10
# seeded instances drawn per job, of which the one nearest the target size is kept
WAREHOUSE_CANDIDATES = 32

# (scale, kind, options, format); kind None is a batching job.  A: the
# 10x2x15 layout with 20 orders, B: its 1-block twin (covers P_U1), C:
# 20x2x30 with 40 orders, D: batching on 20x2x30.  Heavy jobs are spread
# through the cycle so that any prefix of it has about the full mix.
WAREHOUSE_CYCLE = [
    ("A", "P_G", (), "lp"),
    ("A", "P_basic", ("basic_cuts",), "mps"),
    ("B", "P_U1", (), "lp"),
    ("A", "P_U2", ("cross_aisle_bound",), "json"),
    ("D", None, (), None),
    ("A", "P_A", ("single_traversing",), "lp"),
    ("A", "P_F", (), "mps"),
    ("C", "P_basic", (), "lp"),
    ("A", "P_U", ("artificial_vertex_reversal",), "json"),
    ("B", "P_G", ("single_traversing",), "mps"),
    ("A", "P_basic", ("subaisle_cuts", "single_traversing"), "lp"),
    ("D", None, (), None),
    ("A", "P_G", ("basic_cuts",), "json"),
    ("A", "P_U2", ("column_inequalities",), "lp"),
    ("B", "P_U1", ("column_inequalities",), "json"),
    ("A", "P_A", ("column_inequalities",), "mps"),
    ("C", "P_U2", ("cross_aisle_bound",), "mps"),
    ("A", "P_G", ("column_inequalities",), "mps"),
    ("A", "P_U", (), "lp"),
    ("B", "P_basic", ("artificial_vertex_reversal",), "json"),
]


class WarehouseScale(Workload):
    """Model export and batching heuristics at realistic warehouse size.

    Every job generates its own instance.  Model size grows with the number
    of pickers, which a random instance draws anew (4 to 6 at 10x2x15 with
    20 orders), so each job's instance seed is chosen, out of
    WAREHOUSE_CANDIDATES seeds the workload seed gives, as the one whose
    instance is nearest its scale's picker and pick counts; a run then
    measures the same amount of work whatever the seed.  The check compares
    each job's output with that of its first round, so exports must be
    deterministic.
    """

    name = "warehouse-scale"
    cycle = len(WAREHOUSE_CYCLE)
    repeat_seconds = 0.1

    def __init__(self, seed: int, size: str):
        self.seed = seed
        self.scales = WAREHOUSE_SCALES[size]
        self.instance_seeds = [self._instance_seed(k) for k in range(self.cycle)]
        self.first_output: dict[int, object] = {}  # job -> digest of its first output

    def _instance_seed(self, k: int) -> int:
        shape, n_orders, pickers, picks = self.scales[WAREHOUSE_CYCLE[k][0]]
        layout = pk.WarehouseLayout(*shape)
        rng = _rng(self.name, self.seed, k)

        def distance_from_target(seed):
            instance = pk.generate_instance(layout, n_orders, WAREHOUSE_DELTA, seed=seed)
            return (abs(instance.pickers - pickers),
                    abs(sum(len(order.picks) for order in instance.orders) - picks))

        return min((rng.randrange(2 ** 31) for _ in range(WAREHOUSE_CANDIDATES)),
                   key=distance_from_target)

    def job(self, k: int):
        scale_key, kind, options, fmt = WAREHOUSE_CYCLE[k]
        shape, n_orders, _, _ = self.scales[scale_key]
        layout = pk.WarehouseLayout(*shape)
        instance = pk.generate_instance(layout, n_orders, WAREHOUSE_DELTA,
                                        seed=self.instance_seeds[k])
        graph = pk.build_graph(layout)
        if kind is None:
            seed = pk.seed_batching(instance, pk.make_s_shape_estimator(graph), graph)
            cw2 = pk.cw2_batching(instance, pk.make_s_shape_estimator(graph), graph)
            return dict(instance=instance, graph=graph, batchings=(seed, cw2))
        model = pk.build_model(instance, graph, kind,
                               pk.ModelOptions(**{name: True for name in options}))
        text = getattr(pk, WRITERS[fmt])(model)
        return dict(model=model, text=text, fmt=fmt)

    def check(self, k: int, out, count) -> list[str]:
        failed = []
        if "batchings" in out:
            for batching in out["batchings"]:
                try:
                    pk.validate_batching(out["instance"], batching)
                except pk.ValidationError:
                    failed.append("validate_batching")
            digest = [batching.batches for batching in out["batchings"]]
        else:
            model, text, fmt = out["model"], out["text"], out["fmt"]
            if fmt == "json" and k not in self.first_output:
                doc = json.loads(text)
                if (len(doc["variables"]), len(doc["constraints"])) != (
                        len(model.variables), len(model.constraints)):
                    failed.append("json_counts")
            digest = hashlib.sha256(text.encode()).hexdigest()
        if self.first_output.setdefault(k, digest) != digest:
            failed.append("output_not_deterministic")
        return failed

    def distance(self, k: int, out) -> float:
        if "batchings" not in out:
            return 0
        graph = out["graph"]
        picks = out["instance"].all_pick_vertices(graph)
        return sum(pk.s_shape_estimate(graph, frozenset().union(*(picks[o] for o in batch)))
                   for batching in out["batchings"] for batch in batching.batches)


def make(name: str, seed: int, size: str, workdir: Path) -> Workload:
    if name == OracleSuite.name:
        return OracleSuite(seed, size)
    if name == CliCold.name:
        return CliCold(seed, size, workdir)
    if name == WarehouseScale.name:
        return WarehouseScale(seed, size)
    raise ValueError(f"unknown workload {name!r}")


NAMES = (OracleSuite.name, CliCold.name, WarehouseScale.name)
