"""Independent oracles used only by the tests.

These deliberately avoid the package's own code paths: a symmetry-blind
assignment enumerator for batching, a set-partition enumerator for bin
packing, a full 3^|E| scan of walk multiplicity vectors, Bellman-Ford
distances (both over edge lengths this module reads off the layout), small
parsers for our LP and MPS output, reference LP, MPS and JSON writers that
read a model's public views row by row, and a row-by-row evaluator of
model rows in ``Fraction`` arithmetic.  The route oracle and the batching
enumerator price walks through the full scan.  A restriction mask may be
built on the package's walk space or on the scan: the scan checks that
both hold the same rows in the same order.
"""

from __future__ import annotations

import functools
import itertools
import json
import re
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from pickopt import ValidationError, Walk, WarehouseLayout, build_graph


def _covering(space, required, mask=None):
    """Flags of the scanned walks that cover ``required`` from the origin."""
    req = sum(1 << v for v in required)
    feasible = space.ok & ((space.visited & req) == req)
    if mask is not None:
        feasible &= mask
    if not feasible.any():
        raise ValidationError("no feasible walk covers the required locations")
    return feasible


def route_oracle(graph, required, mask=None):
    """Minimum-length closed walk from the origin covering ``required``,
    the lexicographically smallest among equals.

    ``required`` may be empty; the result is then the minimal departure
    walk (cheapest out-and-back from the origin).
    """
    required = frozenset(required)
    for v in required:
        if v >= graph.n_vertices or graph.is_artificial(v):
            raise ValidationError(f"required vertex {v} is not a picking location")
    space = scanned_walk_space(graph)
    feasible = _covering(space, required, mask)
    shortest = feasible & (space.lengths == space.lengths[feasible].min())
    row = space.mult[np.flatnonzero(shortest)[0]]  # scan order is lexicographic
    return Walk(tuple((e, int(m)) for e, m in enumerate(row) if m))


def mask_single_traversal(space, graph, exempt=frozenset()):
    """Walks in which no subaisle outside ``exempt`` is fully traversed twice."""
    bad = np.zeros(len(space.mult), dtype=bool)
    for sub in graph.subaisles:
        if sub.index not in exempt:
            bad |= (space.mult[:, list(sub.edge_ids)] == 2).all(axis=1)
    return ~bad


def mask_no_artificial_uturn(space, graph):
    """Walks that never turn around at an artificial vertex they use for
    nothing else."""
    bad = np.zeros(len(space.mult), dtype=bool)

    def corner(vertex, chain_edge):
        others = [eid for _, eid in graph.adjacency[vertex] if eid != chain_edge]
        here = space.mult[:, chain_edge] == 2
        if others:
            here = here & (space.mult[:, others] == 0).all(axis=1)
        return here

    for sub in graph.subaisles:
        bad |= corner(sub.tail, sub.edge_ids[-1])
        if sub.block >= 1:
            bad |= corner(sub.head, sub.edge_ids[0])
    return ~bad


def blind_solve(instance, graph, mask=None):
    """Minimum total over ALL order-to-picker assignments, no symmetry
    canonicalization anywhere."""
    space = scanned_walk_space(graph)
    picks = instance.all_pick_vertices(graph)
    T = instance.pickers
    cache: dict[frozenset, float] = {}

    def length(req: frozenset):
        val = cache.get(req)
        if val is None:
            val = cache[req] = space.lengths[_covering(space, req, mask)].min().item()
        return val

    best = None
    order_ids = list(instance.order_ids)
    sizes = {o.id: o.size for o in instance.orders}
    for assign in itertools.product(range(T), repeat=len(order_ids)):
        loads = [0] * T
        feasible = True
        for oid, t in zip(order_ids, assign):
            loads[t] += sizes[oid]
            if loads[t] > instance.capacity:
                feasible = False
                break
        if not feasible:
            continue
        total = 0
        for t in range(T):
            req = frozenset().union(
                frozenset(),
                *(picks[oid] for oid, tt in zip(order_ids, assign) if tt == t))
            total += length(req)
        if best is None or total < best:
            best = total
    return best


def depart_loop(t, graph):
    """Out-and-back along the origin's own chain."""
    v = graph.south_of(graph.origin)
    return {f"x_{t}_{graph.origin}_{v}": 1, f"x_{t}_{v}_{graph.origin}": 1, f"y_{t}_{v}": 1}


def subaisle_cycle(t, graph, sub):
    """Full down-and-up traversal of one subaisle, arcs both ways."""
    values = {}
    chain = (sub.head, *sub.locs, sub.tail)
    for u, v in zip(chain, chain[1:]):
        values[f"x_{t}_{u}_{v}"] = 1
        values[f"x_{t}_{v}_{u}"] = 1
    for v in chain:
        values[f"y_{t}_{v}"] = 1
    return values


def every_gamma_cut_holds(graph, instance, assignment):
    """Every reduced-graph connectivity row holds, all vertex sets enumerated."""
    others = [v for v in graph.artificial_vertices if v != graph.origin]
    for t in range(instance.pickers):
        for r in range(2, len(others) + 1):
            for S in itertools.combinations(others, r):
                boundary = [(u, v) if u in S else (v, u) for u, v, _, _ in graph.reduced_edges
                            if (u in S) != (v in S)]
                lhs = sum(assignment.get(f"g_{t}_{u}_{v}") for u, v in boundary)
                for u0 in S:
                    if assignment.get(f"y_{t}_{u0}") == 1 and lhs < 1:
                        return False
    return True


def disconnected_candidate(instance, graph, solution):
    """Integral assignment satisfying every enumerated P_G row whose picker
    supports are cycles at the picked subaisles, detached from the origin."""
    values = {}
    picks = instance.all_pick_vertices(graph)
    for t, orders in enumerate(solution.batching):
        values |= depart_loop(t, graph)
        subs = {graph.subaisle_of(v) for oid in orders for v in picks[oid]}
        for i in sorted(subs):
            sub = graph.subaisles[i]
            values |= subaisle_cycle(t, graph, sub)
            values[f"g_{t}_{sub.head}_{sub.tail}"] = 1
            values[f"g_{t}_{sub.tail}_{sub.head}"] = 1
            for v in sub.locs:
                values[f"a_{t}_{v}"] = 1
                values[f"b_{t}_{v}"] = 1
        for oid in orders:
            values[f"z_{oid}_{t}"] = 1
    return values


def support_connected_to_origin(instance, graph, assignment):
    """Independent certificate: every picker's anchored support vertices
    reach the origin inside the x support."""
    for t in range(instance.pickers):
        adj = {}
        for u, v in graph.edges:
            if assignment.get(f"x_{t}_{u}_{v}") or assignment.get(f"x_{t}_{v}_{u}"):
                adj.setdefault(u, set()).add(v)
                adj.setdefault(v, set()).add(u)
        seen = {graph.origin}
        stack = [graph.origin]
        while stack:
            u = stack.pop()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        for v in adj:
            if assignment.get(f"y_{t}_{v}") == 1 and v not in seen:
                return False
    return True


def scanned_walk_space(graph):
    """Reference walk space by scanning every vector in {0,1,2}^|E|.

    Keeps the even-degree vectors in scan order, flags each support by a
    depth-first search from the origin and computes the three restriction
    masks row by row from their definitions.  Takes seconds at |E| = 14,
    so one scan serves every graph of a shape; the lengths alone depend on
    the spacings.
    """
    return _scanned_space(graph.layout)


def step_lengths(graph):
    """Each edge's length, read off the layout: an edge between two
    artificial locations (numbered first, ``n_aisles`` per cross aisle) is
    a cross-aisle step, every other edge a step along a subaisle."""
    layout = graph.layout
    n_artificial = layout.n_aisles * (layout.n_blocks + 1)
    return [layout.aisle_spacing if max(u, v) < n_artificial else layout.loc_spacing
            for u, v in graph.edges]


@functools.cache
def _scanned_space(layout):
    steps = step_lengths(build_graph(layout))
    lengths = np.array(steps, dtype=np.float64)
    if all(float(x).is_integer() for x in steps):
        lengths = lengths.astype(np.int64)
    scan = _scan(layout.n_aisles, layout.n_blocks, layout.locs_per_subaisle)
    return SimpleNamespace(**vars(scan), lengths=scan.mult.astype(lengths.dtype) @ lengths)


@functools.cache
def _scan(n_aisles, n_blocks, locs_per_subaisle):
    graph = build_graph(WarehouseLayout(n_aisles, n_blocks, locs_per_subaisle))
    m = len(graph.edges)
    inc = np.zeros((m, graph.n_vertices), dtype=np.int16)
    for eid, (u, v) in enumerate(graph.edges):
        inc[eid, u] = 1
        inc[eid, v] = 1

    powers = 3 ** np.arange(m - 1, -1, -1, dtype=np.int64)
    total = 3 ** m
    chunk = 1 << 18
    kept = []
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        digits = ((idx[:, None] // powers) % 3).astype(np.int8)
        parity = (digits & 1).astype(np.int16) @ inc
        even = ~(parity & 1).any(axis=1)
        kept.append(digits[even])
    mult = np.concatenate(kept)

    ok = np.zeros(len(mult), dtype=bool)
    visited = np.zeros(len(mult), dtype=np.int64)
    flags = {}
    for r, row in enumerate(mult):
        support = tuple(e for e in range(m) if row[e])
        if support not in flags:
            adj = {}
            for e in support:
                u, v = graph.edges[e]
                adj.setdefault(u, []).append(v)
                adj.setdefault(v, []).append(u)
            if graph.origin not in adj:
                flags[support] = (False, 0)
            else:
                seen = {graph.origin}
                stack = [graph.origin]
                while stack:
                    u = stack.pop()
                    for v in adj[u]:
                        if v not in seen:
                            seen.add(v)
                            stack.append(v)
                flags[support] = (seen == set(adj), sum(1 << u for u in adj))
        ok[r], visited[r] = flags[support]

    def no_reversal(row):
        return all(len({row[e] for e in sub.edge_ids}) == 1 for sub in graph.subaisles)

    def single_traversal(row):
        return not any(all(row[e] == 2 for e in sub.edge_ids) for sub in graph.subaisles)

    def uturn_at(row, vertex, chain_edge):
        others = [eid for _, eid in graph.adjacency[vertex] if eid != chain_edge]
        return row[chain_edge] == 2 and all(row[e] == 0 for e in others)

    def no_artificial_uturn(row):
        for sub in graph.subaisles:
            if uturn_at(row, sub.tail, sub.edge_ids[-1]):
                return False
            if sub.block >= 1 and uturn_at(row, sub.head, sub.edge_ids[0]):
                return False
        return True

    def mask(rule):
        return np.array([rule(row) for row in mult], dtype=bool)

    return SimpleNamespace(
        mult=mult, ok=ok, visited=visited,
        no_reversal=mask(no_reversal), single_traversal=mask(single_traversal),
        no_artificial_uturn=mask(no_artificial_uturn))


def brute_force_bin_pack(sizes, capacity):
    """Optimal bin count by set-partition enumeration (tiny inputs only)."""
    items = list(sizes)
    if not items:
        return 0
    best = len(items)

    def rec(k, bins):
        nonlocal best
        if len(bins) >= best:
            return
        if k == len(items):
            best = min(best, len(bins))
            return
        for i in range(len(bins)):
            if bins[i] + items[k] <= capacity:
                bins[i] += items[k]
                rec(k + 1, bins)
                bins[i] -= items[k]
        bins.append(items[k])
        rec(k + 1, bins)
        bins.pop()

    rec(0, [])
    return best


def bellman_ford(graph, source):
    """Independent shortest-path distances."""
    inf = float("inf")
    dist = [inf] * graph.n_vertices
    dist[source] = 0
    weighted = list(zip(graph.edges, step_lengths(graph)))
    for _ in range(graph.n_vertices):
        changed = False
        for (u, v), w in weighted:
            if dist[u] + w < dist[v]:
                dist[v] = dist[u] + w
                changed = True
            if dist[v] + w < dist[u]:
                dist[u] = dist[v] + w
                changed = True
        if not changed:
            break
    return dist


def parse_lp(text):
    """Variable names and row names from a CPLEX-LP file."""
    rows = []
    in_rows = False
    for line in text.splitlines():
        stripped = line.strip()
        if stripped == "Subject To":
            in_rows = True
            continue
        if stripped in ("Bounds", "Binaries", "Generals", "End"):
            in_rows = False
            continue
        if in_rows:
            m = re.match(r"([A-Za-z0-9_()]+):", stripped)
            if m:
                rows.append(m.group(1))
    names = set(re.findall(r"[A-Za-z][A-Za-z0-9_]*", text))
    keywords = {"Minimize", "Subject", "To", "Bounds", "Binaries", "Generals", "End", "obj", "inf"}
    variables = {n for n in names if n not in keywords and not n.startswith("obj")}
    return variables, rows


def parse_mps(text):
    """A free-MPS file as plain data: its columns in order, each with
    whether it lies between INTORG and INTEND markers or is declared BV,
    its lower and upper bound (None for none), its objective entry and its
    entries in each row; and its rows as ``(name, sense, rhs)``, sense
    ``L``, ``E`` or ``G``.  Every number is a ``Fraction``.  It reads the
    ROWS, COLUMNS, RHS and BOUNDS sections, and BOUNDS of kind BV, LO and UP.
    """
    rows, columns, section, integral = {}, {}, None, False

    def column(name):
        return columns.setdefault(name, {"integral": integral, "lb": Fraction(0), "ub": None,
                                         "cost": Fraction(0), "rows": {}})

    for line in text.splitlines():
        if not line.startswith(" "):
            section = line.split()[0]
            continue
        fields = line.split()
        if section == "ROWS":
            if fields[0] != "N":
                rows[fields[1]] = [fields[0], Fraction(0)]
        elif section == "COLUMNS":
            if fields[1] == "'MARKER'":
                integral = fields[2] == "'INTORG'"
                continue
            if fields[1] == "COST":
                column(fields[0])["cost"] = Fraction(fields[2])
            else:
                column(fields[0])["rows"][fields[1]] = Fraction(fields[2])
        elif section == "RHS":
            rows[fields[1]][1] = Fraction(fields[2])
        elif section == "BOUNDS":
            if fields[0] == "BV":
                column(fields[2]).update(integral=True, lb=Fraction(0), ub=Fraction(1))
            else:
                column(fields[2])["lb" if fields[0] == "LO" else "ub"] = Fraction(fields[3])
    return columns, [(name, sense, rhs) for name, (sense, rhs) in rows.items()]


def fraction_feasibility(model, values):
    """``check_feasible`` restated with every number a ``Fraction``.

    Reads only the model's data (variables, rows, senses as their text), not
    the package's arithmetic.  Returns every violation as a ``(row, group,
    lhs, sense, rhs)`` tuple, in the order ``check_feasible`` reports them:
    domain and bound violations by variable, then rows by position.  An
    absent variable counts as zero in the rows and is not checked against
    its bounds.
    """
    violations = []
    for v in model.variables:
        if v.name not in values:
            continue
        x = Fraction(values[v.name])
        if v.kind in ("binary", "integer") and x.denominator != 1:
            violations.append((f"domain({v.name})", "domain", x, "=", Fraction(0)))
        if x < Fraction(v.lb):
            violations.append((f"bound({v.name})", "domain", x, ">=", Fraction(v.lb)))
        if v.ub is not None and x > Fraction(v.ub):
            violations.append((f"bound({v.name})", "domain", x, "<=", Fraction(v.ub)))
    for row in model.constraints:
        lhs = Fraction(0)
        for pos, coef in row.coeffs:
            lhs += Fraction(coef) * Fraction(values.get(model.variables[pos].name, 0))
        rhs = Fraction(row.rhs)
        holds = {"<=": lhs <= rhs, ">=": lhs >= rhs, "=": lhs == rhs}[row.sense]
        if not holds:
            violations.append((row.name, row.group, lhs, row.sense, rhs))
    return violations


def fraction_objective(model, values):
    """The objective at ``values``, summed as ``Fraction``s."""
    total = Fraction(0)
    for pos, coef in model.objective.items():
        total += Fraction(coef) * Fraction(values.get(model.variables[pos].name, 0))
    return total


def enumerate_PU1_minimum(instance, graph):
    """Minimum over integral P_U1-feasible points, one picker, enumerated.

    Every subset of the auxiliary edges, the parallel copy of the first
    subaisle edge included, is tried.  Degree equalities determine y;
    connectivity is checked directly, which on integral points is
    equivalent to the exponential cut family.
    """
    assert instance.pickers == 1
    aux = graph.auxiliary()
    s = graph.origin
    tail1 = graph.subaisles[0].tail
    f2 = graph.q_east(s)
    edges = aux.edges
    picked_subs = {graph.subaisle_of(v)
                   for vs in instance.all_pick_vertices(graph).values() for v in vs}

    best = None
    for bits in range(2 ** len(edges)):
        chosen = [e for e in edges if (bits >> e.id) & 1]
        deg = {}
        for e in chosen:
            deg[e.u] = deg.get(e.u, 0) + 1
            deg[e.v] = deg.get(e.v, 0) + 1
        if deg.get(s, 0) != 2:
            continue
        if any(d not in (0, 2) for u, d in deg.items() if u != s):
            continue
        # departure must use a graph movement edge, not the parallel copy
        depart = any(not e.parallel and ({e.u, e.v} == {s, tail1}
                                         or (f2 is not None and {e.u, e.v} == {s, f2}))
                     for e in chosen)
        if not depart:
            continue
        # cover
        ok = True
        for i in picked_subs:
            if not (bits >> aux.e_of_subaisle[i]) & 1:
                ok = False
                break
        if not ok:
            continue
        # connectivity of the whole support, origin inside
        adj = {}
        for e in chosen:
            adj.setdefault(e.u, set()).add(e.v)
            adj.setdefault(e.v, set()).add(e.u)
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in adj.get(u, ()):
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if any(u not in seen for u in adj):
            continue
        total = sum(e.length for e in chosen)
        if best is None or total < best:
            best = total
    return best


def model_to_dict(model) -> dict:
    """The model's JSON document as plain containers, for ``json.dumps``."""
    return {
        "format": "pickopt-model-v1",
        "name": model.name,
        "kind": model.kind,
        "meta": model.meta,
        "lazy_groups": dict(sorted(model.lazy_groups.items())),
        "variables": [
            {"name": v.name, "kind": v.kind, "lb": v.lb, "ub": v.ub}
            for v in model.variables
        ],
        "objective": {model.var_name(pos): coef for pos, coef in sorted(model.objective.items())},
        "constraints": [
            {
                "name": row.name,
                "group": row.group,
                "coeffs": {model.var_name(pos): coef for pos, coef in row.coeffs},
                "sense": row.sense,
                "rhs": row.rhs,
            }
            for row in model.constraints
        ],
    }


def reference_model_json(model) -> str:
    """``write_model_json`` as ``json.dumps`` writes the document."""
    return json.dumps(model_to_dict(model), indent=1) + "\n"


def _lp_number(value) -> str:
    """A number as the LP writer prints it: an integral value as an int,
    any other as the shortest repr of the float nearest to it."""
    exact = Fraction(value)
    return str(exact.numerator) if exact.denominator == 1 else repr(float(exact))


def _lp_lines(prefix: str, parts: list[str]) -> list[str]:
    """``prefix`` and the parts, eight to a line; a continuation line is
    indented by three spaces.  No part is written as ``0``."""
    if len(parts) <= 8:
        return [f"{prefix} {' '.join(parts) or '0'}"]
    return [f"{prefix if k == 0 else '  '} {' '.join(parts[k:k + 8])}"
            for k in range(0, len(parts), 8)]


def reference_lp(model) -> str:
    """``write_lp`` restated row by row from ``model.variables``,
    ``model.constraints`` and ``model.objective`` alone."""
    variables = list(model.variables)
    names = [v.name for v in variables]

    def terms(pairs):
        parts = []
        for pos, coef in pairs:
            c = Fraction(coef)
            magnitude = "" if abs(c) == 1 else _lp_number(abs(c)) + " "
            parts.append(f"{'-' if c < 0 else '+'} {magnitude}{names[pos]}")
        if parts and parts[0].startswith("+ "):
            parts[0] = parts[0][2:]
        return parts

    out = [f"\\ {model.name}", "Minimize"]
    out += _lp_lines(" obj:", terms(sorted(model.objective.items())))
    out.append("Subject To")
    for row in model.constraints:
        lines = _lp_lines(f" {row.name}:", terms(row.coeffs))
        lines[-1] += f" {row.sense} {_lp_number(row.rhs)}"
        out += lines
    bounds = [f" {_lp_number(v.lb)} <= {v.name} <= "
              f"{'+inf' if v.ub is None else _lp_number(v.ub)}"
              for v in variables
              if v.kind != "binary" and (Fraction(v.lb) != 0 or v.ub is not None)]
    if bounds:
        out += ["Bounds"] + bounds
    for title, kind in (("Binaries", "binary"), ("Generals", "integer")):
        of_kind = [v.name for v in variables if v.kind == kind]
        if of_kind:
            out += [title] + _lp_lines(" ", of_kind)
    out.append("End")
    return "\n".join(out) + "\n"


def reference_mps(model) -> str:
    """``write_mps`` restated row by row from ``model.variables``,
    ``model.constraints`` and ``model.objective`` alone: each column's
    objective entry, then its entry in each row in row order, and a name
    padded to 10 characters."""
    variables = list(model.variables)
    rows = list(model.constraints)
    tags = {"<=": "L", "=": "E", ">=": "G"}
    out = [f"NAME          {model.name[:60]}", "ROWS", " N  COST"]
    out += [f" {tags[row.sense]}  {row.name}" for row in rows]
    entries = [[] for _ in variables]
    for pos, coef in sorted(model.objective.items()):
        entries[pos].append(("COST", coef))
    for row in rows:
        for pos, coef in row.coeffs:
            entries[pos].append((row.name, coef))
    out.append("COLUMNS")
    markers, integer = 0, False
    for variable, column in zip(variables, entries):
        if (variable.kind in ("binary", "integer")) != integer:
            integer = not integer
            out.append(f"    MARKER{markers:04d}  'MARKER'                 "
                       f"'{'INTORG' if integer else 'INTEND'}'")
            markers += 1
        out += [f"    {variable.name:<10}  {name:<10}  {_lp_number(coef)}"
                for name, coef in column]
    if integer:
        out.append(f"    MARKER{markers:04d}  'MARKER'                 'INTEND'")
    out.append("RHS")
    out += [f"    RHS         {row.name:<10}  {_lp_number(row.rhs)}"
            for row in rows if Fraction(row.rhs) != 0]
    out.append("BOUNDS")
    for variable in variables:
        if variable.kind == "binary":
            out.append(f" BV BND         {variable.name}")
            continue
        if Fraction(variable.lb) != 0:
            out.append(f" LO BND         {variable.name}  {_lp_number(variable.lb)}")
        if variable.ub is not None:
            out.append(f" UP BND         {variable.name}  {_lp_number(variable.ub)}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"
