"""Command-line front end.

Subcommands: generate | build | solve | separate | report.  ``main(argv)``
returns the exit code, never raises ``SystemExit``: 0 success (and
``--help``), 2 usage error or validation problem (bad input, or a file that
cannot be read or written), 3 desk-scale resource bound.  Repeated calls in
one process share one parser, built on the first call.
Exact solves run serially in one thread.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import sys
import time
from dataclasses import fields
from pathlib import Path

from .errors import OracleSizeError, ValidationError
from .exact import (batching_to_solution, save_solution, solve_exact,
                    solve_no_reversal_exact)
from .formulations import ALL_KINDS, ModelOptions, build_model
from .heuristics import cw2_batching, seed_batching
from .instance import (WarehouseLayout, generate_instance, instance_from_dict,
                       instance_graph, instance_to_dict, load_instance,
                       read_json, save_instance)
from .model import VariableAssignment, export_model, lp_terms
from .separation import cut_to_row, separate_connectivity

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RESOURCE = 3

_KIND_ALIASES = {kind.replace("_", "").upper(): kind for kind in ALL_KINDS}
_KIND_ALIASES["BASIC"] = "P_basic"


def _parse_kind(text: str) -> str:
    key = text.replace("_", "").replace("-", "").upper()
    kind = _KIND_ALIASES.get(key)
    if kind is None:
        raise ValidationError(
            f"unknown formulation {text!r}; choose from {', '.join(ALL_KINDS)}")
    return kind


def cmd_generate(args) -> int:
    layout = WarehouseLayout(
        n_aisles=args.aisles, n_blocks=args.blocks, locs_per_subaisle=args.locs,
        loc_spacing=args.loc_spacing, aisle_spacing=args.aisle_spacing)
    instance = generate_instance(layout, args.orders, args.delta, args.seed,
                                 capacity=args.capacity)
    save_instance(instance, args.output)
    print(f"wrote {args.output}: {len(instance.orders)} orders, "
          f"capacity {instance.capacity}, pickers {instance.pickers}")
    return EXIT_OK


def cmd_build(args) -> int:
    instance = load_instance(args.instance)
    graph = instance_graph(instance)
    kind = _parse_kind(args.formulation)
    options = ModelOptions(**{f.name: getattr(args, f.name) for f in fields(ModelOptions)})
    model = build_model(instance, graph, kind, options)
    model.meta["instance"] = instance_to_dict(instance)

    export_model(model, args.format, args.output)

    print(f"wrote {args.output} ({kind}, {args.format})")
    print("variables:")
    for family, count in sorted(model.variable_counts().items()):
        print(f"  {family}: {count}")
    print("constraint groups:")
    for group, count in sorted(model.group_counts().items()):
        lazy = "  (lazy)" if group in model.lazy_groups else ""
        print(f"  {group}: {count}{lazy}")
    print(f"lazy groups: {len(model.lazy_groups)}")
    return EXIT_OK


def _report_row(instance_path, method, ub, lb, seconds):
    gap = None
    if lb is not None and ub:
        gap = 100.0 * (float(ub) - float(lb)) / float(ub)
    return {
        "instance": Path(instance_path).stem,
        "method": method,
        "ub": ub,
        "lb": lb if lb is not None else "",
        "gap_percent": f"{gap:.1f}" if gap is not None else "",
        "wall_time_s": f"{seconds:.3f}",
    }


REPORT_FIELDS = ["instance", "method", "ub", "lb", "gap_percent", "wall_time_s"]


def cmd_solve(args) -> int:
    if args.report and Path(args.report).exists():
        _read_report(args.report)  # append only to a report CSV; refuse it before solving
    instance = load_instance(args.instance)
    graph = instance_graph(instance)
    start = time.perf_counter()
    if args.mode == "exact":
        solution = solve_exact(instance, graph)
        lb = solution.total
    elif args.mode == "no-reversal-exact":
        solution = solve_no_reversal_exact(instance, graph)
        lb = solution.total
    elif args.mode in ("seed", "cwii"):
        batching = (seed_batching if args.mode == "seed" else cw2_batching)(
            instance, graph=graph)
        solution = batching_to_solution(instance, graph, batching.batches)
        lb = None
    else:
        raise ValidationError(f"unknown solve mode {args.mode!r}")
    seconds = time.perf_counter() - start

    save_solution(solution, graph, args.output)
    row = _report_row(args.instance, args.mode, solution.total, lb, seconds)
    print(f"wrote {args.output}")
    print("  ".join(f"{k}={row[k]}" for k in REPORT_FIELDS))
    if args.report:
        new_file = not Path(args.report).exists()
        with open(args.report, "a", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=REPORT_FIELDS)
            if new_file:
                writer.writeheader()
            writer.writerow(row)
    return EXIT_OK


def cmd_separate(args) -> int:
    doc = read_json(args.model)
    if not (isinstance(doc, dict) and isinstance(doc.get("meta"), dict)
            and "instance" in doc["meta"]):
        raise ValidationError("model file lacks embedded instance metadata; "
                              "build it with --format json")
    instance = instance_from_dict(doc["meta"]["instance"])
    graph = instance_graph(instance)
    kind = doc.get("kind")
    enabled = doc["meta"].get("options", [])
    if not isinstance(enabled, list):
        raise ValidationError(f"meta.options must be a list of option names, got {enabled!r}")
    known = [f.name for f in fields(ModelOptions)]
    for name in enabled:
        if name not in known:
            raise ValidationError(
                f"unknown option {name!r} in meta.options; choose from {', '.join(known)}")
    options = ModelOptions(**{name: True for name in enabled})
    model = build_model(instance, graph, kind, options)

    adoc = read_json(args.assignment)
    if isinstance(adoc, dict) and "values" in adoc:
        adoc = adoc["values"]
    if not isinstance(adoc, dict):
        raise ValidationError("assignment file must map variable names to values")
    names = model.variable_names()
    declared = set(names)
    assignment = VariableAssignment()
    for name, value in adoc.items():
        if name not in declared:
            raise ValidationError(f"assignment names undeclared variable {name!r}")
        try:
            if isinstance(value, bool):
                raise TypeError("a JSON boolean is not a number")
            assignment.set(name, value)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"assignment value {value!r} of {name} is not a number") from None

    for cut in separate_connectivity(graph, kind, assignment, instance):
        row = cut_to_row(cut, model, graph)
        print(f"{row.name}: {' '.join(lp_terms(row.coeffs, names))} {row.sense} {row.rhs}")
    return EXIT_OK


def _read_report(path) -> list[list[str]]:
    """The rows of a report CSV below its header, each with one value per
    report field.  Any other file, or one that is not UTF-8 text, is
    refused with its name and line."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}:{line}: not UTF-8 text") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    if next(reader, None) != REPORT_FIELDS:
        raise ValidationError(f"{path}:1: not a report CSV: its header must be "
                              f"{','.join(REPORT_FIELDS)}")
    rows = []
    for row in reader:
        if len(row) != len(REPORT_FIELDS):
            raise ValidationError(f"{path}:{reader.line_num}: {len(row)} fields, "
                                  f"expected {len(REPORT_FIELDS)}")
        rows.append(row)
    return rows


def cmd_report(args) -> int:
    # by instance, then method
    rows = sorted((row for path in args.csv_files for row in _read_report(path)),
                  key=lambda row: row[:2])
    if args.output:
        with open(args.output, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(REPORT_FIELDS)
            writer.writerows(rows)
    widths = [max(map(len, column)) for column in zip(REPORT_FIELDS, *rows)]
    header = "  ".join(map(str.ljust, REPORT_FIELDS, widths))
    print(header)
    print("-" * len(header))
    for row in rows:
        print("  ".join(map(str.ljust, row, widths)))
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pickopt",
        description="Order batching and picker routing: instances, integer "
                    "programming models, exact desk-scale solvers, heuristics.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random instance file")
    p.add_argument("--aisles", type=int, required=True)
    p.add_argument("--blocks", type=int, required=True)
    p.add_argument("--locs", type=int, default=2, help="picking locations per subaisle")
    p.add_argument("--loc-spacing", type=float, default=1)
    p.add_argument("--aisle-spacing", type=float, default=2)
    p.add_argument("--orders", type=int, required=True)
    p.add_argument("--delta", type=int, default=5, help="order profile parameter")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--capacity", type=int, default=8)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("build", help="build a formulation and export it")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("-f", "--formulation", required=True,
                   help="one of " + ", ".join(ALL_KINDS))
    p.add_argument("--format", default="lp", choices=["lp", "mps", "json"])
    for f in fields(ModelOptions):
        p.add_argument("--" + f.name.replace("_", "-"), action="store_true")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("solve", help="solve an instance exactly or heuristically")
    p.add_argument("-i", "--instance", required=True)
    p.add_argument("--mode", default="exact",
                   choices=["exact", "no-reversal-exact", "seed", "cwii"])
    p.add_argument("--report", default=None, help="append a CSV report row here")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("separate", help="print violated connectivity cuts")
    p.add_argument("--model", required=True, help="model file built with --format json")
    p.add_argument("--assignment", required=True, help="JSON variable assignment")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("report", help="merge and print report CSV rows")
    p.add_argument("csv_files", nargs="+")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage error or --help; argparse has printed
        return exc.code
    try:
        return args.func(args)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OracleSizeError as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
