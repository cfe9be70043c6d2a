"""Every pickopt name the benchmark reaches must stay where it looks.

perfbench wraps entry points by their module path and calls the package as
``pk.<name>``; a name that moved would break the benchmark only when it
runs.  These tests read perfbench and change nothing there.
"""

import ast
import importlib.util
from pathlib import Path

import pickopt

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_path_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    before = dict(vars(pickopt))
    tracer = tracing.Tracer()
    try:
        # resolves every ENTRY_POINTS, ESTIMATOR_FACTORIES and wrapper path
        tracer.install()
    finally:
        tracer.uninstall()
    assert dict(vars(pickopt)) == before


def test_every_pk_name_in_the_workloads_exists():
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "pk"}
    assert "encode_walk_PG" in names
    assert sorted(name for name in names if not hasattr(pickopt, name)) == []
