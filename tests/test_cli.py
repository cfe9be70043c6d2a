import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pickopt
from pickopt.cli import main


def run_cli(*args):
    return main(list(args))


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    code = run_cli("generate", "--aisles", "2", "--blocks", "1", "--locs", "2",
                   "--orders", "3", "--delta", "5", "--seed", "1", "-o", str(path))
    assert code == 0
    return path


def test_generate_deterministic(tmp_path, instance_file):
    other = tmp_path / "again.json"
    assert run_cli("generate", "--aisles", "2", "--blocks", "1", "--locs", "2",
                   "--orders", "3", "--delta", "5", "--seed", "1", "-o", str(other)) == 0
    assert other.read_bytes() == instance_file.read_bytes()


def test_generate_zero_orders_exit_2(tmp_path):
    assert run_cli("generate", "--aisles", "2", "--blocks", "1", "--orders", "0",
                   "-o", str(tmp_path / "x.json")) == 2


def test_generate_non_finite_spacing_exit_2(tmp_path):
    for flag, value in (("--loc-spacing", "nan"), ("--aisle-spacing", "inf")):
        out = tmp_path / f"{value}.json"
        assert run_cli("generate", "--aisles", "2", "--blocks", "1", "--orders", "2",
                       flag, value, "-o", str(out)) == 2
        assert not out.exists()


def test_generate_packs_many_large_orders(tmp_path, capsys):
    # first-fit decreasing misses ceil(sum / 8) here; the L2 bound proves it optimal
    assert run_cli("generate", "--aisles", "10", "--blocks", "2", "--locs", "15",
                   "--orders", "21", "--delta", "40", "-o", str(tmp_path / "i.json")) == 0
    assert "pickers 15" in capsys.readouterr().out


def test_build_all_formats(tmp_path, instance_file, capsys):
    for fmt in ("lp", "mps", "json"):
        out = tmp_path / f"m.{fmt}"
        assert run_cli("build", "-i", str(instance_file), "-f", "PG",
                       "--format", fmt, "-o", str(out)) == 0
        assert out.exists()
    captured = capsys.readouterr().out
    assert "lazy groups: 1" in captured


def test_build_pf_reports_compact(tmp_path, instance_file, capsys):
    out = tmp_path / "pf.lp"
    assert run_cli("build", "-i", str(instance_file), "-f", "PF", "-o", str(out)) == 0
    assert "lazy groups: 0" in capsys.readouterr().out


def test_build_rejects_bad_combo(tmp_path, instance_file):
    code = run_cli("build", "-i", str(instance_file), "-f", "PU2",
                   "--cross-aisle-bound", "-o", str(tmp_path / "x.lp"))
    assert code == 2  # one-block instance cannot host P_U2


def test_build_option_flags(tmp_path, instance_file, capsys):
    out = tmp_path / "pg_plus.lp"
    assert run_cli("build", "-i", str(instance_file), "-f", "PG", "--basic-cuts",
                   "--single-traversing", "-o", str(out)) == 0
    text = capsys.readouterr().out
    assert "sitr" in text


def test_solve_exact_gap_zero(tmp_path, instance_file, capsys):
    out = tmp_path / "sol.json"
    assert run_cli("solve", "-i", str(instance_file), "--mode", "exact",
                   "-o", str(out)) == 0
    text = capsys.readouterr().out
    assert "gap_percent=0.0" in text
    doc = json.loads(out.read_text())
    assert doc["format"] == "pickopt-solution-v1"


def test_solve_heuristic_not_below_exact(tmp_path, instance_file):
    exact_out = tmp_path / "exact.json"
    seed_out = tmp_path / "seed.json"
    run_cli("solve", "-i", str(instance_file), "--mode", "exact", "-o", str(exact_out))
    run_cli("solve", "-i", str(instance_file), "--mode", "seed", "-o", str(seed_out))
    exact_total = json.loads(exact_out.read_text())["total"]
    seed_total = json.loads(seed_out.read_text())["total"]
    assert seed_total >= exact_total


def test_solve_oversized_exits_3(tmp_path):
    path = tmp_path / "big.json"
    run_cli("generate", "--aisles", "3", "--blocks", "2", "--locs", "2",
            "--orders", "2", "--seed", "0", "-o", str(path))
    assert run_cli("solve", "-i", str(path), "--mode", "exact",
                   "-o", str(tmp_path / "s.json")) == 3


def test_solve_artifacts_deterministic(tmp_path, instance_file):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run_cli("solve", "-i", str(instance_file), "--mode", "exact", "-o", str(a))
    run_cli("solve", "-i", str(instance_file), "--mode", "exact", "-o", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_separate_roundtrip(tmp_path, instance_file, capsys):
    model_path = tmp_path / "pg.json"
    run_cli("build", "-i", str(instance_file), "-f", "PG", "--format", "json",
            "-o", str(model_path))
    capsys.readouterr()
    # connected assignment: no output
    assign = tmp_path / "ok.json"
    assign.write_text(json.dumps({"values": {}}))
    assert run_cli("separate", "--model", str(model_path), "--assignment", str(assign)) == 0
    assert capsys.readouterr().out.strip() == ""
    # disconnected gamma support: one printed row
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"values": {
        "g_0_2_3": 1, "g_0_3_2": 1, "y_0_2": 1, "y_0_3": 1}}))
    assert run_cli("separate", "--model", str(model_path), "--assignment", str(bad)) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 and out[0].startswith("impf8")
    # fractional: exit 2
    frac = tmp_path / "frac.json"
    frac.write_text(json.dumps({"values": {"g_0_2_3": 0.5}}))
    assert run_cli("separate", "--model", str(model_path), "--assignment", str(frac)) == 2
    # a name the model does not declare: exit 2, naming it
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"values": {"y_0_2": 1, "g_0_2_9": 1, "g_0_9_2": 1}}))
    capsys.readouterr()
    assert run_cli("separate", "--model", str(model_path), "--assignment", str(typo)) == 2
    assert "'g_0_2_9'" in capsys.readouterr().err
    # a value that is not a number, not finite or a JSON boolean: exit 2,
    # not a traceback and not a silent 1 or 0
    word = tmp_path / "word.json"
    for value in ("one", float("nan"), float("inf"), float("-inf"), True, False):
        word.write_text(json.dumps({"values": {"y_0_2": value}}))
        capsys.readouterr()
        assert run_cli("separate", "--model", str(model_path), "--assignment", str(word)) == 2
        assert f"assignment value {value!r} of y_0_2 is not a number" in capsys.readouterr().err
    # an unknown option name, or options that are not a list: exit 2, naming them
    doc = json.loads(model_path.read_text())
    for options, named in ((["subaisle_cut"], "'subaisle_cut'"),
                           ("subaisle_cuts", "'subaisle_cuts'")):
        doc["meta"]["options"] = options
        odd = tmp_path / "odd.json"
        odd.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run_cli("separate", "--model", str(odd), "--assignment", str(assign)) == 2
        assert named in capsys.readouterr().err
    # malformed file: exit 2
    broken = tmp_path / "broken.json"
    broken.write_text("{oops")
    assert run_cli("separate", "--model", str(model_path), "--assignment", str(broken)) == 2


def test_separate_tour_model(tmp_path, instance_file, capsys):
    model_path = tmp_path / "pu1.json"
    assert run_cli("build", "-i", str(instance_file), "-f", "PU1", "--format", "json",
                   "-o", str(model_path)) == 0
    # a tour edge on the far subaisle alone, away from the origin
    assign = tmp_path / "far.json"
    assign.write_text(json.dumps({"values": {"x_0_1_3": 1, "y_0_1": 1, "y_0_3": 1}}))
    capsys.readouterr()
    assert run_cli("separate", "--model", str(model_path), "--assignment", str(assign)) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1 and out[0].startswith("tspo5_t0_c0:") and "- 2 y_0_1" in out[0]


def test_separate_builds_one_auxiliary_graph(tmp_path, instance_file, capsys, monkeypatch):
    model_path = tmp_path / "pu1.json"
    assert run_cli("build", "-i", str(instance_file), "-f", "PU1", "--format", "json",
                   "-o", str(model_path)) == 0
    assign = tmp_path / "far.json"
    assign.write_text(json.dumps({"values": {"x_0_1_3": 1, "y_0_1": 1, "y_0_3": 1}}))
    builds = []
    build = pickopt.layout.build_auxiliary_graph
    monkeypatch.setattr(pickopt.layout, "build_auxiliary_graph",
                        lambda *args: builds.append(args) or build(*args))
    capsys.readouterr()
    assert run_cli("separate", "--model", str(model_path), "--assignment", str(assign)) == 0
    assert capsys.readouterr().out.startswith("tspo5_t0_c0:")
    assert len(builds) == 1


def test_unreadable_input_exits_2(tmp_path, instance_file, capsys):
    missing = str(tmp_path / "missing.json")
    model_path = tmp_path / "pg.json"
    assert run_cli("build", "-i", str(instance_file), "-f", "PG", "--format", "json",
                   "-o", str(model_path)) == 0
    assign = tmp_path / "none.json"
    assign.write_text(json.dumps({"values": {}}))
    no_meta = tmp_path / "no_meta.json"
    no_meta.write_text(json.dumps({"meta": 3}))
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    for argv, named in [
        (("solve", "-i", missing, "-o", str(tmp_path / "s.json")), missing),
        (("build", "-i", missing, "-f", "PG", "-o", str(tmp_path / "m.lp")), missing),
        (("separate", "--model", missing, "--assignment", str(assign)), missing),
        (("separate", "--model", str(model_path), "--assignment", missing), missing),
        (("report", str(tmp_path / "missing.csv")), "missing.csv"),
        (("solve", "-i", str(instance_file), "-o", str(tmp_path / "no" / "s.json")),
         str(tmp_path / "no" / "s.json")),
        (("separate", "--model", str(no_meta), "--assignment", str(assign)), "metadata"),
        (("solve", "-i", str(binary), "-o", str(tmp_path / "s.json")), str(binary)),
    ]:
        capsys.readouterr()
        assert run_cli(*argv) == 2, argv
        assert named in capsys.readouterr().err, argv


def test_report_merges_rows(tmp_path, instance_file, capsys):
    csv_path = tmp_path / "rows.csv"
    run_cli("solve", "-i", str(instance_file), "--mode", "exact",
            "-o", str(tmp_path / "s1.json"), "--report", str(csv_path))
    run_cli("solve", "-i", str(instance_file), "--mode", "cwii",
            "-o", str(tmp_path / "s2.json"), "--report", str(csv_path))
    capsys.readouterr()
    merged = tmp_path / "merged.csv"
    assert run_cli("report", str(csv_path), "-o", str(merged)) == 0
    table = capsys.readouterr().out
    assert "exact" in table and "cwii" in table
    assert merged.exists()


def test_console_module_entrypoint(tmp_path):
    out = tmp_path / "inst.json"
    # the child imports the package this process imported, installed or not
    path = [str(Path(pickopt.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "pickopt.cli", "generate", "--aisles", "1",
         "--blocks", "1", "--orders", "1", "-o", str(out)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))
    assert proc.returncode == 0
    assert out.exists()


def test_formulation_name_aliases(tmp_path, instance_file):
    # case and separators are forgiven; unknown names exit 2
    for alias in ("PF", "pf", "P_F", "p-f"):
        assert run_cli("build", "-i", str(instance_file), "-f", alias,
                       "-o", str(tmp_path / f"{alias}.lp")) == 0
    for alias in ("basic", "PA", "PG", "PU", "PU1"):
        assert run_cli("build", "-i", str(instance_file), "-f", alias,
                       "-o", str(tmp_path / f"{alias}.lp")) == 0
    assert run_cli("build", "-i", str(instance_file), "-f", "PX",
                   "-o", str(tmp_path / "px.lp")) == 2
