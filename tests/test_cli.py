import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pickopt
from pickopt.cli import REPORT_FIELDS, build_parser, main


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


def test_generate_bad_seed_or_capacity_exit_2(tmp_path, capsys):
    for flag, value, message in (("--seed", "-1", "seed must be an integer >= 0"),
                                 ("--capacity", "0", "capacity must be >= 1")):
        out = tmp_path / "x.json"
        assert run_cli("generate", "--aisles", "2", "--blocks", "1", "--orders", "2",
                       flag, value, "-o", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


# 21 orders whose sizes first-fit decreasing packs in 15 bins against the
# L2 bound's 14: without a pickers field, loading them exceeds the exact
# bin-packing bound
FFD_ABOVE_L2 = [4, 3, 5, 3, 6, 6, 6, 6, 4, 3, 6, 3, 6, 6, 3, 6, 5, 4, 3, 5, 3]


@pytest.mark.parametrize("name, value", [
    ("aisle", 2), ("block", -1), ("slot", 2), ("side", 2)])
def test_bad_pick_coordinates_exit_2(tmp_path, capsys, name, value):
    picks = [{"aisle": 1, "block": 0, "slot": 1, "side": 0}]
    doc = {"format": "pickopt-instance-v1",
           "layout": {"aisles": 2, "blocks": 1, "locs_per_subaisle": 2,
                      "loc_spacing": 1, "aisle_spacing": 2},
           "capacity": 8,
           "orders": [{"id": k, "size": size, "picks": picks}
                      for k, size in enumerate(FFD_ABOVE_L2)]}
    path = tmp_path / "inst.json"
    out = str(tmp_path / "out.json")
    path.write_text(json.dumps(doc))
    assert run_cli("build", "-i", str(path), "-f", "PG", "-o", out) == 3
    doc["orders"][20]["picks"] = picks + [dict(picks[0], **{name: value})]
    for pickers in ({}, {"pickers": 14}):
        path.write_text(json.dumps(doc | pickers))
        for argv in (("build", "-i", str(path), "-f", "PG", "-o", out),
                     ("solve", "-i", str(path), "--mode", "seed", "-o", out)):
            capsys.readouterr()
            assert run_cli(*argv) == 2, (argv, pickers)
            assert f"orders[20].picks[1].{name}: coordinate out of range" in (
                capsys.readouterr().err)


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


def test_separate_refuses_numbers_written_as_text(tmp_path, instance_file, capsys):
    model_path = tmp_path / "pg.json"
    assert run_cli("build", "-i", str(instance_file), "-f", "PG", "--format", "json",
                   "-o", str(model_path)) == 0
    assign = tmp_path / "text.json"
    for value in ("1", " 1 ", "3/1", "1/2"):
        assign.write_text(json.dumps({"values": {"y_0_2": value}}))
        capsys.readouterr()
        assert run_cli("separate", "--model", str(model_path), "--assignment", str(assign)) == 2
        assert f"assignment value {value!r} of y_0_2 is not a number" in capsys.readouterr().err


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


def _report_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_report_refuses_files_that_are_not_report_csvs(tmp_path, capsys):
    header = "instance,method,ub,lb,gap_percent,wall_time_s\r\n"
    good = _report_csv(tmp_path / "good.csv", header + "i1,exact,12,12,0.0,0.001\r\n")
    undecodable = tmp_path / "latin1.csv"
    undecodable.write_bytes(header.encode() + "i1,exact,12,12,0.0,0.001\r\n\u00e9,seed,1,,,0.1\r\n"
                            .encode("latin-1"))
    for path, message in (
            (_report_csv(tmp_path / "other.csv", "name,ub\r\ni1,12\r\n"),
             "other.csv:1: not a report CSV"),
            (_report_csv(tmp_path / "empty.csv", ""), "empty.csv:1: not a report CSV"),
            (_report_csv(tmp_path / "short.csv", header + "i1,exact,12,12,0.0,0.001\r\ni2,seed\r\n"),
             "short.csv:3: 2 fields, expected 6"),
            (_report_csv(tmp_path / "long.csv", header + "i1,exact,12,12,0.0,0.001,9\r\n"),
             "long.csv:2: 7 fields, expected 6"),
            (undecodable, "latin1.csv:3: not UTF-8 text")):
        capsys.readouterr()
        assert run_cli("report", str(good), str(path), "-o", str(tmp_path / "merged.csv")) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "None" not in captured.out, path
        assert not (tmp_path / "merged.csv").exists()
    assert run_cli("report", str(good)) == 0
    assert capsys.readouterr().out.splitlines()[2].split() == [
        "i1", "exact", "12", "12", "0.0", "0.001"]


def test_solve_appends_only_to_a_report_csv(tmp_path, instance_file, capsys):
    other = _report_csv(tmp_path / "notes.csv", "name,ub\r\ni1,12\r\n")
    solution = tmp_path / "s.json"
    capsys.readouterr()
    assert run_cli("solve", "-i", str(instance_file), "--mode", "seed", "-o", str(solution),
                   "--report", str(other)) == 2
    assert "notes.csv:1: not a report CSV" in capsys.readouterr().err
    assert other.read_bytes() == b"name,ub\r\ni1,12\r\n" and not solution.exists()
    report = tmp_path / "r.csv"
    for _ in range(2):
        assert run_cli("solve", "-i", str(instance_file), "--mode", "seed", "-o", str(solution),
                       "--report", str(report)) == 0
    lines = report.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(REPORT_FIELDS) and len(lines) == 3


def _fresh_process(*args):
    """Runs ``python *args`` in a new interpreter that imports the package
    this process imported, installed or not."""
    path = [str(Path(pickopt.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))))


def test_console_module_entrypoint(tmp_path):
    out = tmp_path / "inst.json"
    proc = _fresh_process("-m", "pickopt.cli", "generate", "--aisles", "1",
                          "--blocks", "1", "--orders", "1", "-o", str(out))
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


def _generate_args(out, *extra):
    return ("generate", "--aisles", "2", "--blocks", "1", "--locs", "2",
            "--orders", "3", "--seed", "4", *extra, "-o", str(out))


def test_explicit_integral_spacings_write_the_same_bytes(tmp_path, capsys):
    plain, spelled, decimal = (tmp_path / f"{name}.json"
                               for name in ("plain", "spelled", "decimal"))
    assert run_cli(*_generate_args(plain)) == 0
    assert run_cli(*_generate_args(spelled, "--aisle-spacing", "2", "--loc-spacing", "1")) == 0
    assert run_cli(*_generate_args(decimal, "--aisle-spacing", "2.0",
                                   "--loc-spacing", "1.0")) == 0
    assert spelled.read_bytes() == plain.read_bytes() == decimal.read_bytes()
    assert json.loads(plain.read_text())["layout"]["aisle_spacing"] == 2
    ubs = []
    for inst in (plain, spelled):
        out = tmp_path / f"{inst.stem}_sol.json"
        capsys.readouterr()
        assert run_cli("solve", "-i", str(inst), "--mode", "exact", "-o", str(out)) == 0
        ubs.extend(w for w in capsys.readouterr().out.split() if w.startswith("ub="))
    assert len(ubs) == 2 and ubs[0] == ubs[1] and "." not in ubs[0]
    assert (tmp_path / "plain_sol.json").read_bytes() == (tmp_path / "spelled_sol.json").read_bytes()
    # a fractional spacing is kept as given
    assert run_cli(*_generate_args(decimal, "--aisle-spacing", "2.5")) == 0
    assert json.loads(decimal.read_text())["layout"]["aisle_spacing"] == 2.5


def test_usage_errors_return_2(capsys):
    # help returns 0: test_help_matches_a_fresh_parser
    assert run_cli("build") == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: pickopt build") and "required" in err
    assert run_cli("solve", "-i", "x.json", "--mode", "bogus", "-o", "s.json") == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err
    assert run_cli() == 2
    assert run_cli("frobnicate") == 2
    captured = capsys.readouterr()
    assert "invalid choice" in captured.err and captured.out == ""


def test_repeated_calls_build_one_parser(tmp_path, instance_file, monkeypatch, capsys):
    build_parser.cache_clear()
    inits = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda self, *a, **k: inits.append(a) or init(self, *a, **k))
    model_path = tmp_path / "pg.json"
    assignment = tmp_path / "none.json"
    assignment.write_text(json.dumps({"values": {}}))
    calls = [
        _generate_args(tmp_path / "g.json"),
        ("build", "-i", str(instance_file), "-f", "PG", "--format", "json",
         "-o", str(model_path)),
        ("solve", "-i", str(instance_file), "--mode", "seed", "-o", str(tmp_path / "s.json"),
         "--report", str(tmp_path / "r.csv")),
        ("separate", "--model", str(model_path), "--assignment", str(assignment)),
        ("report", str(tmp_path / "r.csv")),
    ]
    assert run_cli(*calls[0]) == 0
    built = len(inits)  # the parser and one per subcommand
    assert built == 1 + len(calls)
    for argv in calls + calls:
        assert run_cli(*argv) == 0, argv
    assert len(inits) == built
    assert build_parser.cache_info().misses == 1


def test_no_state_carries_between_calls(tmp_path, instance_file, capsys):
    with_cuts, without = tmp_path / "cuts.lp", tmp_path / "plain.lp"
    assert run_cli("build", "-i", str(instance_file), "-f", "PG", "--basic-cuts",
                   "-o", str(with_cuts)) == 0
    assert run_cli("build", "-i", str(instance_file), "-f", "PG", "-o", str(without)) == 0
    fresh = tmp_path / "fresh.lp"
    proc = _fresh_process("-m", "pickopt.cli", "build", "-i", str(instance_file),
                          "-f", "PG", "-o", str(fresh))
    assert proc.returncode == 0, proc.stderr
    assert without.read_bytes() == fresh.read_bytes() != with_cuts.read_bytes()

    def pipeline(tag):
        inst, sol = tmp_path / f"{tag}.json", tmp_path / f"{tag}_sol.json"
        assert run_cli(*_generate_args(inst, "--aisle-spacing", "3")) == 0
        assert run_cli("solve", "-i", str(inst), "-o", str(sol)) == 0
        return inst.read_bytes(), sol.read_bytes()

    before = pipeline("before")
    assert run_cli("solve", "-i", str(instance_file), "--mode", "bogus", "-o", "x") == 2
    assert run_cli("--help") == 0
    assert run_cli("generate", "--help") == 0
    # defaults come back: no --aisle-spacing 3 and no --mode carried over
    assert run_cli(*_generate_args(tmp_path / "default.json")) == 0
    assert json.loads((tmp_path / "default.json").read_text())["layout"]["aisle_spacing"] == 2
    assert pipeline("after") == before


HELP_ARGVS = [["--help"]] + [[command, "--help"] for command in
                             ("generate", "build", "solve", "separate", "report")]


def test_help_matches_a_fresh_parser(instance_file, capsys):
    # the shared parser has served other calls (the fixture) before this
    for argv in HELP_ARGVS:
        capsys.readouterr()
        assert run_cli(*argv) == 0
        shared = capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            build_parser.__wrapped__().parse_args(argv)
        assert exit_info.value.code == 0
        fresh = capsys.readouterr()
        assert shared.out == fresh.out and shared.out.startswith("usage: pickopt")
        assert shared.err == fresh.err == ""


def test_import_builds_no_parser():
    code = ("import argparse\n"
            "inits = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = "
            "lambda self, *a, **k: inits.append(a) or init(self, *a, **k)\n"
            "import pickopt.cli\n"
            "print(len(inits), pickopt.cli.build_parser.cache_info().misses)\n")
    proc = _fresh_process("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0"]
