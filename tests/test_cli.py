import argparse
import json
import math
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from symtiling import cli, moduli, serialize, svgout, weave
from symtiling.linkage import regular_equilateral

from oracles import STRADDLING_SUNBURST, UNSOLVABLE_SUNBURSTS

GREEN = bytes(svgout.VERDICT_COLORS["periodic"])
BLUE = bytes(svgout.VERDICT_COLORS["bounded-attracted"])


def read_ppm(path):
    blob = path.read_bytes()
    magic, rest = blob.split(b"\n", 1)
    dims, rest = rest.split(b"\n", 1)
    depth, pixels = rest.split(b"\n", 1)
    w, h = map(int, dims.split())
    assert magic == b"P6" and depth == b"255"
    assert len(pixels) == 3 * w * h
    return w, h, pixels


def test_grid_orbit_writes_json_and_svg(tmp_path):
    jpath = tmp_path / "orbit.json"
    spath = tmp_path / "orbit.svg"
    code = cli.main(["grid-orbit", "--t", "1/3", "--seed", "5",
                     "--max-steps", "300", "--json", str(jpath),
                     "--out", str(spath)])
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert payload["config"]["command"] == "grid-orbit"
    assert payload["verdict"] in {"bounded-attracted", "singular",
                                  "inconclusive", "periodic"}
    root = ET.parse(spath).getroot()
    assert root.tag.endswith("svg")
    assert len(list(root.iter())) > 10


def argv_from_config(config):
    """The command line that a JSON record's config was parsed from."""
    config = dict(config)
    argv = [config.pop("command")]
    for key, value in config.items():
        flag = "--" + key.replace("_", "-")
        if key == "files":
            argv += value
        elif value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv += [flag, str(value)]
    return argv


@pytest.mark.parametrize("argv", [
    ["grid-orbit", "--t", "7/11", "--seed", "2", "--max-steps", "120"],
    ["grid-orbit", "--angle", "pi/5", "--frac-a", "0.31",
     "--side-b", "-1", "--max-steps", "60"],
    ["grid-portrait", "--resolution", "2x2"],
    ["sunburst-solve", "--seed", "2"],
    ["linkage-convert", "--seed", "8"],
    ["moduli-embed", "--n", "5", "--seed", "4"],
    ["pentagon-verify"],
], ids=lambda argv: argv[0])
def test_every_command_json_replays_exactly(tmp_path, argv):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    assert cli.main(argv + ["--json", str(first)]) == 0
    payload = json.loads(first.read_text())
    config = dict(payload["config"], json=str(second))
    assert cli.main(argv_from_config(config)) == 0
    replay = json.loads(second.read_text())
    assert replay["config"].pop("json") == str(second)
    payload["config"].pop("json")
    assert replay == payload


def test_grid_orbit_float_diagonal_is_periodic(tmp_path, capsys):
    jpath = tmp_path / "orbit.json"
    code = cli.main(["grid-orbit", "--angle", "pi/4",
                     "--frac-a", "0.31", "--frac-b", "0.62",
                     "--max-steps", "50", "--json", str(jpath)])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict=periodic" in out
    payload = json.loads(jpath.read_text())
    assert payload["verdict"] == "periodic"
    assert payload["termination"]["kind"] == "periodic"
    assert not payload["exact"]


def test_grid_orbit_zero_budget_keeps_start_only(tmp_path):
    jpath = tmp_path / "orbit.json"
    assert cli.main(["grid-orbit", "--t", "1/3", "--max-steps", "0",
                     "--json", str(jpath)]) == 0
    payload = json.loads(jpath.read_text())
    assert payload["termination"]["kind"] == "max-steps"
    assert len(payload["a_points"]) == 1


def test_grid_orbit_rejects_degenerate_parameter(tmp_path):
    assert cli.main(["grid-orbit", "--t", "0", "--seed", "1",
                     "--json", str(tmp_path / "x.json")]) == 2
    assert cli.main(["grid-orbit", "--t", "junk",
                     "--json", str(tmp_path / "y.json")]) == 2


@pytest.mark.parametrize("flags", [
    ["--frac-a", "1/4"],
    ["--frac-b", "1/5"],
    ["--side-a", "-1"],
    ["--side-b", "1"],
    ["--frac-a", "1/2", "--side-b", "-1"],
])
def test_grid_orbit_seed_conflicts_with_start_flags(tmp_path, capsys, flags):
    jpath = tmp_path / "orbit.json"
    assert cli.main(["grid-orbit", "--seed", "1", "--max-steps", "20",
                     "--json", str(jpath)] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert all(flag in err for flag in flags[::2])
    assert not jpath.exists()


def test_grid_orbit_io_failure_exits_one(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "orbit.json"
    assert cli.main(["grid-orbit", "--t", "1/3", "--seed", "5",
                     "--max-steps", "50", "--json", str(missing)]) == 1


def test_portrait_float_diagonal_all_periodic(tmp_path):
    ppath = tmp_path / "p.ppm"
    code = cli.main(["grid-portrait", "--angle", "pi/4",
                     "--resolution", "5x4", "--max-steps", "40",
                     "--out", str(ppath)])
    assert code == 0
    w, h, pixels = read_ppm(ppath)
    assert (w, h) == (5, 4)
    assert all(pixels[3 * i:3 * i + 3] == GREEN for i in range(w * h))


def test_portrait_exact_contracting_parameter(tmp_path):
    ppath = tmp_path / "p.ppm"
    jpath = tmp_path / "p.json"
    code = cli.main(["grid-portrait", "--t", "1/3", "--resolution", "3x3",
                     "--max-steps", "400", "--out", str(ppath),
                     "--json", str(jpath)])
    assert code == 0
    w, h, pixels = read_ppm(ppath)
    assert (w, h) == (3, 3)
    rows = json.loads(jpath.read_text())["rows"]
    flat = [v for row in rows for v in row]
    assert len(flat) == 9
    assert "bounded-attracted" in flat
    seen = {pixels[3 * i:3 * i + 3] for i in range(w * h)}
    assert BLUE in seen


def test_portrait_rows_are_written_bottom_up(tmp_path):
    rows = [["singular"], ["periodic"]]
    ppath = tmp_path / "rows.ppm"
    svgout.write_ppm(ppath, rows)
    _, _, pixels = read_ppm(ppath)
    assert pixels == GREEN + bytes(svgout.VERDICT_COLORS["singular"])


def test_sunburst_solve_balanced(tmp_path, capsys):
    jpath = tmp_path / "sun.json"
    spath = tmp_path / "sun.svg"
    code = cli.main(["sunburst-solve", "--n", "6", "--seed", "3",
                     "--json", str(jpath), "--out", str(spath)])
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert abs(math.log(payload["holonomy"]["h"])) <= 1e-10
    assert payload["closure"] <= 1e-9
    lo = payload["interval"]["lo"]
    assert lo < payload["theta"] < lo + payload["interval"]["width"]
    poly = serialize.polygon_from_json(payload["points"])
    assert poly.is_convex()
    ET.parse(spath)
    assert "theta=" in capsys.readouterr().out


def test_sunburst_solve_runs_its_orbit_once(monkeypatch):
    calls = []
    orbit_points = weave.orbit_points

    def counted(*args, **kwargs):
        calls.append(args)
        return orbit_points(*args, **kwargs)

    monkeypatch.setattr(weave, "orbit_points", counted)
    monkeypatch.setattr(cli, "orbit_points", counted)
    assert cli.main(["sunburst-solve", "--n", "7", "--seed", "3"]) == 0
    assert len(calls) == 1


def test_sunburst_solve_empty_interval_exits_two(tmp_path, capsys):
    apath = tmp_path / "a.json"
    serialize.write_json([1.602645954842546, 2.5703724682634848,
                          5.333417523115699], apath)
    code = cli.main(["sunburst-solve", str(apath),
                     "--json", str(tmp_path / "s.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "empty" in err.lower()
    assert err.startswith("error: empty weave interval; per-index arcs "
                          "(lo, width):\n  0: (")
    assert len(err.splitlines()) == 4


def test_sunburst_solve_from_files(tmp_path):
    apath = tmp_path / "a.json"
    bpath = tmp_path / "b.json"
    serialize.write_json([2 * math.pi * k / 5 for k in range(5)], apath)
    serialize.write_json([2 * math.pi * k / 5 for k in range(5)], bpath)
    jpath = tmp_path / "out.json"
    code = cli.main(["sunburst-solve", str(apath), str(bpath),
                     "--json", str(jpath)])
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert abs(payload["theta"] - (math.pi / 2 - math.pi / 5)) <= 1e-9


def test_linkage_convert(tmp_path, capsys):
    jpath = tmp_path / "link.json"
    spath = tmp_path / "link.svg"
    code = cli.main(["linkage-convert", "--n", "7", "--seed", "8",
                     "--json", str(jpath), "--out", str(spath)])
    assert code == 0
    payload = json.loads(jpath.read_text())
    assert payload["closure"] <= 1e-9
    out_poly = serialize.polygon_from_json(payload["equiangular"])
    assert out_poly.n == 7
    assert out_poly.is_convex()
    ET.parse(spath)
    assert "closure=" in capsys.readouterr().out


def test_linkage_convert_rejects_square_with_unequal_sides(tmp_path):
    ppath = tmp_path / "poly.json"
    serialize.write_json([[0, 0], [2, 0], [2, 1], [0, 1]], ppath)
    assert cli.main(["linkage-convert", str(ppath)]) == 2


def test_moduli_embed(tmp_path):
    jpath = tmp_path / "disk.json"
    spath = tmp_path / "disk.svg"
    code = cli.main(["moduli-embed", "--n", "5", "--seed", "4",
                     "--json", str(jpath), "--out", str(spath)])
    assert code == 0
    payload = json.loads(jpath.read_text())
    x, y = payload["disk"]
    assert x * x + y * y < 1.0
    assert len(payload["point"]["coords"]) == 3
    ET.parse(spath)


def test_regular_60_gon_converts_and_embeds(tmp_path):
    ppath = tmp_path / "poly.json"
    jpath = tmp_path / "out.json"
    serialize.write_json(regular_equilateral(60).vertices, ppath)
    start = time.perf_counter()
    assert cli.main(["linkage-convert", str(ppath)]) == 0
    assert cli.main(["moduli-embed", str(ppath), "--json", str(jpath)]) == 0
    assert time.perf_counter() - start < 30.0
    coords = np.array(json.loads(jpath.read_text())["point"]["coords"])
    ref = moduli.reference_point(60)
    assert np.max(np.abs(coords - ref)) <= 1e-9


def test_pentagon_verify(capsys):
    code = cli.main(["pentagon-verify"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"]
    assert payload["signature"] == [1, 2]
    assert payload["angle_residual"] <= 1e-9


def test_parser_rejects_unknown_command():
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["no-such-command"])


def test_angle_and_edge_parsing():
    assert cli.parse_angle("pi/4") == pytest.approx(math.pi / 4)
    assert cli.parse_angle("3pi/8") == pytest.approx(3 * math.pi / 8)
    assert cli.parse_angle("0.75") == 0.75
    edge = cli.parse_edge("h:2:-1")
    assert (edge.axis, edge.line, edge.cell) == ("h", 2, -1)
    with pytest.raises(ValueError):
        cli.parse_edge("d:0:0")
    assert cli.parse_resolution("64") == (64, 64)
    for text in ("3x0", "3x"):
        with pytest.raises(ValueError):
            cli.parse_resolution(text)


def test_grid_portrait_config_records_every_flag(tmp_path):
    jpath = tmp_path / "p.json"
    assert cli.main(["grid-portrait", "--angle", "pi/5",
                     "--edge-a", "h:0:0", "--resolution", "2x2",
                     "--max-steps", "20", "--out", str(tmp_path / "p.ppm"),
                     "--json", str(jpath)]) == 0
    config = json.loads(jpath.read_text())["config"]
    assert config["command"] == "grid-portrait"
    assert "float" not in config
    assert config["angle"] == "pi/5"
    assert (config["edge_a"], config["edge_b"]) == ("h:0:0", "v:0:0")
    assert config["resolution"] == "2x2" and config["max_steps"] == 20


def test_grid_portrait_without_out_prints_counts(capsys):
    assert cli.main(["grid-portrait", "--resolution", "2x2",
                     "--max-steps", "20"]) == 0
    assert "=" in capsys.readouterr().out


def test_sunburst_solve_config_records_free(tmp_path):
    jpath = tmp_path / "s.json"
    assert cli.main(["sunburst-solve", "--free", "--n", "5", "--seed", "2",
                     "--json", str(jpath)]) == 0
    config = json.loads(jpath.read_text())["config"]
    assert config["free"] is True
    assert (config["n"], config["seed"]) == (5, 2)


@pytest.mark.parametrize("argv", [
    ["sunburst-solve", "--balanced"],
    ["grid-portrait", "--seed", "1"],
    ["pentagon-verify", "--seed", "1"],
    ["pentagon-verify", "--out", "x.svg"],
    ["grid-orbit", "--tol", "1e-9"],
    ["grid-orbit", "--float"],
    ["grid-portrait", "--float"],
    ["grid-portrait", "--tol", "1e-9"],
    ["sunburst-solve", "--tol", "1e-9"],
    ["linkage-convert", "--tol", "1e-9"],
    ["moduli-embed", "--tol", "1e-9"],
    ["pentagon-verify", "--tol", "1e-9"],
    ["grid-orbit", "--angle", "pi/5", "--t", "2/5"],
    ["grid-orbit", "--t", "2/5", "--angle", "pi/5"],
    ["grid-portrait", "--angle", "pi/5", "--t", "2/5"],
    ["grid-portrait", "--t", "2/5", "--angle", "pi/5"],
])
def test_parser_rejects_flags_that_do_nothing(argv):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    assert cli.main(argv) == 2


REGULAR_RAYS = [2 * math.pi * k / 5 for k in range(5)]
UNIT_SQUARE = [[0, 0], [1, 0], [1, 1], [0, 1]]


@pytest.mark.parametrize("command, data, flags", [
    ("sunburst-solve", REGULAR_RAYS, ["--seed", "3"]),
    ("sunburst-solve", REGULAR_RAYS, ["--free"]),
    ("sunburst-solve", REGULAR_RAYS, ["--seed", "0", "--free"]),
    ("linkage-convert", UNIT_SQUARE, ["--seed", "3"]),
    ("moduli-embed", UNIT_SQUARE, ["--seed", "0"]),
    ("sunburst-solve", REGULAR_RAYS, ["--n", "5"]),
    ("linkage-convert", UNIT_SQUARE, ["--n", "9"]),
    ("moduli-embed", UNIT_SQUARE, ["--n", "4", "--seed", "0"]),
    ("sunburst-solve", REGULAR_RAYS, ["b.json", "c.json"]),
    ("linkage-convert", UNIT_SQUARE, ["missing.json"]),
    ("moduli-embed", UNIT_SQUARE, ["missing.json"]),
])
def test_input_files_refuse_the_random_draw_flags(tmp_path, capsys, command,
                                                  data, flags):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    jpath = tmp_path / "out.json"
    assert cli.main([command, str(path)] + flags + ["--json", str(jpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert all(flag in err for flag in flags if flag.startswith("--"))
    assert not jpath.exists()


def test_config_records_a_default_only_where_the_run_reads_it(tmp_path):
    """An unset --t or --n is recorded at its default when the run reads
    it, and as null when --angle or an input file takes its place."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps(UNIT_SQUARE))
    jpath = tmp_path / "out.json"
    for argv, key, value in [
            (["grid-orbit", "--seed", "5"], "t", "1/3"),
            (["grid-orbit", "--angle", "pi/5", "--seed", "5"], "t", None),
            (["linkage-convert", "--seed", "8"], "n", 5),
            (["linkage-convert", str(path)], "n", None)]:
        assert cli.main(argv + ["--json", str(jpath)]) == 0
        assert json.loads(jpath.read_text())["config"][key] == value


@pytest.mark.parametrize("argv", [
    ["grid-orbit", "--angle", "pi/4", "--max-steps", "20"],
    ["grid-portrait", "--angle", "pi/4", "--resolution", "2x2",
     "--max-steps", "20"],
])
def test_angle_runs_in_floats(tmp_path, argv):
    jpath = tmp_path / "run.json"
    assert cli.main(argv + ["--json", str(jpath)]) == 0
    payload = json.loads(jpath.read_text())
    if argv[0] == "grid-orbit":
        start = payload["start"]
        assert all(isinstance(start[p]["pos"], float) for p in "ab")


@pytest.mark.parametrize("argv", [
    ["grid-orbit", "--angle", "nan"],
    ["grid-orbit", "--angle", "inf"],
    ["grid-portrait", "--angle", "nan", "--resolution", "2x2"],
    ["grid-portrait", "--angle", "infpi/4", "--resolution", "2x2"],
    ["grid-orbit", "--edge-a", "v:a:0"],
    ["grid-portrait", "--resolution", "x3"],
    ["grid-orbit", "--angle", "pi/0"],
    ["grid-portrait", "--angle", "3pi/0", "--resolution", "2"],
    ["grid-orbit", "--angle", "pi4"],
])
def test_non_finite_angle_exits_two(tmp_path, capsys, argv):
    jpath = tmp_path / "run.json"
    assert cli.main(argv + ["--json", str(jpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(argv[2]) in err
    assert not jpath.exists()


@pytest.mark.parametrize("argv, flag", [
    (["grid-orbit", "--t", "1/0"], "--t"),
    (["grid-portrait", "--t", "1/0", "--resolution", "2x2"], "--t"),
    (["grid-orbit", "--frac-a", "1/0"], "--frac-a"),
    (["grid-orbit", "--frac-b", "1/0"], "--frac-b"),
])
def test_zero_denominator_exits_two_naming_its_flag(tmp_path, capsys, argv,
                                                    flag):
    jpath = tmp_path / "run.json"
    assert cli.main(argv + ["--json", str(jpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {flag} ") and "'1/0'" in err
    assert not jpath.exists()


def test_t_help_spells_a_negative_parameter(tmp_path, capsys, monkeypatch):
    """argparse reads `--t -1/3` as a missing value, so the help shows
    the spelling that runs."""
    monkeypatch.setenv("COLUMNS", "200")
    assert cli.main(["grid-orbit", "--help"]) == 0
    assert "--t=-1/3" in capsys.readouterr().out
    jpath = tmp_path / "run.json"
    assert cli.main(["grid-orbit", "--t=-1/3", "--max-steps", "20",
                     "--json", str(jpath)]) == 0
    assert json.loads(jpath.read_text())["config"]["t"] == "-1/3"


def run_module(tmp_path, argv, timeout):
    """The CLI as a fresh `python -m symtiling` process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "symtiling"] + argv,
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=timeout)


def test_parser_is_built_once_per_process(monkeypatch):
    """The root parser and its six subcommand parsers are built at most
    once, and not again once the parser exists."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argvs = [["pentagon-verify"],
             ["sunburst-solve", "--n", "5", "--seed", "1"],
             ["grid-orbit", "--max-steps", "5"]]
    for argv in argvs:
        assert cli.main(argv) == 0
    assert len(built) <= 7
    built.clear()
    for argv in argvs:
        assert cli.main(argv) == 0
    assert built == []
    assert cli.build_parser() is cli.build_parser()


def test_in_process_calls_match_fresh_processes(tmp_path, capsys):
    """A sequence of in-process calls, each after a refused parse, prints,
    exits and writes what a fresh process of the same argv does; flags
    that one call fills in after parsing do not reach the next."""
    sun = tmp_path / "sun.json"
    serialize.write_json([0.5, 2.0, 3.5, 5.0], sun)
    orbit = ["grid-orbit", "--max-steps", "50"]
    runs = [
        ["sunburst-solve", "--n", "7", "--seed", "3"],
        ["sunburst-solve", str(sun)],
        orbit + ["--t", "7/11", "--seed", "5"],
        orbit,
        orbit + ["--angle", "pi/5", "--seed", "5"],
        orbit + ["--t", "7/11", "--seed", "5"],
        ["linkage-convert", "--seed", "3"],
        ["moduli-embed", "--n", "5", "--seed", "4"],
        ["pentagon-verify"],
    ]
    configs = []
    for k, argv in enumerate(runs):
        for refused, code in ((["grid-orbit", "--t", "1/3", "--angle",
                                "pi/5"], 2), (["--help"], 0)):
            assert cli.main(refused) == code
        capsys.readouterr()
        outputs = {}
        for side in ("in", "fresh"):
            jpath = tmp_path / f"{k}-{side}.json"
            flags = ["--json", str(jpath)]
            if argv[0] != "pentagon-verify":
                flags += ["--out", str(tmp_path / f"{k}-{side}.svg")]
            if side == "in":
                code = cli.main(argv + flags)
                out, err = capsys.readouterr()
            else:
                done = run_module(tmp_path, argv + flags, timeout=60)
                code, out, err = done.returncode, done.stdout, done.stderr
            record = json.loads(jpath.read_text())
            del record["config"]["json"]
            record["config"].pop("out", None)
            figure = tmp_path / f"{k}-{side}.svg"
            outputs[side] = (code, out, err, record,
                             figure.read_bytes() if figure.exists() else None)
        assert outputs["in"] == outputs["fresh"], argv
        assert outputs["in"][0] == 0 and outputs["in"][2] == ""
        configs.append(outputs["in"][3]["config"])
    assert [c["n"] for c in configs[:2]] == [7, None]
    bare = configs[3]
    assert bare["t"] == "1/3" and bare["seed"] is None
    assert cli.START_DEFAULTS.items() <= bare.items()
    assert configs[4]["t"] is None and configs[5]["angle"] is None


def test_sunburst_solve_large_n_returns(tmp_path):
    done = run_module(tmp_path, ["sunburst-solve", "--n", "200", "--seed",
                                 "1"], timeout=60)
    assert done.returncode == 0, done.stderr
    assert "convex=True" in done.stdout


@pytest.mark.parametrize("argv, code", [
    (["sunburst-solve", "--n", "2", "--seed", "1"], 2),
    (["sunburst-solve", "--free", "--n", "2", "--seed", "1"], 2),
    (["linkage-convert", "--n", "2", "--seed", "1"], 2),
    (["moduli-embed", "--n", "2", "--seed", "1"], 2),
    (["sunburst-solve", "--free", "--n", "200", "--seed", "1"], 0),
    (["linkage-convert", "--n", "200", "--seed", "1"], 0),
    (["moduli-embed", "--n", "200", "--seed", "1"], 0),
    (["grid-orbit", "--t", "7/11", "--max-steps", "1000"], 0),
    (["grid-portrait", "--resolution", "4x4", "--max-steps", "200"], 0),
    (["grid-orbit", "--frac-a", "0"], 2),
    (["grid-orbit", "--frac-a", "2"], 2),
    (["grid-orbit", "--t", "1"], 2),
    (["grid-orbit", "--t", "-1"], 2),
    (["grid-portrait", "--t", "1"], 2),
    (["grid-portrait", "--t", "0", "--edge-b", "h:0:0", "--resolution",
      "2x2"], 2),
    (["grid-orbit", "--angle", "pi/2", "--max-steps", "300"], 2),
    (["grid-orbit", "--angle", "pi"], 2),
    (["grid-orbit", "--t", "1/3", "--max-steps", "-1"], 2),
    (["grid-portrait", "--max-steps", "-1"], 2),
    (["grid-orbit", "--t", "1/3", "--max-steps", "0"], 0),
])
def test_polygon_commands_finish_in_bounded_time(tmp_path, argv, code):
    done = run_module(tmp_path, argv, timeout=20)
    assert done.returncode == code, done.stderr


@pytest.mark.parametrize("command, data", [
    ("sunburst-solve", {"a": 1}),
    ("sunburst-solve", [0, "x", 2]),
    ("sunburst-solve", [0, 2, 4, None]),
    ("linkage-convert", []),
    ("moduli-embed", [[0, 0], [1, 0], [0.5]]),
    ("sunburst-solve", 5),
    ("linkage-convert", [[0, 0], [1, 0], [None, 1]]),
    ("linkage-convert", [[0, 0], [1, 0], [True, 1]]),
])
def test_malformed_input_files_exit_two(tmp_path, capsys, command, data):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("command", ["sunburst-solve", "linkage-convert",
                                     "moduli-embed"])
@pytest.mark.parametrize("text", ["", "[1, 2"])
def test_input_files_that_are_not_json_exit_two_naming_the_file(
        tmp_path, capsys, command, text):
    path = tmp_path / "in.json"
    jpath = tmp_path / "out.json"
    path.write_text(text)
    assert cli.main([command, str(path), "--json", str(jpath)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path} is not JSON: ")
    assert not jpath.exists()


def test_sunburst_solve_refuses_unequal_ray_counts(tmp_path, capsys):
    apath, bpath = tmp_path / "a.json", tmp_path / "b.json"
    jpath = tmp_path / "out.json"
    # Six rays against five: without the count check, A's sixth ray
    # would index past B's rays.
    for path, n in ((apath, 6), (bpath, 5)):
        serialize.write_json([math.tau * k / n for k in range(n)], path)
    assert cli.main(["sunburst-solve", str(apath), str(bpath),
                     "--json", str(jpath)]) == 2
    assert capsys.readouterr().err == (
        "error: paired sunbursts must have equal ray counts\n")
    assert not jpath.exists()


def test_sunburst_solve_rejects_boolean_angles(tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps([True, 3.0, 5.0]))
    assert cli.main(["sunburst-solve", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_sunburst_solve_accepts_a_gap_just_under_pi(tmp_path):
    """One gap is just under pi, so one chord runs nearly along its ray
    and an iterated orbit loses three digits; the closed-form holonomy
    does not, and the printed closure shows the loss."""
    path = tmp_path / "in.json"
    path.write_text(json.dumps([2.0, 2.0 + 2 * math.pi * 1.998 / 3.998,
                                2.0 + 2 * math.pi * 2.998 / 3.998]))
    assert cli.main(["sunburst-solve", str(path)]) == 0


@pytest.mark.parametrize("angles", UNSOLVABLE_SUNBURSTS)
def test_sunburst_solve_refuses_a_phase_it_cannot_reach(tmp_path, capsys,
                                                        angles):
    apath = tmp_path / "a.json"
    jpath = tmp_path / "out.json"
    serialize.write_json(angles, apath)
    assert cli.main(["sunburst-solve", str(apath), "--json", str(jpath)]) == 2
    assert capsys.readouterr().err.startswith("error: phase solve stalls at "
                                              "|log h| = ")
    assert not jpath.exists()


def test_sunburst_solve_writes_the_input_angles_back(tmp_path, capsys):
    """Also for a sunburst whose phase exceeds tau: the printed log h is
    the one at the phase written out."""
    for angles in ([0.5, 2.0, 3.5, 5.0], STRADDLING_SUNBURST):
        apath = tmp_path / "a.json"
        jpath = tmp_path / "out.json"
        serialize.write_json(angles, apath)
        assert cli.main(["sunburst-solve", str(apath),
                         "--json", str(jpath)]) == 0
        payload = json.loads(jpath.read_text())
        written = payload["a"]
        assert len(written) == 4
        assert all(abs(w - t) <= 1e-15 for w, t in zip(written, angles))
        lo = payload["interval"]["lo"]
        assert lo < payload["theta"] < lo + payload["interval"]["width"]
        log_h = capsys.readouterr().out.split("log_h=")[1].split()[0]
        assert abs(float(log_h)) <= 1e-12


@pytest.mark.parametrize("n", [4, 6])
def test_moduli_embed_writes_every_disk_coordinate(tmp_path, capsys, n):
    jpath = tmp_path / "disk.json"
    spath = tmp_path / "disk.svg"
    assert cli.main(["moduli-embed", "--n", str(n), "--seed", "4",
                     "--json", str(jpath), "--out", str(spath)]) == 0
    disk = json.loads(jpath.read_text())["disk"]
    assert len(disk) == n - 3
    assert sum(c * c for c in disk) < 1.0
    printed = capsys.readouterr().out.split("disk=(")[1]
    assert printed.count(",") == n - 4
    ET.parse(spath)
