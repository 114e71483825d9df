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

from symtiling import cli, moduli, serialize
from symtiling.linkage import regular_equilateral

GREEN = bytes(cli.VERDICT_COLORS["periodic"])
BLUE = bytes(cli.VERDICT_COLORS["bounded-attracted"])


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
        if value is True:
            argv.append(flag)
        elif value is not None and value is not False:
            argv += [flag, str(value)]
    return argv


def test_grid_orbit_json_replays_exactly(tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    for argv in (["grid-orbit", "--t", "7/11", "--seed", "2",
                  "--max-steps", "120"],
                 ["grid-orbit", "--float", "--angle", "pi/5",
                  "--frac-a", "0.31", "--side-b", "-1", "--max-steps", "60"]):
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
    code = cli.main(["grid-orbit", "--float", "--angle", "pi/4",
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


def test_grid_orbit_io_failure_exits_one(tmp_path):
    missing = tmp_path / "no" / "such" / "dir" / "orbit.json"
    assert cli.main(["grid-orbit", "--t", "1/3", "--seed", "5",
                     "--max-steps", "50", "--json", str(missing)]) == 1


def test_portrait_float_diagonal_all_periodic(tmp_path):
    ppath = tmp_path / "p.ppm"
    code = cli.main(["grid-portrait", "--float", "--angle", "pi/4",
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
    cli.write_ppm(ppath, rows)
    _, _, pixels = read_ppm(ppath)
    assert pixels == GREEN + bytes(cli.VERDICT_COLORS["singular"])


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


def test_sunburst_solve_empty_interval_exits_two(tmp_path, capsys):
    code = cli.main(["sunburst-solve", "--free", "--n", "3", "--seed", "1",
                     "--json", str(tmp_path / "s.json")])
    assert code == 2
    assert "empty" in capsys.readouterr().err.lower()


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
    ref = moduli.reference_point(moduli.area_form(60))
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
    with pytest.raises(ValueError):
        cli.parse_resolution("3x0")


def test_grid_portrait_config_records_every_flag(tmp_path):
    jpath = tmp_path / "p.json"
    assert cli.main(["grid-portrait", "--float", "--angle", "pi/5",
                     "--edge-a", "h:0:0", "--resolution", "2x2",
                     "--max-steps", "20", "--out", str(tmp_path / "p.ppm"),
                     "--json", str(jpath)]) == 0
    config = json.loads(jpath.read_text())["config"]
    assert config["command"] == "grid-portrait"
    assert config["float"] is True
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
    ["grid-portrait", "--tol", "1e-9"],
    ["sunburst-solve", "--tol", "1e-9"],
    ["linkage-convert", "--tol", "1e-9"],
    ["moduli-embed", "--tol", "1e-9"],
    ["pentagon-verify", "--tol", "1e-9"],
])
def test_parser_rejects_flags_that_do_nothing(argv):
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["grid-orbit", "--angle", "pi/4", "--max-steps", "20"],
    ["grid-portrait", "--angle", "pi/4", "--resolution", "2x2",
     "--max-steps", "20"],
])
def test_angle_without_float_exits_two(tmp_path, capsys, argv):
    jpath = tmp_path / "run.json"
    assert cli.main(argv + ["--json", str(jpath)]) == 2
    assert "--angle needs --float" in capsys.readouterr().err
    assert not jpath.exists()


def run_module(tmp_path, argv, timeout):
    """The CLI as a fresh `python -m symtiling` process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "symtiling"] + argv,
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=timeout)


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
    ("sunburst-solve", [2.0, 2.0 + 2 * math.pi * 1.998 / 3.998,
                        2.0 + 2 * math.pi * 2.998 / 3.998]),
])
def test_malformed_input_files_exit_two(tmp_path, capsys, command, data):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    assert cli.main([command, str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_sunburst_solve_writes_the_input_angles_back(tmp_path):
    angles = [0.5, 2.0, 3.5, 5.0]
    apath = tmp_path / "a.json"
    jpath = tmp_path / "out.json"
    serialize.write_json(angles, apath)
    assert cli.main(["sunburst-solve", str(apath), "--json", str(jpath)]) == 0
    written = json.loads(jpath.read_text())["a"]
    assert len(written) == 4
    assert all(abs(w - t) <= 1e-15 for w, t in zip(written, angles))


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
