"""CLI commands: formats, determinism, exit codes."""

import json
import math
import subprocess
import sys

import pytest

from qgraph import save_graph, verify
from qgraph.cli import main
from qgraph.families import flower, loop, star

PI = math.pi


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "qgraph.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture
def star3_file(tmp_path):
    g, lv = star(3)
    path = tmp_path / "star3.json"
    save_graph(path, g, lv)
    return str(path)


@pytest.fixture
def loop_file(tmp_path):
    g, lv = loop()
    path = tmp_path / "loop.json"
    save_graph(path, g, lv)
    return str(path)


def test_spectrum_star3_row(star3_file):
    code = main(["spectrum", "--graph", star3_file, "--kmax", "6"])
    assert code == 0


def test_spectrum_csv_content(star3_file, capsys):
    main(["spectrum", "--graph", star3_file, "--kmax", "6"])
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "n,k,multiplicity"
    assert out[1] == "0,0,1"
    n, k, mult = out[2].split(",")
    assert (n, mult) == ("1", "2")
    assert float(k) == pytest.approx(1.5 * PI, abs=1e-9)
    assert k == "4.71238898038"  # 12 significant digits


def test_spectrum_deterministic(star3_file, loop_file, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    main(["spectrum", "--graph", star3_file, "--kmax", "8", "--out", str(out1)])
    main(["spectrum", "--graph", star3_file, "--kmax", "8", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()
    # a theta grid, in two separate processes
    dispersion = ["dispersion", "--graph", loop_file, "--vertex", "0", "--grid", "8"]
    first, second = run_cli(dispersion), run_cli(dispersion)
    assert first[0] == 0 and first[1].startswith("theta,k0")
    assert first == second


def test_eigenfunction_csv(star3_file, capsys):
    main(["eigenfunction", "--graph", star3_file, "--grid", "9"])
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "edge,x,f"
    assert len(out) == 1 + 3 * 9
    edge, x, f = out[1].split(",")
    assert edge == "0" and float(x) == 0.0


def test_optimize_json(star3_file, capsys):
    main(["optimize", "--graph", star3_file, "--seed", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"lengths", "gap", "classification", "trace"}
    assert doc["gap"] == pytest.approx(1.5 * PI, abs=1e-6)
    assert doc["trace"][0]["move"] == "init"


def test_infimum_json(star3_file, capsys):
    main(["infimum", "--graph", star3_file])
    doc = json.loads(capsys.readouterr().out)
    assert doc["gap"] == pytest.approx(PI, abs=1e-9)
    assert sorted(doc["lengths"]) == [0.0, 0.0, 1.0]


def test_dispersion_csv_interlaces(loop_file, capsys):
    main(["dispersion", "--graph", loop_file, "--vertex", "0", "--grid", "8"])
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "theta,k0,k1,k2,k3,k4,k5"
    table = [[float(x) for x in row.split(",")] for row in rows[1:]]
    assert len(table) == 8
    for i in range(len(table)):
        for j in range(i + 1, len(table)):
            assert table[i][0] < table[j][0]
            lo, hi = table[i][1:], table[j][1:]
            assert all(h >= l - 1e-8 for l, h in zip(lo, hi))
            assert all(l2 >= h - 1e-8 for l2, h in zip(lo[1:], hi))


def test_sgp_json(star3_file, capsys):
    main(["sgp", "--graph", star3_file, "--vertex", "0"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["classification"] == "strong"
    assert doc["theta_sg"] == pytest.approx(PI, abs=1e-6)


def test_glue_graphs(tmp_path, capsys):
    g2, lv2 = flower(2)
    g3, lv3 = flower(3)
    p2, p3 = tmp_path / "f2.json", tmp_path / "f3.json"
    save_graph(p2, g2, lv2)
    save_graph(p3, g3, lv3)
    main(["glue", "--graph", str(p2), "--graph2", str(p3)])
    doc = json.loads(capsys.readouterr().out)
    assert doc["vertices"] == 1
    assert len(doc["edges"]) == 5
    assert sum(doc["lengths"]) == pytest.approx(1.0, abs=1e-12)
    assert sorted(doc["lengths"]) == pytest.approx([0.2] * 5, abs=1e-12)


def test_catalog_command(capsys):
    main(["catalog"])
    rows = capsys.readouterr().out.strip().splitlines()
    assert rows[0] == "family,params,gap_closed_form,gap_computed,multiplicity_computed"
    for row in rows[1:]:
        fields = row.split(",")
        assert abs(float(fields[2]) - float(fields[3])) <= 1e-8


def test_verify_catalog_suite_passes(capsys):
    code = main(["verify", "--suite", "catalog"])
    out = capsys.readouterr().out
    assert code == 0
    assert "CAT PASS" in out
    assert out.strip().endswith("verification PASSED")


def test_verify_single_criterion(capsys):
    code = main(["verify", "--suite", "A1"])
    assert code == 0
    assert "A1 PASS" in capsys.readouterr().out


def test_verify_failure_exit_code(capsys, monkeypatch):
    # a registered criterion that always records one failure exercises the
    # failure path without depending on any real criterion being red
    def check_always_fails(seed):
        c = verify._Check()
        c.expect(False, "deliberate failure")
        return c

    monkeypatch.setitem(verify.CRITERIA, "RED", ("always fails", check_always_fails))
    code = main(["verify", "--suite", "RED"])
    out = capsys.readouterr().out
    assert code == 1
    assert "RED FAIL" in out
    assert "\n    deliberate failure\n" in out
    assert out.strip().endswith("verification FAILED")


def test_parse_error_exit_code():
    code, _, err = run_cli(["spectrum"])  # missing --graph
    assert code == 2
    assert "--graph" in err


def test_nan_length_is_rejected(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"vertices": 2, "edges": [[0, 1], [0, 1]], "lengths": [NaN, 0.5]}')
    code, out, err = run_cli(["spectrum", "--graph", str(path)])
    assert code != 0
    assert out == ""
    assert "InvalidInputError: edge lengths must be finite" in err


def test_round_trip_load_save(star3_file, tmp_path):
    from qgraph import load_graph

    g, lv, conds = load_graph(star3_file)
    again = tmp_path / "again.json"
    save_graph(again, g, lv, conds)
    g2, lv2, conds2 = load_graph(again)
    assert g2 == g and lv2 == lv and conds2 == conds
