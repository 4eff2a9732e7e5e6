"""CLI commands: formats, determinism, exit codes."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qgraph
from qgraph import LengthVector, save_graph, verify
from qgraph.cli import main
from qgraph.families import flower, loop, mandarin, necklace, random_lengths, star, stower

PI = math.pi


# the child process imports the qgraph this one imported
SRC = str(Path(qgraph.__file__).resolve().parents[1])


def run_cli(args):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "qgraph.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
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


def test_dispersion_csv_rows_with_few_levels_keep_every_field(star3_file, capsys):
    # below k_max = 1 the rows of star(3) hold one or two levels, and the
    # theta = pi row none but its ground state; the missing levels are empty fields
    main(["dispersion", "--graph", star3_file, "--vertex", "1", "--grid", "4", "--kmax", "1.0"])
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["theta", "k0", "k1", "k2", "k3", "k4", "k5"]
    assert len(rows) == 5 and all(len(row) == 7 for row in rows)
    assert [bool(row[1]) for row in rows[1:]] == [True, True, True, False]
    assert all(row[2:] == [""] * 5 for row in rows[1:])
    assert rows[-1][0] == "3.14159265359"


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


def test_spectrum_lists_a_level_at_zero_of_a_delta_graph(tmp_path):
    # f = 1 + x / 2 on the unit interval meets the couplings 1/2 and -1/3 at
    # its ends: lambda = 0 is a level, which the floors' count noise listed
    # as k = 1.56e-6 before the count at lambda = 0 came from M0
    path = tmp_path / "zero_mode.json"
    path.write_text('{"vertices": 2, "edges": [[0, 1]], "lengths": [1.0], "conditions": '
                    '{"0": {"delta_theta": 0.9272952180016122}, "1": {"delta_theta": -0.6435011087932844}}}')
    code, out, err = run_cli(["spectrum", "--graph", str(path), "--kmax", "5"])
    assert (code, err) == (0, "")
    assert out == "n,k,multiplicity\n0,0,1\n1,3.19290695727,1\n"


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


def test_conditions_on_a_contracted_graph_are_rejected(tmp_path):
    # contraction keeps Neumann conditions only; a Dirichlet end must not
    # silently turn into the Neumann interval (levels 0, pi, ...)
    doc = '{"vertices": 3, "edges": [[0, 1], [1, 2]], "lengths": [1.0, 0.0], "conditions": %s}'
    path = tmp_path / "contracted.json"
    path.write_text(doc % '{"0": "dirichlet"}')
    code, out, err = run_cli(["spectrum", "--graph", str(path), "--kmax", "5"])
    assert code != 0
    assert out == ""
    assert "InvalidInputError: cannot carry vertex conditions through contraction" in err
    path.write_text(doc % '{"0": "neumann"}')
    code, out, _ = run_cli(["spectrum", "--graph", str(path), "--kmax", "5"])
    assert code == 0
    assert out == "n,k,multiplicity\n0,0,1\n1,3.14159265359,1\n"


# (document, command, extra arguments): the document is written to the
# --graph path, which is left missing when it is None; "GRAPH" among the
# extra arguments stands for that path
BAD_INPUT = {
    "nan-length": ('{"vertices": 2, "edges": [[0, 1], [0, 1]], "lengths": [NaN, 0.5]}', "spectrum"),
    "unknown-vertex": ('{"vertices": 2, "edges": [[0, 1]], "conditions": {"5": "dirichlet"}}', "spectrum"),
    "contracted-dirichlet": ('{"vertices": 3, "edges": [[0, 1], [1, 2]], "lengths": [1.0, 0.0], '
                             '"conditions": {"0": "dirichlet"}}', "spectrum"),
    "negative-vertex-id": ('{"vertices": 2, "edges": [[0, 1]]}', "dispersion", "--vertex", "-1"),
    "glue-unknown-vertex2": ('{"vertices": 2, "edges": [[0, 1]]}', "glue", "--graph2", "GRAPH",
                             "--vertex2", "5"),
    "glue-negative-vertex": ('{"vertices": 2, "edges": [[0, 1]]}', "glue", "--graph2", "GRAPH",
                             "--vertex", "-1"),
    "missing-file": (None, "spectrum"),
    "truncated-json": ('{"vertices": 2,', "spectrum"),
    "spectrum-kmax-nan": ('{"vertices": 2, "edges": [[0, 1]]}', "spectrum", "--kmax", "nan"),
    "spectrum-kmax-inf": ('{"vertices": 2, "edges": [[0, 1]]}', "spectrum", "--kmax", "inf"),
    "dispersion-kmax-nan": ('{"vertices": 2, "edges": [[0, 1]]}', "dispersion", "--vertex", "0",
                            "--kmax", "nan"),
    "eigenfunction-k-nan": ('{"vertices": 2, "edges": [[0, 1]]}', "eigenfunction", "--k", "nan"),
    "string-length": ('{"vertices": 2, "edges": [[0, 1]], "lengths": ["a"]}', "spectrum", "--kmax", "5"),
    "bool-length": ('{"vertices": 2, "edges": [[0, 1]], "lengths": [true]}', "spectrum", "--kmax", "5"),
    "negative-length": ('{"vertices": 2, "edges": [[0, 1], [0, 1]], "lengths": [-0.5, 1.5]}',
                        "spectrum", "--kmax", "5"),
    "infinite-length": ('{"vertices": 2, "edges": [[0, 1], [0, 1]], "lengths": [Infinity, 0.5]}',
                        "spectrum", "--kmax", "5"),
    "string-delta-theta": ('{"vertices": 2, "edges": [[0, 1]], "conditions": {"0": {"delta_theta": "x"}}}',
                           "spectrum", "--kmax", "5"),
    "numeric-string-delta-theta": ('{"vertices": 2, "edges": [[0, 1]], '
                                   '"conditions": {"0": {"delta_theta": "1.5"}}}', "spectrum", "--kmax", "5"),
    "condition-key-not-a-vertex": ('{"vertices": 2, "edges": [[0, 1]], "conditions": {"x": "dirichlet"}}',
                                   "spectrum", "--kmax", "5"),
    "fractional-vertex-id": ('{"vertices": 2, "edges": [[0, 1.9], [0, 1]]}', "spectrum", "--kmax", "5"),
    "fractional-vertex-count": ('{"vertices": 2.5, "edges": [[0, 1]]}', "spectrum", "--kmax", "5"),
    "bool-vertex-id": ('{"vertices": 2, "edges": [[true, 0]]}', "spectrum", "--kmax", "5"),
    "optimize-negative-seed": ('{"vertices": 2, "edges": [[0, 1]]}', "optimize", "--seed", "-1"),
    "eigenfunction-negative-grid": ('{"vertices": 2, "edges": [[0, 1]]}', "eigenfunction", "--grid", "-1"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT))
def test_bad_input_exits_2_with_one_line(case, tmp_path):
    doc, command, *extra = BAD_INPUT[case]
    path = tmp_path / "bad.json"
    if doc is not None:
        path.write_text(doc)
    extra = [str(path) if arg == "GRAPH" else arg for arg in extra]
    code, out, err = run_cli([command, "--graph", str(path), *extra])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("qgraph: InvalidInputError: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["infimum"], ["spectrum"], ["optimize"], ["sgp", "--vertex", "0"]])
def test_edgeless_graph_exits_2_with_one_line(command, tmp_path):
    # an edgeless graph is refused where it is built, before any solver divides by E = 0
    path = tmp_path / "edgeless.json"
    path.write_text('{"vertices": 1, "edges": []}')
    code, out, err = run_cli([command[0], "--graph", str(path), *command[1:]])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("qgraph: GraphStructureError: graph needs at least one edge") and err.count("\n") == 1


def test_verify_unknown_suite_exits_2_with_one_line():
    # exit code 1 is a failed verification; an unknown suite is bad input
    code, out, err = run_cli(["verify", "--suite", "nope"])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("qgraph: InvalidInputError: unknown suite nope") and err.count("\n") == 1


@pytest.mark.parametrize("command", [["spectrum", "--graph", "GRAPH", "--kmax", "5"], ["verify", "--suite", "A1"]])
def test_unwritable_output_exits_2_with_one_line(command, star3_file, tmp_path):
    # exit code 1 is a failed verification; an --out that cannot be opened is bad input
    out_path = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli([star3_file if arg == "GRAPH" else arg for arg in command] + ["--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith(f"qgraph: InvalidInputError: cannot write output file {out_path}: ")
    assert err.count("\n") == 1


# stdout of `qgraph sgp`, byte for byte: floats are printed exactly, so any
# change in the solver's arithmetic shows here.  k1 is a pole of the vertex
# function in the three "violates" cases, where theta_SG is 2 pi exactly
SGP_OUTPUT = {
    "star4-v0": (star(4), 0, """{
  "vertex": 0,
  "theta_sg": 3.141592653589793,
  "classification": "strong",
  "k1": 6.283185307179584,
  "k1_multiplicity": 3,
  "dirichlet_k0": 6.283185307179583,
  "dirichlet_multiplicity": 4,
  "k1_is_flat_band": true
}
"""),
    "mandarin2-v0": (mandarin(2), 0, """{
  "vertex": 0,
  "theta_sg": 6.283185307179586,
  "classification": "violates",
  "k1": 6.283185307179586,
  "k1_multiplicity": 2,
  "dirichlet_k0": 3.141592653589794,
  "dirichlet_multiplicity": 0,
  "k1_is_flat_band": true
}
"""),
    "necklace2-v0": (necklace(2), 0, """{
  "vertex": 0,
  "theta_sg": 6.283185307179586,
  "classification": "violates",
  "k1": 6.28318530717959,
  "k1_multiplicity": 1,
  "dirichlet_k0": 3.1415926535897944,
  "dirichlet_multiplicity": 0,
  "k1_is_flat_band": false
}
"""),
    "stower21-v1": (stower(2, 1), 1, """{
  "vertex": 1,
  "theta_sg": 6.283185307179586,
  "classification": "violates",
  "k1": 7.853981633974483,
  "k1_multiplicity": 2,
  "dirichlet_k0": 2.3182380450040307,
  "dirichlet_multiplicity": 0,
  "k1_is_flat_band": true
}
"""),
}


@pytest.mark.parametrize("case", sorted(SGP_OUTPUT))
def test_sgp_output_is_pinned(case, tmp_path, capsys):
    (g, lv), vertex, expected = SGP_OUTPUT[case]
    path = tmp_path / "graph.json"
    save_graph(path, g, lv)
    assert main(["sgp", "--graph", str(path), "--vertex", str(vertex)]) == 0
    assert capsys.readouterr().out == expected


# stdout of `qgraph optimize --seed 1`, byte for byte: the trace prints every
# accepted gap exactly, so a changed decision or value anywhere in the
# ascent shows here.  stower(2, 1) from default_rng(1000) is the start whose
# ascent stalled 8.3e-6 short of 5 pi / 2 until the bundle step landed it
# on the crossing, 4e-14 from it.  Its given start now ends on 5 pi / 2
# itself, at (0.4, 0.4, 0.2), by a last step that gains less than
# IMPROVE_TOL but reaches the proven bound, so no restart runs.  stower(1, 2) starts on the boundary, with its
# dangling edge contracted
OPTIMIZE_OUTPUT = {
    "star4-random": ((star(4)[0], random_lengths(np.random.default_rng(1), 4)), """\
{
  "lengths": [
    0.25,
    0.25,
    0.25,
    0.25
  ],
  "gap": 6.283185307179584,
  "classification": "maximizer-candidate",
  "trace": [
    {
      "gap": 3.297382270957866,
      "step": 0.0,
      "move": "init"
    },
    {
      "gap": 6.283185307179584,
      "step": 0.0,
      "move": "symmetrize"
    }
  ]
}
"""),
    "flower3-random": ((flower(3)[0], random_lengths(np.random.default_rng(2), 3)), """\
{
  "lengths": [
    0.3333333333333333,
    0.3333333333333333,
    0.3333333333333333
  ],
  "gap": 9.42477796076938,
  "classification": "maximizer-candidate",
  "trace": [
    {
      "gap": 7.062246245133261,
      "step": 0.0,
      "move": "init"
    },
    {
      "gap": 9.42477796076938,
      "step": 0.0,
      "move": "symmetrize"
    }
  ]
}
"""),
    "stower21-rng1000": ((stower(2, 1)[0], random_lengths(np.random.default_rng(1000), 3)), """\
{
  "lengths": [
    0.39999999999999997,
    0.39999999999999997,
    0.20000000000000012
  ],
  "gap": 7.853981633974481,
  "classification": "maximizer-candidate",
  "trace": [
    {
      "gap": 4.414832687650867,
      "step": 0.0,
      "move": "init"
    },
    {
      "gap": 4.432652649720628,
      "step": 0.0,
      "move": "symmetrize"
    },
    {
      "gap": 6.995250748848719,
      "step": 0.007712695457966489,
      "move": "gradient"
    },
    {
      "gap": 7.6947235119220965,
      "step": 0.0011240500319137836,
      "move": "gradient"
    },
    {
      "gap": 7.843700503579697,
      "step": 0.0001604157922275308,
      "move": "gradient"
    },
    {
      "gap": 7.853941065851559,
      "step": 1.0199365478365467e-05,
      "move": "gradient"
    },
    {
      "gap": 7.853981633345825,
      "step": 4.0193770629303686e-08,
      "move": "gradient"
    },
    {
      "gap": 7.853981633974481,
      "step": 6.228538892948814e-13,
      "move": "gradient"
    }
  ]
}
"""),
    "stower12-boundary": ((stower(1, 2)[0], LengthVector([0.5, 0.5, 0.0])), """\
{
  "lengths": [
    1.0,
    0.0,
    0.0
  ],
  "gap": 6.283185307179586,
  "classification": "supremizer-candidate",
  "trace": [
    {
      "gap": 3.8212664724980323,
      "step": 0.0,
      "move": "init"
    },
    {
      "gap": 6.2831853071175745,
      "step": 0.03874006467487755,
      "move": "gradient"
    },
    {
      "gap": 6.283185307179586,
      "step": 0.0,
      "move": "contract"
    }
  ]
}
"""),
}


@pytest.mark.parametrize("case", sorted(OPTIMIZE_OUTPUT))
def test_optimize_output_is_pinned(case, tmp_path, capsys):
    (g, lv), expected = OPTIMIZE_OUTPUT[case]
    path = tmp_path / "graph.json"
    save_graph(path, g, lv)
    assert main(["optimize", "--graph", str(path), "--seed", "1"]) == 0
    assert capsys.readouterr().out == expected


# stdout of `qgraph dispersion --grid 16`: star(3) at a leaf has three flat
# bands and a negative branch; flower(2) at its vertex has a delta level
# close to the double level 4 pi
DISPERSION_OUTPUT = {
    "star3-v1": (star(3), 1, """\
theta,k0,k1,k2,k3,k4,k5
-2.74889357189,-4.91497475472,2.62921621471,4.71238898038,8.9005536084,13.423898715,14.1371669412
-2.35619449019,-2.28663968613,3.52821322413,4.71238898038,9.16597314882,13.7909489332,14.1371669412
-1.96349540849,-1.53032250303,3.99968385685,4.71238898038,9.26431204108,13.9230984708,14.1371669412
-1.57079632679,-1.15359177076,4.2512523461,4.71238898038,9.31777489767,13.994523278,14.1371669412
-1.1780972451,-0.89659836398,4.4120357307,4.71238898038,9.35343553428,14.0420785815,14.1371669412
-0.785398163397,-0.680600320765,4.53007970956,4.71238898038,9.38064406395,14.0783417127,14.1371669412
-0.392699081699,-0.457875879671,4.62645874483,4.71238898038,9.40362768721,14.1089724391,14.1371669412
0,0,4.71238898038,4.71238898038,9.42477796077,14.1371669412,14.1371669412
0.392699081699,0.434855763426,4.71238898038,4.79529759674,9.44583375203,14.1371669412,14.1652494459
0.785398163397,0.611223365439,4.71238898038,4.88164111704,9.46850274481,14.1371669412,14.1955069519
1.1780972451,0.753603453913,4.71238898038,4.97901691124,9.49505902307,14.1371669412,14.2309950736
1.57079632679,0.888681999089,4.71238898038,5.09915742368,9.52941815869,14.1371669412,14.276998663
1.96349540849,1.03309534382,4.71238898038,5.26474216517,9.58002258441,14.1371669412,14.3449905855
2.35619449019,1.20675268103,4.71238898038,5.53042238701,9.67050896607,14.1371669412,14.4675274242
2.74889357189,1.44676233805,4.71238898038,6.07116927067,9.90224163283,14.1371669412,14.7898900355
3.14159265359,1.84643912601,4.71238898038,7.57833883476,11.2712170868,14.1371669412,17.0031167955
"""),
    "flower2-v0": (flower(2), 0, """\
theta,k0,k1,k2,k3,k4,k5
-2.74889357189,-2.36657692715,6.28318530718,12.1542059409,12.5663706144,12.5663706144,18.8495559215
-2.35619449019,-1.59394686529,6.28318530718,12.3713801683,12.5663706144,12.5663706144,18.8495559215
-1.96349540849,-1.24276049978,6.28318530718,12.4461604349,12.5663706144,12.5663706144,18.8495559215
-1.57079632679,-1.01053684035,6.28318530718,12.4862934957,12.5663706144,12.5663706144,18.8495559215
-1.1780972451,-0.823155120509,6.28318530718,12.5129749228,12.5663706144,12.5663706144,18.8495559215
-0.785398163397,-0.646384402261,6.28318530718,12.533322383,12.5663706144,12.5663706144,18.8495559215
-0.392699081699,-0.446922141916,6.28318530718,12.5505217652,12.5663706144,12.5663706144,18.8495559215
0,0,6.28318530718,12.5663706144,12.5663706144,12.5663706144,18.8495559215
0.392699081699,0.445073925598,6.28318530718,12.5663706144,12.5663706144,12.5821795869,18.8495559215
0.785398163397,0.640830463014,6.28318530718,12.5663706144,12.5663706144,12.5992459339,18.8495559215
1.1780972451,0.811775888082,6.28318530718,12.5663706144,12.5663706144,12.6193163995,18.8495559215
1.57079632679,0.989701860738,6.28318530718,12.5663706144,12.5663706144,12.6454402023,18.8495559215
1.96349540849,1.20461031001,6.28318530718,12.5663706144,12.5663706144,12.6843250133,18.8495559215
2.35619449019,1.51576215046,6.28318530718,12.5663706144,12.5663706144,12.7554980196,18.8495559215
2.74889357189,2.1312760026,6.28318530718,12.5663706144,12.5663706144,12.9532729366,18.8495559215
3.14159265359,6.28318530718,6.28318530718,12.5663706144,12.5663706144,18.8495559215,18.8495559215
"""),
}


@pytest.mark.parametrize("case", sorted(DISPERSION_OUTPUT))
def test_dispersion_output_is_pinned(case, tmp_path, capsys):
    (g, lv), vertex, expected = DISPERSION_OUTPUT[case]
    path = tmp_path / "graph.json"
    save_graph(path, g, lv)
    assert main(["dispersion", "--graph", str(path), "--vertex", str(vertex), "--grid", "16"]) == 0
    assert capsys.readouterr().out == expected


def test_round_trip_load_save(star3_file, tmp_path):
    from qgraph import load_graph

    g, lv, conds = load_graph(star3_file)
    again = tmp_path / "again.json"
    save_graph(again, g, lv, conds)
    g2, lv2, conds2 = load_graph(again)
    assert g2 == g and lv2 == lv and conds2 == conds
