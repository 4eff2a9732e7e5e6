"""JSON graph format round trips."""

import json
import math

import pytest

from qgraph import (
    DIRICHLET,
    NEUMANN,
    DeltaTheta,
    DiscreteGraph,
    InvalidInputError,
    LengthVector,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    save_graph,
)
from qgraph.families import star, stower


def test_round_trip_identity(tmp_path):
    g, lv = stower(2, 1)
    conditions = [DeltaTheta(1.25)] + [NEUMANN] * (g.vertex_count - 1)
    path = tmp_path / "g.json"
    save_graph(path, g, lv, conditions)
    g2, lv2, conds2 = load_graph(path)
    assert g2 == g
    assert lv2 == lv
    assert conds2[0] == DeltaTheta(1.25)
    path2 = tmp_path / "g2.json"
    save_graph(path2, g2, lv2, conds2)
    assert path.read_text() == path2.read_text()


def test_field_names_fixed(tmp_path):
    g, lv = star(3)
    path = tmp_path / "g.json"
    save_graph(path, g, lv, [DIRICHLET] + [NEUMANN] * 3)
    doc = json.loads(path.read_text())
    assert set(doc) == {"vertices", "edges", "lengths", "conditions"}
    assert doc["vertices"] == 4
    assert doc["edges"] == [[0, 1], [0, 2], [0, 3]]
    assert doc["conditions"] == {"0": "dirichlet"}


def test_lengths_default_equilateral():
    g, _, = star(4)
    doc = {"vertices": 5, "edges": [[0, 1], [0, 2], [0, 3], [0, 4]]}
    g2, lv, conds = graph_from_dict(doc)
    assert g2 == g
    assert lv.values.tolist() == [0.25] * 4
    assert all(c == NEUMANN for c in conds)


def test_delta_theta_condition_parses():
    doc = {
        "vertices": 2,
        "edges": [[0, 1]],
        "conditions": {"1": {"delta_theta": math.pi / 3}},
    }
    _, _, conds = graph_from_dict(doc)
    assert conds[1] == DeltaTheta(math.pi / 3)


def test_unknown_condition_rejected():
    doc = {"vertices": 2, "edges": [[0, 1]], "conditions": {"0": "robin"}}
    with pytest.raises(InvalidInputError):
        graph_from_dict(doc)


def test_length_count_mismatch_rejected():
    doc = {"vertices": 2, "edges": [[0, 1]], "lengths": [0.5, 0.5]}
    with pytest.raises(InvalidInputError):
        graph_from_dict(doc)


@pytest.mark.parametrize("doc", [
    {"vertices": 2, "edges": [[0, 1], [0, 1]], "lengths": [math.nan, 1.0]},
    {"vertices": 2, "edges": [[0, 1], [0, 1]], "lengths": [math.inf, 0.5]},
    {"vertices": 2, "edges": [[0, 1]], "conditions": {"0": {"delta_theta": math.nan}}},
    {"vertices": 2, "edges": [[0, math.nan]]},
])
def test_non_finite_document_rejected(doc):
    with pytest.raises(InvalidInputError):
        graph_from_dict(doc)


def test_bad_save_leaves_the_file_as_it_was(tmp_path):
    # the document is checked and built before the file is opened
    g = DiscreteGraph(2, [(0, 1)])
    path = tmp_path / "keep.json"
    save_graph(path, g)
    before = path.read_text()
    for bad in ({"conditions": ["x", "y"]}, {"conditions": [NEUMANN]},
                {"lengths": LengthVector([0.5, 0.5])}):
        with pytest.raises(InvalidInputError):
            save_graph(path, g, **bad)
    assert path.read_text() == before
    with pytest.raises(InvalidInputError):
        graph_to_dict(g, None, [])


@pytest.mark.parametrize("doc, match", [
    ({"edges": [[0, 1]]}, "missing field 'vertices'"),
    ({"vertices": 2}, "missing field 'edges'"),
    ([2, [[0, 1]]], "must be a JSON object"),
    ("graph", "must be a JSON object"),
    ({"vertices": 2, "edges": 5}, "malformed vertex or edge"),
    ({"vertices": 2, "edges": [[0]]}, "malformed vertex or edge"),
    ({"vertices": 2, "edges": [[0, 1, 1]]}, "malformed vertex or edge"),
    ({"vertices": 2, "edges": [[0, 1]], "lengths": 1.0}, "lengths must be a list of numbers"),
    ({"vertices": 2, "edges": [[0, 1]], "lengths": [0.5, 0.5]}, "lengths do not match edge count"),
    ({"vertices": 2, "edges": [[0, 1]], "conditions": [0.5]}, "conditions must be an object"),
    ({"vertices": 2, "edges": [[0, 1]], "conditions": {"-1": 0.5}}, "condition key '-1' is not a vertex id"),
    ({"vertices": 2, "edges": [[0, 1]], "conditions": {"v0": 0.5}}, "condition key 'v0' is not a vertex id"),
    ({"vertices": 2, "edges": [[0, 1]], "conditions": {"2": 0.5}}, "condition for unknown vertex 2"),
])
def test_malformed_graph_documents_rejected(doc, match):
    with pytest.raises(InvalidInputError, match=match):
        graph_from_dict(doc)
