import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from tilegraphs import ValidationError, build_skeleton, import_prw
from tilegraphs.serialize import (
    basic_data_from_dict,
    basic_data_to_dict,
    census_to_csv,
    census_to_rows,
    dumps,
    prw_from_dict,
    report_to_dict,
    vertex_to_dict,
)
from tilegraphs import entropy_sequence, simplicity_report

from conftest import load_corpus
from test_graph import modular_rule


@pytest.mark.parametrize("name", ["ledrappier", "square", "rem3", "flat"])
def test_basic_data_round_trip(name):
    doc = load_corpus(name)
    bd = basic_data_from_dict(doc)
    assert basic_data_to_dict(bd) == doc


def test_degenerate_round_trip():
    doc = {"alphabet": ["0", "1"], "tile": [[0, 0]], "distinguished": "1"}
    bd = basic_data_from_dict(doc)
    assert bd.degenerate
    assert basic_data_to_dict(bd) == doc


def test_imported_rule_serialises_to_the_schema():
    params = prw_from_dict(load_corpus("prw-ledrappier"))
    doc = basic_data_to_dict(import_prw(params))
    assert doc == load_corpus("ledrappier")


def test_missing_fields_rejected():
    with pytest.raises(ValidationError):
        basic_data_from_dict({"alphabet": ["0"]})
    with pytest.raises(ValidationError):
        prw_from_dict({"tile": [[0, 0]], "q": 2, "t": 0})


def test_bad_point_key_rejected():
    with pytest.raises(ValidationError):
        prw_from_dict(
            {"tile": [[0, 0]], "q": 2, "t": 0, "w": {"zero": 1}}
        )


def test_report_dict_shape(ledrappier, ledrappier_sk):
    doc = report_to_dict(simplicity_report(ledrappier, skeleton=ledrappier_sk))
    assert set(doc) == {
        "verdict",
        "certificate",
        "witness_note",
        "strongly_connected",
        "k",
        "cofinal",
        "flags",
        "justifications",
        "notes",
    }
    cert = doc["certificate"]
    assert set(cert) == {"colour", "symbol", "kind", "vertices"}
    assert cert["vertices"][0] == {"0,0": "0", "0,1": "0", "1,0": "0"}
    json.dumps(doc)  # must be JSON-serialisable as-is


def test_census_rows_and_csv(ledrappier, ledrappier_sk):
    census = entropy_sequence(ledrappier, 3, skeleton=ledrappier_sk)
    rows = census_to_rows(census)
    assert [r["count"] for r in rows] == ["16", "64", "256"]
    csv_text = census_to_csv(census)
    lines = csv_text.strip().splitlines()
    assert lines[0] == "d,count,log_count,entropy_term"
    assert len(lines) == 4


def twin_dumps(doc):
    """The definitional encoder: the stdlib's pure-Python indenting one."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def test_dumps_is_deterministic():
    doc = {"b": 1, "a": [2, 1], "c": {"y": 0.5, "x": None}}
    assert dumps(doc) == dumps(json.loads(dumps(doc)))
    assert dumps(doc) == twin_dumps(doc)
    # Tuples render as lists, so the edge lists need no copy.
    rows = {"e": ((0, 1), (2, 3)), "f": [(4,)], "g": ()}
    assert dumps(rows) == dumps(json.loads(dumps(rows))) == twin_dumps(rows)


class SubDict(dict):
    pass


class SubList(list):
    pass


SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([10**60, -(2**64), math.nan, math.inf, -math.inf, -0.0])
    | st.floats()
    | st.text(max_size=6)
    | st.text(st.characters(max_codepoint=0x1F) | st.sampled_from('é€😀\u2028"\\'))
)


@st.composite
def int_rows(draw):
    """Lists of rows of one width, some of them bool-mixed or tuples, and
    now and then a ragged row appended."""
    width = draw(st.integers(0, 3))
    item = st.integers() | st.booleans() if draw(st.booleans()) else st.integers()
    row = st.lists(item, min_size=width, max_size=width)
    rows = draw(st.lists(row | row.map(tuple), max_size=4))
    if draw(st.booleans()):
        rows.append(draw(st.lists(item, max_size=4)))
    return tuple(rows) if draw(st.booleans()) else rows


def containers(inner):
    items = st.lists(inner, max_size=4)
    mapping = st.dictionaries(st.text(max_size=4), inner, max_size=4)
    return (
        items
        | items.map(tuple)
        | items.map(SubList)
        | mapping
        | mapping.map(SubDict)
    )


DOCUMENTS = st.recursive(SCALARS | int_rows(), containers, max_leaves=24)


@given(DOCUMENTS)
@settings(max_examples=400, deadline=None)
def test_dumps_matches_the_stdlib_encoder(doc):
    assert dumps(doc) == twin_dumps(doc)


def test_skeleton_document_at_the_vertex_cap_matches_the_stdlib_encoder():
    bd = import_prw(modular_rule([(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (0, 2)]))
    sk = build_skeleton(bd)
    vertices = [vertex_to_dict(v) for v in sk.vertices]
    assert len(vertices) == 1024
    # Edge tuples as the skeleton command passes them, against lists of lists.
    doc = {"vertices": vertices, "blue_edges": sk.blue, "red_edges": sk.red}
    copied = {
        "vertices": vertices,
        "blue_edges": [list(e) for e in sk.blue],
        "red_edges": [list(e) for e in sk.red],
    }
    assert dumps(doc) == twin_dumps(copied)
