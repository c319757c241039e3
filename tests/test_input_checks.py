"""Every reader of outside input accepts a value or raises its one error type, and nothing else.

Each reader gets arbitrary JSON values and valid documents with one part
replaced by an arbitrary value or removed.
"""

import copy
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pemkit import cli
from pemkit.checks import is_file_name, is_int, is_number, require_each
from pemkit.dataset import DatasetFormatError, load_dataset
from pemkit.geometry import GridSpec
from pemkit.model import ModelFormatError, model_from_dict, model_to_dict, never_detect_model
from pemkit.protocol import ProtocolError, parse_request
from pemkit.sim import merge_reports, render_table
from pemkit.sim.experiment import ExperimentReport
from pemkit.sim.world import scenario_from_dict

leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, 1, -1, 2**63, 2**64, 10**400, -(10**400)])
    | st.floats()
    | st.text(max_size=4)
)
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _paths(doc, prefix=()):
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, (*prefix, key))


def mutations(valid):
    """``valid`` with the value at one path replaced by an arbitrary JSON value or, in an object, removed."""

    @st.composite
    def mutate(draw):
        doc = copy.deepcopy(valid)
        path = draw(st.sampled_from(list(_paths(doc))))
        value = draw(json_values)
        if not path:
            return value
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return doc

    return mutate()


def edited(valid, edit):
    doc = copy.deepcopy(valid)
    edit(doc)
    return doc


def inputs(valid):
    return json_values | mutations(valid) | st.just(valid)


VALID_MODEL = model_to_dict(never_detect_model(GridSpec(90.0, 10.0, 20.0)))
VALID_ROW = {"scene": 0, "t": 0, "gt": [{"id": 1, "x": 1.0, "y": 5.0, "occ": 3}], "det": [{"x": 1.1, "y": 5.2}]}
VALID_SCENARIO = {"id": "TC3", "cruise_speed": 8.0, "walk_speed": 1.2, "tick_rate_hz": 10}
VALID_POLICY = {"comfort_accel": 1.0, "max_decel": 5.0, "headway_s": 1.0}
VALID_REPORT = {
    "cells": [
        {
            "scenario": "TC1", "source": "m", "baseline": False, "n_runs": 2, "n_aborted": 0, "base_seed": 0,
            "fraction_below_1m": 0.5, "fraction_at_least_1m": 0.5, "min_distances_m": [0.5, 3.0],
            "detection_freqs": [0.5, None], "max_non_detection_s": [1.5, None],
            "grid": {"sector_width_deg": 30.0, "ring_depth_m": 10.0, "max_radius_m": 100.0},
        }
    ]
}
FRAME = {"type": "frame", "t": 3, "objects": [{"id": 1, "x": -4.0, "y": 25.0, "occ": 3}]}
INIT = {"type": "init", "model": "m", "seed": 1, "rate_hz": 2.0}


@settings(deadline=None)
@given(inputs(VALID_MODEL))
@example(edited(VALID_MODEL, lambda d: d["conditions"][5].update(sector=1.9)))
@example(edited(VALID_MODEL, lambda d: d["conditions"][5].update(occ=1.0)))
@example(edited(VALID_MODEL, lambda d: d["grid"].update(sector_width_deg=1e-6, max_radius_m=100)))
@example(edited(VALID_MODEL, lambda d: d["grid"].update(ring_depth_m=float("inf"))))
def test_model_reader(doc):
    try:
        model_from_dict(doc)
    except ModelFormatError:
        pass


@pytest.fixture(scope="module")
def row_file(tmp_path_factory):
    return tmp_path_factory.mktemp("rows") / "row.jsonl"


@settings(deadline=None)
@given(row=inputs(VALID_ROW))
@example(row=edited(VALID_ROW, lambda d: d["gt"][0].update(id=3.7)))
@example(row=edited(VALID_ROW, lambda d: d["gt"][0].update(occ=2.9)))
@example(row=edited(VALID_ROW, lambda d: d["gt"][0].update(x="1.5")))
@example(row=edited(VALID_ROW, lambda d: d["det"][0].update(y=10**400)))
@example(row=edited(VALID_ROW, lambda d: d["det"][0].update(x=float("nan"))))
def test_dataset_reader(row_file, row):
    row_file.write_text(json.dumps(row) + "\n")
    try:
        load_dataset(row_file)
    except DatasetFormatError:
        pass


@settings(deadline=None)
@given(inputs(VALID_SCENARIO))
@example({"id": "TC1", "cruise_speed": -5.0})
@example({"id": "TC3", "walk_speed": 0})
@example({"id": "TC3", "walk_speed": -1.0})
def test_scenario_reader(doc):
    try:
        scenario_from_dict(doc)
    except ValueError:
        pass


@pytest.fixture(scope="module")
def policy_file(tmp_path_factory):
    return tmp_path_factory.mktemp("policy") / "policy.json"


@settings(deadline=None)
@given(doc=inputs(VALID_POLICY))
@example(doc={"comfort_accel": "2"})
@example(doc=[1, 2])
@example(doc={"headway_s": 10**400})
def test_policy_reader(policy_file, doc):
    policy_file.write_text(json.dumps(doc))
    try:
        cli._policy_from_file(str(policy_file))
    except ValueError:
        pass


@settings(deadline=None)
@given(inputs(VALID_REPORT))
@example({})
@example([1])
@example(edited(VALID_REPORT, lambda d: d["cells"][0].pop("source")))
def test_report_reader(doc):
    try:
        report = ExperimentReport.from_dict(doc)
    except ValueError:
        return
    # An accepted report can be rendered and written again.
    render_table(merge_reports([report]))
    cli._canonical_json(report.to_dict())


@settings(deadline=None)
@given(inputs(FRAME) | inputs(INIT))
@example(edited(FRAME, lambda d: d["objects"][0].update(x=10**400)))
@example(edited(FRAME, lambda d: d["objects"][0].update(occ=True)))
@example(edited(INIT, lambda d: d.update(seed=-1)))
def test_wire_reader(msg):
    try:
        parse_request(json.dumps(msg))
    except ProtocolError:
        pass


@given(st.lists(leaves, max_size=6))
def test_batch_checks_agree_with_the_value_rules(values):
    for kind, rule in ((int, is_int), (float, is_number)):
        try:
            require_each({"v": values[:2], "w": values[2:]}, kind)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == all(map(rule, values))


@pytest.mark.parametrize(
    "name, ok",
    [("TC1", True), ("remote:m", True), ("..a", True), ("", False), (".", False), ("..", False),
     ("a/b", False), ("/", False), ("a\\b", False), ("a\0b", False)],
)
def test_file_names_name_one_directory_entry(name, ok):
    assert is_file_name(name) is ok
