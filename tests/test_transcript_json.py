"""``transcript_json`` writes exactly the bytes of the stdlib encoder.

Every transcript file and every golden hash comes from this writer, so
each test here compares it with ``json.dumps(x, sort_keys=True, indent=1)``,
the reference it replaces: on the golden transcripts, on edge scalars and
on generated JSON-native trees.  A value outside ``JSON_TYPES`` must raise
``TypeError`` rather than be written in some other spelling.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qconf.protocols import execute_trial
from qconf.protocols.common import transcript_json
from test_golden import CASES, NATIVE_CASES, golden_config, implemented


def reference(data) -> str:
    return json.dumps(data, sort_keys=True, indent=1)


@pytest.mark.parametrize("protocol,kind,seed", CASES, ids=[f"{p}-{k}-{s}" for p, k, s in CASES])
def test_golden_transcripts(protocol, kind, seed):
    config = golden_config(protocol, kind, seed)
    if implemented(config):
        data = execute_trial(config, 0).shared_dict()
        assert transcript_json(data) == reference(data)


@pytest.mark.parametrize("name", NATIVE_CASES)
def test_native_case_transcripts(name):
    config = NATIVE_CASES[name]
    config.validate()
    data = execute_trial(config, 0).shared_dict()
    assert transcript_json(data) == reference(data)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1.5e300,
               math.inf, -math.inf, math.nan]
EDGE_TEXT = ["", '"', "\\", "\x00\x1f\x7f", "\n\t\r\b\f", "é", " ", "\U0001f600", "\ud800"]
EDGE_INTS = [0, -1, 2**63, -(2**63) - 1, 2**70, -(2**200)]


@pytest.mark.parametrize(
    "value",
    [
        *EDGE_FLOATS, *EDGE_TEXT, *EDGE_INTS, True, False, None,
        [], {}, [[]], [{}], {"a": []}, {"a": {}}, [[], {}, [[{}]]],
        [1, "1", 1.0, True, None], {"b": 1, "a": [2, 3], "": {"c": None}},
        ["decoy", 3, True], [1, 2.5, None, "x", False],
    ],
    ids=repr,
)
def test_edge_values(value):
    assert transcript_json(value) == reference(value)


SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200) | st.integers(max_value=-(2**64)),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(EDGE_FLOATS),
    st.text(),
    st.text(st.characters(codec=None, exclude_categories=())),
    st.sampled_from(EDGE_TEXT),
)
TREES = st.recursive(
    SCALARS,
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(EDGE_TEXT), children, max_size=6),
    max_leaves=40,
)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(TREES)
@example({"a": [0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan, 2**70], "é": '"\\\x01'})
@example([[], {}, [[]], {"k": {}}])
def test_json_native_trees(tree):
    assert transcript_json(tree) == reference(tree)


@pytest.mark.parametrize(
    "value,name",
    [
        (np.int64(1), "int64"),
        (np.float64(0.5), "float64"),
        ((1, 2), "tuple"),
        ({1}, "set"),
        ({1: "a"}, "int"),
        ({"a": [1, (2,)]}, "tuple"),
        ([np.int64(1)], "int64"),
        ([{"a": {"b": {3}}}], "set"),
    ],
    ids=repr,
)
def test_other_types_raise(value, name):
    with pytest.raises(TypeError, match=name):
        transcript_json(value)
