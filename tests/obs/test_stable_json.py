"""The stable-JSON renderer is ``json.dumps(sort_keys=True, indent=2)``."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.export import render_json_stable, write_json_stable


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, indent=2)


scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=8)  # non-ASCII text exercises ensure_ascii
)

# One key type per dict: json.dumps sorts the keys, and mixed key
# types do not order (that TypeError is pinned separately below);
# ints and floats do, and are rendered as "1" and "2.5".
key_types = st.sampled_from([
    st.text(max_size=6),
    st.integers(min_value=-50, max_value=50),
    st.floats(allow_nan=False, width=32) | st.integers(-5, 5),
    st.booleans(),
])


def _dicts(children):
    return key_types.flatmap(
        lambda keys: st.dictionaries(keys, children, max_size=5)
    )


documents = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(children, max_size=5).map(tuple)
        | _dicts(children)
    ),
    max_leaves=40,
)


class TestMatchesJsonDumps:
    @settings(max_examples=400, deadline=None)
    @given(documents)
    def test_equals_json_dumps(self, doc):
        assert render_json_stable(doc) == _dumps(doc)

    @pytest.mark.parametrize("doc", [
        {}, [], (), [[]], {"a": {}}, {"a": [], "b": ()},
        {1: "one", 10: "ten", 2: "two"},
        {2.5: 1, 1: [1.0, -0.0]},
        {None: [None]},
        {True: 1, 0: [2]},
        {"é": "ü☃", "x": [float("nan"), float("inf"), -float("inf")]},
        {"deep": {"er": {"est": [1, {"z": (2, 3)}, [], {}]}}},
        "top-level string", 3.25, None,
    ])
    def test_edge_cases(self, doc):
        assert render_json_stable(doc) == _dumps(doc)

    @pytest.mark.parametrize("doc", [
        {None: 1, "a": 2},            # unorderable keys
        {(1, 2): 1},                  # non-scalar key, flat container
        {(1, 2): [1]},                # non-scalar key, nested container
        [object()],
        {"a": [object()]},
    ])
    def test_raises_where_json_dumps_raises(self, doc):
        with pytest.raises(TypeError) as expected:
            _dumps(doc)
        with pytest.raises(TypeError) as got:
            render_json_stable(doc)
        assert str(got.value) == str(expected.value)

    def test_writer_appends_a_newline(self, tmp_path):
        doc = {"b": [1, {"c": None}], "a": 1.5}
        path = tmp_path / "doc.json"
        write_json_stable(doc, str(path))
        assert path.read_text() == _dumps(doc) + "\n"
