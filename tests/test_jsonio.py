"""jsonio on arbitrary values: standard JSON that reads back equal.

Nested lists and str-keyed dicts of finite floats, ints, booleans, None and
strings render as JSON that json.loads reads back equal to the value; a
numpy array renders as its tolist(); a NaN or an infinity anywhere in the
value raises ValueError.  Sizes stay small.
"""
import json
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from conewalk import jsonio  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False)
scalars = st.one_of(st.none(), st.booleans(), st.integers(), finite,
                    st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10)
arrays = st.one_of(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2,
                                            max_side=3), elements=finite),
    hnp.arrays(np.int64, hnp.array_shapes(min_dims=0, max_dims=2,
                                          max_side=3)),
    hnp.arrays(np.bool_, hnp.array_shapes(min_dims=0, max_dims=2,
                                          max_side=3)))
examples = settings(max_examples=200, deadline=None)


@examples
@given(json_values)
def test_round_trip(value):
    text = jsonio.dumps(value)
    assert "\n" not in text
    assert json.loads(text) == value
    assert jsonio.json_line(value) == text + "\n"


@examples
@given(arrays)
def test_an_array_renders_as_its_list(arr):
    assert jsonio.dumps(arr) == jsonio.dumps(arr.tolist())
    assert json.loads(jsonio.dumps({"a": [arr]})) == {"a": [arr.tolist()]}


@examples
@given(json_values, st.sampled_from([math.nan, math.inf, -math.inf]),
       st.integers(0, 3), st.booleans())
def test_a_non_finite_float_raises(value, bad, depth, in_array):
    nested = np.array([1.0, bad]) if in_array else bad
    for _ in range(depth):
        nested = [value, {"k": nested}]
    with pytest.raises(ValueError, match="non-finite"):
        jsonio.dumps(nested)
