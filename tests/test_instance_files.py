"""load_lp_file on arbitrary JSON objects: a program or one CliError.

Any JSON object holding the five required keys either loads as a
LinearProgram or raises CliError, which the command line turns into one
JSON error record; no other exception may escape it.  Sizes stay small.
"""
import json
import warnings

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conewalk.cli import CliError, load_lp_file  # noqa: E402
from conewalk.lp import LinearProgram  # noqa: E402

# JSON numbers as json.loads gives them: plain ones, and odd ones: ints of
# any size (10**400 has no float), floats out to the range's ends with NaN
# and the infinities (json accepts those), booleans
plain = st.one_of(st.integers(-3, 3), st.floats(-1e3, 1e3))
odd = st.one_of(
    st.integers(min_value=10**300, max_value=10**500),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
)
scalars = st.one_of(st.none(), plain, odd, st.text(max_size=3))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=8)


@st.composite
def shaped(draw):
    """Arrays whose shapes agree with n and m, so the entries reach
    LinearProgram: plain numbers with up to two odd ones put in, and n and
    m sometimes off by one."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(n, 4))
    raw = {"n": n, "m": m,
           "A": draw(st.lists(st.lists(plain, min_size=n, max_size=n),
                              min_size=m, max_size=m)),
           "b": draw(st.lists(plain, min_size=m, max_size=m)),
           "c": draw(st.lists(plain, min_size=n, max_size=n))}
    for _ in range(draw(st.integers(0, 2))):
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, n - 1))
        entries, k = draw(st.sampled_from(
            [(raw["A"][i], j), (raw["b"], i), (raw["c"], j)]))
        entries[k] = draw(odd)
    key, off = draw(st.sampled_from([("n", 0), ("n", 0), ("n", 1), ("m", -1)]))
    raw[key] += off
    return raw


records = st.one_of(
    shaped(),
    st.fixed_dictionaries({key: json_values for key in "nmAbc"}),
)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(raw=records)
def test_load_gives_a_program_or_a_cli_error(tmp_path, raw):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(raw))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            program, loaded = load_lp_file(str(path))
        except CliError:
            return
    assert isinstance(program, LinearProgram)
    assert (program.m, program.n) == (loaded["m"], loaded["n"])
