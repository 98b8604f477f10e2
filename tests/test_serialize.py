"""The column-table path of the serializer against the generic row-dict path.

The list of row dicts stays here as the reference: a Table must serialize to
exactly the bytes the generic emitter writes for the equivalent rows.
"""
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dle3q import serialize
from dle3q.serialize import Table, csv_lines, format_float, json_dumps


def edge_float(kind: int, digits: int, exponent: int, step: int, negative: bool) -> float:
    """A float on which %.9e rounding is hardest to get right, or a neighbour of it.

    kind 0 is the near-tie d.ddddddddd5e<exponent> with mantissa digits
    ``digits``, kind 1 is 9.9999999995e<exponent>, which carries into the
    exponent, and kind 2 is 1e<exponent>. step -1 or 1 moves to the next
    float down or up.
    """
    mantissa = (f"{digits // 10**9}.{digits % 10**9:09d}5", "9.9999999995", "1")[kind]
    x = float(f"{mantissa}e{exponent}")
    if step:
        x = math.nextafter(x, step * math.inf)
    return -x if negative else x


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
            1.7976931348623157e308, -1.7976931348623157e308]
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EXTREMES),
    st.builds(edge_float, st.integers(min_value=0, max_value=2),
              st.integers(min_value=10**9, max_value=10**10 - 1),
              st.integers(min_value=-307, max_value=307), st.integers(min_value=-1, max_value=1),
              st.booleans()),
)
names = st.text(alphabet="abz_%", min_size=1, max_size=6)


@st.composite
def tables(draw):
    """A Table of 0-50 rows (1-4 float columns and one bool column) and its row dicts."""
    nrows = draw(st.integers(min_value=0, max_value=50))
    float_names = draw(st.lists(names, min_size=1, max_size=4, unique=True))
    flag_name = draw(names.filter(lambda name: name not in float_names))
    columns = {name: np.array(draw(st.lists(finite_floats, min_size=nrows, max_size=nrows)),
                              dtype=float)
               for name in float_names}
    columns[flag_name] = np.array(draw(st.lists(st.booleans(), min_size=nrows,
                                                max_size=nrows)), dtype=bool)
    rows = [dict(zip(columns, row)) for row in zip(*(v.tolist() for v in columns.values()))]
    return Table(columns), rows


def nest(node, depth: int):
    for level in range(depth):
        node = {f"level{level}": node, "after": 1}
    return node


@settings(max_examples=60, deadline=None)
@given(case=tables(), depth=st.integers(min_value=0, max_value=3))
def test_json_table_equals_row_dicts(case, depth):
    table, rows = case
    assert json_dumps(nest(table, depth)) == json_dumps(nest(rows, depth))
    assert json_dumps([table, table]) == json_dumps([rows, rows])


@settings(max_examples=60, deadline=None)
@given(case=tables())
def test_csv_table_equals_row_lists(case):
    table, rows = case
    header = list(table.columns)
    assert csv_lines(header, table) == csv_lines(header, [list(r.values()) for r in rows])
    # the header picks the columns and their order
    header.reverse()
    assert csv_lines(header, table) == csv_lines(header, [[r[h] for h in header] for r in rows])


@settings(max_examples=60, deadline=None)
@given(case=tables().filter(lambda case: case[1]), data=st.data(),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_value_raises(case, data, bad):
    table, rows = case
    float_names = [name for name, v in table.columns.items() if v.dtype.kind == "f"]
    name = data.draw(st.sampled_from(float_names))
    row = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
    table.columns[name][row] = bad
    with pytest.raises(ValueError, match="refusing to serialize non-finite value"):
        json_dumps({"rows": table})
    with pytest.raises(ValueError, match="refusing to serialize non-finite value"):
        csv_lines(list(table.columns), table)


def test_edge_floats_match_format_float():
    rng = random.Random(8)
    values = EXTREMES + [edge_float(rng.randrange(3), rng.randrange(10**9, 10**10),
                                    rng.randint(-307, 307), rng.randint(-1, 1),
                                    rng.random() < 0.5)
                         for _ in range(10**5)]
    expected = "x\n" + "".join(f"{format_float(v)}\n" for v in values)
    assert csv_lines(["x"], Table({"x": np.array(values)})) == expected


def test_powers_of_ten_match_format_float():
    # log10 of a power of ten or of its float neighbours can miss the decimal
    # exponent by one, and 10**k - ulp can round up to the next power; those
    # rows go through format_float
    powers = [float(f"1e{k}") for k in range(-300, 301)]
    values = [y for x in powers for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
    expected = "x\n" + "".join(f"{format_float(v)}\n" for v in values)
    assert csv_lines(["x"], Table({"x": np.array(values)})) == expected


def sample_table() -> Table:
    return Table({"x": np.array([1.5, -0.0]), "ok": np.array([True, False])})


def test_table_at_depth_1():
    assert json_dumps({"rows": sample_table(), "n": 2}) == (
        '{\n'
        '  "rows": [\n'
        '    {\n'
        '      "x": 1.500000000e+00,\n'
        '      "ok": true\n'
        '    },\n'
        '    {\n'
        '      "x": 0.000000000e+00,\n'
        '      "ok": false\n'
        '    }\n'
        '  ],\n'
        '  "n": 2\n'
        '}\n')


def test_table_at_depth_2():
    assert json_dumps({"outer": {"rows": sample_table()}}) == (
        '{\n'
        '  "outer": {\n'
        '    "rows": [\n'
        '      {\n'
        '        "x": 1.500000000e+00,\n'
        '        "ok": true\n'
        '      },\n'
        '      {\n'
        '        "x": 0.000000000e+00,\n'
        '        "ok": false\n'
        '      }\n'
        '    ]\n'
        '  }\n'
        '}\n')


@pytest.mark.parametrize("chunk_rows", [1, 7, 4096, 10 ** 6])
def test_table_in_parts_equals_row_dicts(monkeypatch, chunk_rows):
    # no seam, one, several, and one after every row, with values for format_float too
    monkeypatch.setattr(serialize, "TABLE_CHUNK_ROWS", chunk_rows)
    values = np.array([1.5, -0.0, 5e-324, -2.5e-7, 1.7976931348623157e308])
    for nrows in (0, 1, 6, 7, 8, 15):
        table = Table({"x": np.resize(values, nrows), "ok": np.arange(nrows) % 3 == 0})
        rows = [dict(zip(table.columns, row))
                for row in zip(*(v.tolist() for v in table.columns.values()))]
        assert json_dumps(nest(table, 2)) == json_dumps(nest(rows, 2)), nrows
        assert csv_lines(["ok", "x"], table) == csv_lines(
            ["ok", "x"], [[r["ok"], r["x"]] for r in rows]), nrows


def test_format_float_refuses_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="refusing to serialize non-finite value"):
            format_float(bad)


def test_empty_dict():
    assert json_dumps({}) == "{}\n"
    assert json_dumps({"a": {}}) == '{\n  "a": {}\n}\n'
    assert json_dumps([]) == "[]\n"
    assert json_dumps({"a": []}) == '{\n  "a": []\n}\n'
    assert json_dumps([{}]) == "[\n  {}\n]\n"


def test_strings_escaped_and_other_scalars_refused():
    with pytest.raises(TypeError, match="unsupported scalar"):
        json_dumps({"s": 'a"b\\c'})
    with pytest.raises(TypeError, match="unsupported scalar"):
        json_dumps({"x": 1j})
    with pytest.raises(TypeError, match="unsupported scalar"):
        json_dumps({"t": (1, 2)})  # documents hold lists, never tuples


def test_empty_table():
    table = Table({"x": np.array([]), "ok": np.array([], dtype=bool)})
    assert json_dumps({"rows": table}) == '{\n  "rows": []\n}\n'
    assert csv_lines(["x", "ok"], table) == "x,ok\n"


@pytest.mark.parametrize("columns", [
    {},
    {"x": np.zeros(3), "y": np.zeros(2)},
    {"x": np.zeros((2, 2))},
])
def test_malformed_table_rejected(columns):
    with pytest.raises(ValueError):
        Table(columns)


def test_nul_in_column_name_rejected():
    # NUL pads the byte matrix and is dropped from it, so a name may not hold one
    with pytest.raises(ValueError, match="must not contain NUL"):
        json_dumps(Table({"a\0b": np.zeros(2)}))


def test_unsupported_dtype_rejected():
    with pytest.raises(TypeError, match="unsupported column dtype"):
        json_dumps(Table({"n": np.arange(3)}))
