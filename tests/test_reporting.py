"""Artifact formatting: byte-stable CSV cells and well-formed SVG."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from penergy.reporting import (
    _header_value,
    csv_text,
    format_cell,
    step_series,
    svg_chart,
    write_csv,
)


def test_format_cell_round_trip():
    assert format_cell(0.1) == "0.1"
    assert float(format_cell(1 / 3)) == 1 / 3
    assert format_cell(np.float64(2.5)) == "2.5"
    assert format_cell(True) == "true"
    assert format_cell(np.bool_(False)) == "false"
    assert format_cell(7) == "7"
    assert format_cell(None) == ""
    assert format_cell("plain") == "plain"
    assert format_cell('a,"b"') == '"a,""b"""'


def test_csv_layout():
    text = csv_text(("x", "y"), [[1, 3], np.array([2.0, 0.5])],
                    header={"beta": [1, 2], "alpha": "hi"})
    lines = text.splitlines()
    assert lines[0] == "# alpha=hi"
    assert lines[1] == "# beta=[1,2]"
    assert lines[2] == "x,y"
    assert lines[3] == "1,2.0"
    assert text.endswith("\n")


def test_csv_row_width_checked():
    # columns of unequal length leave a row short
    with pytest.raises(ValueError):
        csv_text(("x", "y"), [[1], []])
    with pytest.raises(ValueError):
        csv_text(("x", "y"), [np.array([1.0, 2.0]), [3]])
    with pytest.raises(ValueError):
        csv_text(("x", "y"), [[1]])


def test_csv_deterministic(tmp_path):
    columns = [0.1 * np.arange(5), list(range(5))]
    a = write_csv(tmp_path / "a.csv", ("v", "k"), columns, {"s": 1})
    b = write_csv(tmp_path / "b.csv", ("v", "k"), columns, {"s": 1})
    assert a.read_bytes() == b.read_bytes()


def _row_csv_text(columns, rows, header=None):
    """The writer that took row tuples and formatted every cell alone."""
    lines = []
    for key in sorted(header or {}):
        lines.append(f"# {key}={_header_value(header[key])}")
    lines.append(",".join(columns))
    for row in rows:
        cells = [format_cell(v) for v in row]
        if len(cells) != len(columns):
            raise ValueError("row width does not match the column count")
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# any float64 bit pattern (NaN payloads, subnormals, -0.0 among them),
# plus the special values often enough to repeat inside one table
_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                     2.2250738585072014e-308, 0.1, 1.0]),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(
        lambda b: float(np.array(b, dtype=np.int64).view(np.float64))))
_CELLS = st.one_of(
    _FLOATS, st.integers(-10 ** 20, 10 ** 20), st.booleans(), st.none(),
    st.text(alphabet='ab ,"\n', max_size=6))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.lists(st.one_of(
    st.lists(_FLOATS, min_size=n, max_size=n).map(np.array),
    st.lists(_CELLS, min_size=n, max_size=n)), min_size=1, max_size=5)))
def test_columns_write_the_bytes_of_the_row_writer(columns):
    # float64 arrays take one repr per distinct bit pattern; every other
    # column goes cell by cell; the text must be the row writer's
    names = tuple(f"c{i}" for i in range(len(columns)))
    header = {"k": [1, 2], "seed": 3}
    want = _row_csv_text(names, list(zip(*columns)), header)
    assert csv_text(names, columns, header) == want


def test_step_series_shape():
    xs, ys = step_series([0.0, 0.5, 1.0], [2.0, 3.0])
    assert list(xs) == [0.0, 0.5, 0.5, 1.0]
    assert list(ys) == [2.0, 2.0, 3.0, 3.0]


def test_svg_parses():
    xs = np.linspace(0.01, 1.0, 20)
    text = svg_chart([("a", xs, xs ** 2), ("b", xs, xs)],
                     title="t", x_label="x", y_label="y")
    root = ET.fromstring(text)
    polylines = [el for el in root.iter()
                 if el.tag.endswith("polyline")]
    assert len(polylines) == 2


def test_svg_log_log_drops_nonpositive():
    xs = np.array([0.0, 0.1, 1.0])
    ys = np.array([1.0, 2.0, 3.0])
    text = svg_chart([("a", xs, ys)], title="t", x_label="x", y_label="y",
                     log_x=True, log_y=True)
    root = ET.fromstring(text)
    poly = next(el for el in root.iter() if el.tag.endswith("polyline"))
    assert len(poly.attrib["points"].split()) == 2


def test_svg_constant_series():
    text = svg_chart([("flat", [0.0, 1.0], [2.0, 2.0])],
                     title="t", x_label="x", y_label="y")
    ET.fromstring(text)
