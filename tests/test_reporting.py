"""Artifact formatting: byte-stable CSV cells and well-formed SVG."""

import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from penergy.reporting import (
    PALETTE,
    _Axis,
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


def _scalar_polylines(series, log_x=False, log_y=False):
    """svg_chart's polyline lines as the per-point loop wrote them: the
    same axes, two scalar _Axis.px calls and an f-string a point."""
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    if log_x:
        xs_all = xs_all[xs_all > 0]
    if log_y:
        ys_all = ys_all[ys_all > 0]
    x_axis = _Axis(float(xs_all.min()), float(xs_all.max()), 72, 696, log_x)
    y_axis = _Axis(float(ys_all.min()), float(ys_all.max()), 404, 48, log_y)
    lines = []
    for i, (_, xs, ys) in enumerate(series):
        pts = []
        for x, y in zip(np.asarray(xs, float), np.asarray(ys, float)):
            if (log_x and x <= 0) or (log_y and y <= 0):
                continue
            pts.append(f"{x_axis.px(float(x)):.2f},{y_axis.px(float(y)):.2f}")
        lines.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{PALETTE[i]}" stroke-width="1.8"/>')
    return lines


def _svg_cases():
    rng = np.random.default_rng(5)
    xs = np.sort(rng.uniform(-3.0, 7.0, 400))
    ys = rng.normal(0.0, 1e3, 400)
    signed = [("a", xs, ys), ("b", xs[::-1], np.sin(xs))]
    dented = np.where(rng.random(400) < 0.1, np.nan, ys)
    yield pytest.param(signed, False, False, id="linear")
    for log_x, log_y in ((True, False), (False, True), (True, True)):
        # non-positive and NaN points on a log axis
        yield pytest.param([("a", xs, dented), (
            "b", np.append(xs, np.nan), np.append(np.abs(ys), 0.0))],
            log_x, log_y, id=f"log x {log_x}, log y {log_y}")
    # x within an ulp of where px, 72 + (x + 3) / 10 * 624, rounds to the
    # other cent: any other order of operations moves some of them
    edge = (np.arange(2000) / 100.0 + 0.005) / 624.0 * 10.0 - 3.0
    edge = np.concatenate(([-3.0, 7.0], np.nextafter(edge, -np.inf), edge,
                           np.nextafter(edge, np.inf)))
    yield pytest.param([("a", edge, np.linspace(-1.0, 1.0, edge.size))],
                       False, False, id="rounding edges")
    yield pytest.param([("flat", [0.0, 0.5, 1.0], [2.0, 2.0, 2.0])],
                       False, False, id="constant")
    # a step series of 20,000 points
    nodes = np.sort(rng.uniform(0.0, 1.0, 10001))
    yield pytest.param([("density", *step_series(nodes, rng.uniform(
        0.0, 5.0, 10000)))], False, False, id="step")


@pytest.mark.parametrize("series, log_x, log_y", _svg_cases())
def test_svg_polylines_are_those_of_the_scalar_loop(series, log_x, log_y):
    text = svg_chart(series, title="t", x_label="x", y_label="y",
                     log_x=log_x, log_y=log_y)
    got = [line for line in text.splitlines()
           if line.startswith("<polyline")]
    assert got == _scalar_polylines(series, log_x, log_y)
