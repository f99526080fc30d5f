"""The SVG line chart's input rule and its handling of empty series."""

import re

import pytest

from nudgesim.svgplot import line_chart


def test_line_chart_skips_empty_series_and_refuses_all_empty(tmp_path):
    path = tmp_path / "chart.svg"
    with pytest.raises(ValueError, match="non-empty series"):
        line_chart([("a", []), ("b", [])], "t", "y", path, (0.0, 1.0))
    assert not path.exists()
    line_chart([("empty", []), ("full", [0.2, 0.8])], "t", "y", path, (0.0, 1.0))
    svg = path.read_text(encoding="utf-8")
    assert svg.count("<polyline") == 1
    assert 'stroke="#d95f02"' in svg  # the second series keeps its palette colour
    assert ">empty<" not in svg and ">full<" in svg


@pytest.mark.parametrize(
    "y_range, values, message",
    [
        ((1.0, 1.0), [0.5], "y_range must be finite with low < high"),
        ((2.0, 1.0), [0.5], "y_range must be finite with low < high"),
        ((0.0, float("inf")), [0.5], "y_range must be finite with low < high"),
        ((float("nan"), 1.0), [0.5], "y_range must be finite with low < high"),
        ((-1e308, 1e308), [0.5], "y_range must be finite with low < high"),
        ((0.0, 1.0), [0.5, float("nan")], "line_chart values must be finite"),
        ((0.0, 1.0), [float("-inf")], "line_chart values must be finite"),
    ],
)
def test_line_chart_refuses_a_bad_range_or_value_before_writing(tmp_path, y_range, values, message):
    path = tmp_path / "chart.svg"
    with pytest.raises(ValueError, match=re.escape(message)):
        line_chart([("a", [0.2]), ("b", values)], "t", "y", path, y_range)
    assert not path.exists()
