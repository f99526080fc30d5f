"""The SVG line chart's input rule and its handling of empty series."""

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
