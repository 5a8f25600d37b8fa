from attdiag import svgplot


def test_line_chart_is_deterministic_svg(tmp_path):
    path_a = tmp_path / "a.svg"
    path_b = tmp_path / "b.svg"
    x = [0.0, 0.5, 1.0, 1.5]
    series = {"lower": [-3.0, -3.5, -4.0, -4.2], "upper": [-3.0, -2.1, -1.0, 0.4]}
    svgplot.line_chart(path_a, x, series, title="t", xlabel="delta", ylabel="att")
    svgplot.line_chart(path_b, x, series, title="t", xlabel="delta", ylabel="att")
    text = path_a.read_text()
    assert text.startswith("<svg")
    assert text.endswith("</svg>")
    assert text.count("<polyline") == 2
    assert text == path_b.read_text()


def test_line_chart_handles_gaps(tmp_path):
    path = tmp_path / "g.svg"
    svgplot.line_chart(path, [0, 1, 2], {"s": [1.0, None, 3.0]})
    assert "<circle" in path.read_text()


def test_histogram_chart(tmp_path):
    path = tmp_path / "h.svg"
    edges = [0.0, 0.25, 0.5, 0.75, 1.0]
    svgplot.histogram_chart(path, edges, {"treated": [1, 5, 2, 0],
                                          "control": [4, 4, 4, 4]})
    text = path.read_text()
    assert text.count("<polyline") == 2
    assert "treated" in text and "control" in text


def test_line_chart_survives_a_range_that_overflows(tmp_path):
    # 1e308 - (-1e308) is inf: the ticks fall back as for non-finite ends
    path = tmp_path / "wide.svg"
    svgplot.line_chart(path, [0.0, 1.0], {"lower": [-1e308, -1e308], "upper": [1e308, 1e308]})
    text = path.read_text()
    assert text.endswith("</svg>")
    assert text.count("<polyline") == 2
    assert "nan" not in text and "inf" not in text
