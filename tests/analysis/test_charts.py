"""ASCII chart renderers."""

from repro.analysis.charts import area_chart, hbar_chart, latency_chart
from repro.asic import AreaModel
from repro.harness import sweep
from repro.workloads import yield_pingpong


class TestHBar:
    def test_scaling(self):
        text = hbar_chart([("a", 10.0), ("b", 5.0)], width=10)
        lines = text.splitlines()
        assert lines[0].count("█") == 10
        assert lines[1].count("█") == 5

    def test_zero_values(self):
        text = hbar_chart([("z", 0.0), ("a", 4.0)])
        assert "z" in text

    def test_empty(self):
        assert hbar_chart([]) == "(no data)"

    def test_title_and_unit(self):
        text = hbar_chart([("x", 1.0)], unit=" mW", title="T")
        assert text.startswith("T\n")
        assert "mW" in text


class TestFigureCharts:
    def test_latency_chart(self):
        results = sweep(cores=("cv32e40p",), configs=("vanilla", "SLT"),
                        iterations=2, workloads=(yield_pingpong,))
        text = latency_chart(results, "cv32e40p")
        assert "vanilla" in text and "SLT" in text
        assert "delta=" in text

    def test_latency_chart_missing_core(self):
        assert "(no data" in latency_chart({}, "cv32e40p")

    def test_area_chart(self):
        reports = AreaModel().figure10(cores=("cva6",),
                                       configs=("vanilla", "SPLIT"))
        text = area_chart(reports, "cva6")
        assert "SPLIT" in text
