"""Tests for the EXPERIMENTS.md generator (smoke scale)."""

import pytest

from repro.experiments import common
from repro.experiments.report import build


@pytest.fixture(scope="module")
def text(tmp_path_factory):
    """The smoke report, built once in its own cache with a cleared memo."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
        common.clear_memo()
        try:
            yield build("smoke")
        finally:
            common.clear_memo()


class TestReportBuild:
    def test_all_sections_present(self, text):
        for section in (
            "## Fig. 5", "## Fig. 6", "## Fig. 7", "## Fig. 8",
            "## Table 2", "## Table 3", "## Fig. 9", "## Fig. 10",
            "## Quantization frontier", "## Secondary claims",
        ):
            assert section in text

    def test_paper_numbers_quoted(self, text):
        # The paper's key reported values appear for comparison.
        assert "88.9%" in text or "0.889" in text
        assert "109.5" in text or "109.48" in text
        assert "90.7" in text or "0.9068" in text or "90.68" in text

    def test_measured_values_embedded(self, text):
        assert text.count("**Measured:**") == 9
