"""Tests for the report-rendering helpers."""

import pytest

from repro.harness.report import format_cell, render_table


class TestRenderTable:
    def test_basic_alignment(self):
        out = render_table(["name", "value"], [("a", 1), ("bbb", 22)])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert "-+-" in lines[1]
        assert lines[2].endswith("1")
        assert lines[3].endswith("22")

    def test_title(self):
        out = render_table(["x"], [(1,)], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_floats_formatted(self):
        out = render_table(["v"], [(1.23456,)])
        assert "1.23" in out
        assert "1.2345" not in out

    def test_row_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            render_table(["a", "b"], [(1,)])

    def test_empty_rows(self):
        out = render_table(["a"], [])
        assert "a" in out


class TestFormatCell:
    def test_types(self):
        assert format_cell(3) == "3"
        assert format_cell("x") == "x"
        assert format_cell(1.5) == "1.50"
