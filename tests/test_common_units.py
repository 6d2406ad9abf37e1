"""Tests for repro.common.units."""

from repro.common.units import (
    GB,
    KB,
    MB,
    format_bytes,
    format_duration,
)


class TestFormatBytes:
    def test_bytes(self):
        assert format_bytes(512) == "512 B"

    def test_kilobytes(self):
        assert format_bytes(1_500) == "1.50 KB"

    def test_megabytes(self):
        assert format_bytes(2 * MB) == "2.00 MB"

    def test_gigabytes(self):
        assert format_bytes(145.95 * GB) == "145.95 GB"

    def test_negative(self):
        assert format_bytes(-1 * KB) == "-1.00 KB"


class TestFormatDuration:
    def test_milliseconds(self):
        assert format_duration(0.25) == "250.0 ms"

    def test_seconds(self):
        assert format_duration(15) == "15.0 s"

    def test_minutes(self):
        assert format_duration(600) == "10.0 min"

    def test_hours(self):
        assert format_duration(7200) == "2.0 h"

    def test_days(self):
        assert format_duration(172800) == "2.0 d"
