"""Tests for byte/duration formatting helpers."""

import pytest

from repro.utils.units import GiB, KiB, MiB, format_bytes, format_duration


class TestFormatBytes:
    def test_small_counts_in_bytes(self):
        assert format_bytes(512) == "512 B"

    def test_kib_mib_gib(self):
        assert format_bytes(2 * KiB) == "2.0 KiB"
        assert format_bytes(3 * MiB) == "3.0 MiB"
        assert format_bytes(8 * GiB) == "8.0 GiB"

    def test_fractional_values(self):
        assert format_bytes(1536) == "1.5 KiB"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_bytes(-1)


class TestFormatDuration:
    def test_microseconds(self):
        assert format_duration(5e-6) == "5.00 us"

    def test_milliseconds(self):
        assert format_duration(0.25) == "250.00 ms"

    def test_seconds_minutes_hours(self):
        assert format_duration(2.5) == "2.50 s"
        assert format_duration(120) == "2.00 min"
        assert format_duration(7200) == "2.00 h"

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            format_duration(-0.1)
