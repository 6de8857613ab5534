"""Unit conversions: time, rate, serialization delay."""

import pytest

from repro.sim import units


class TestTimeConversions:
    def test_microseconds(self):
        assert units.microseconds(1) == 1_000

    def test_milliseconds(self):
        assert units.milliseconds(2) == 2_000_000

    def test_seconds(self):
        assert units.seconds(1.5) == 1_500_000_000

    def test_fractional_rounding(self):
        assert units.microseconds(0.5) == 500
        assert units.nanoseconds(1.4) == 1


class TestRateConversions:
    def test_gbps(self):
        assert units.gbps(100) == 100_000_000_000

    def test_mbps(self):
        assert units.mbps(10) == 10_000_000


class TestTransmissionDelay:
    def test_1500B_at_100gbps(self):
        # 1500 * 8 bits / 100e9 bps = 120 ns
        assert units.transmission_delay(1500, units.gbps(100)) == 120

    def test_1500B_at_10gbps(self):
        assert units.transmission_delay(1500, units.gbps(10)) == 1200

    def test_rounds_up(self):
        # 1 byte at 100 Gbps is 0.08 ns -> must round to 1
        assert units.transmission_delay(1, units.gbps(100)) == 1

    def test_zero_bytes(self):
        assert units.transmission_delay(0, units.gbps(1)) == 0

    def test_rejects_zero_rate(self):
        with pytest.raises(ValueError):
            units.transmission_delay(100, 0)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            units.transmission_delay(-1, units.gbps(1))


class TestFormatting:
    def test_format_time_scales(self):
        assert units.format_time(500) == "500ns"
        assert units.format_time(1_500) == "1.500us"
        assert units.format_time(2_000_000) == "2.000ms"
        assert units.format_time(3_000_000_000) == "3.000000s"

    def test_format_rate_scales(self):
        assert units.format_rate(units.gbps(100)) == "100.00Gbps"
        assert units.format_rate(units.mbps(5)) == "5.00Mbps"
        assert units.format_rate(100) == "100bps"
