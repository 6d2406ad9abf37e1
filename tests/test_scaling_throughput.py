"""Tests for repro.scaling.throughput (Section VI headline numbers)."""

import pytest

from repro.blockchain.params import BITCOIN, ETHEREUM, ETHEREUM_POS, SEGWIT2X
from repro.scaling.throughput import VISA_TPS, ThroughputMeter, protocol_tps_table


class TestProtocolCeilings:
    def test_bitcoin_3_to_7_tps(self):
        """Section VI-A: "limiting the Bitcoin transaction rate to between
        3 and 7 transactions per second, depending on the size of
        individual transactions"."""
        heavy_tx = BITCOIN.max_tps(avg_tx_size_bytes=550)
        light_tx = BITCOIN.max_tps(avg_tx_size_bytes=240)
        assert 2.5 <= heavy_tx <= 4
        assert 6 <= light_tx <= 8

    def test_ethereum_7_to_15_tps(self):
        """Section VI-A: gas limit / 21k gas per tx / 15 s blocks."""
        tps = ETHEREUM.max_tps()
        assert 7 <= tps <= 30
        # The paper's range corresponds to ~2-5M effective gas throughput;
        # at the 8M limit the ceiling sits above Bitcoin's by 3-5x.
        assert tps > BITCOIN.max_tps() * 3

    def test_pos_raises_ceiling(self):
        """4-second PoS blocks multiply throughput ~3.75x (Section VI-A)."""
        assert ETHEREUM_POS.max_tps() == pytest.approx(
            ETHEREUM.max_tps() * 15 / 4
        )

    def test_segwit2x_doubles_bitcoin(self):
        assert SEGWIT2X.max_tps() == pytest.approx(2 * BITCOIN.max_tps())

    def test_everything_dwarfed_by_visa(self):
        """Section VI-A: "Visa ... is able to process 56,000 TPS"."""
        table = protocol_tps_table()
        assert table["visa"] == 56_000
        for name, tps in table.items():
            if name != "visa":
                assert tps < VISA_TPS / 100


class TestThroughputMeter:
    def test_average(self):
        meter = ThroughputMeter()
        for t in range(11):
            meter.record(float(t))
        assert meter.average_tps() == pytest.approx(1.1)  # 11 events over 10s

    def test_average_with_duration(self):
        meter = ThroughputMeter()
        meter.record(0.0, count=50)
        assert meter.average_tps(duration_s=10.0) == 5.0

    def test_peak_exceeds_average_for_bursts(self):
        """The Nano shape: 306 peak vs 105.75 average (Section VI-B)."""
        meter = ThroughputMeter()
        for i in range(100):
            meter.record(i * 0.01)  # 1s burst of 100
        meter.record(100.0)  # long quiet tail
        assert meter.peak_tps(window_s=1.0) >= 100
        assert meter.average_tps() < 2.0

    def test_empty_meter(self):
        meter = ThroughputMeter()
        assert meter.average_tps() == 0.0
        assert meter.peak_tps() == 0.0
