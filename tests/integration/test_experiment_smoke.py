"""Smoke tests: every experiment driver runs end to end at tiny scale.

``python -m repro.experiments`` runs the paper-scale configurations (and
``test_paper_claims.py`` checks its ``--quick`` claims); these keep the
drivers honest at tiny scale (wiring, result objects, edge cases).
"""

import collections

import pytest

from repro.core.endpoint import MtpEndpoint
from repro.experiments import (Fig2Config, Fig3Config, Fig5Config,
                               Fig6Config, Fig7Config, Fig8Config,
                               ablate_message_atomicity,
                               ablate_pathlet_granularity, ablations,
                               compare_fig2, compare_fig8, fig2_proxy,
                               run_fig3, run_fig5, run_fig6, run_fig7,
                               run_fig8, render_paper_table, run_probes)
from repro.sim import microseconds, milliseconds


class TestFig2Driver:
    def test_modes_and_metrics(self):
        results = compare_fig2(Fig2Config(duration_ns=milliseconds(0.5)),
                               limited_buffer_bytes=64 * 1024)
        unlimited, limited = results["unlimited"], results["limited"]
        assert unlimited.peak_buffer_bytes > limited.peak_buffer_bytes
        assert unlimited.buffer_growth_bps() > 0
        assert "unlimited" in unlimited.mode
        assert "limited" in limited.mode


class TestFig3Driver:
    def test_modes(self):
        config = Fig3Config(duration_ns=milliseconds(1), concurrency=4)
        per_message = run_fig3("per_message", config)
        persistent = run_fig3("persistent", config)
        assert per_message.messages_completed > 0
        assert persistent.mean_throughput_bps > 0
        assert per_message.series  # dense series produced

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            run_fig3("bogus")


class TestFig5Driver:
    @pytest.mark.parametrize("protocol", ["dctcp", "mtp", "mptcp"])
    def test_protocols(self, protocol):
        config = Fig5Config(duration_ns=milliseconds(1.5))
        result = run_fig5(protocol, config)
        assert result.mean_goodput_bps > 0
        assert result.protocol == protocol

    def test_pathlet_modes(self):
        for mode in ("per_link", "single"):
            config = Fig5Config(duration_ns=milliseconds(1),
                                pathlet_mode=mode)
            assert run_fig5("mtp", config).mean_goodput_bps > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            Fig5Config(pathlet_mode="nope")
        with pytest.raises(ValueError):
            Fig5Config(mtp_feedback="nope")
        with pytest.raises(ValueError):
            run_fig5("carrier-pigeon")


class TestFig6Driver:
    @pytest.mark.parametrize("system", ["ecmp", "spray", "mtp_lb"])
    def test_systems(self, system):
        config = Fig6Config(duration_ns=milliseconds(2),
                            max_message_bytes=200_000)
        result = run_fig6(system, config)
        assert result.messages_completed > 0
        assert result.p99_fct_ns() > 0

    def test_arrival_rate_scales_with_load(self):
        low = Fig6Config(offered_load=0.2).arrival_rate_per_sec()
        high = Fig6Config(offered_load=0.8).arrival_rate_per_sec()
        assert high == pytest.approx(4 * low)

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            run_fig6("wishful-thinking")


class TestFig7Driver:
    @pytest.mark.parametrize("system", ["shared", "separate", "fair_share"])
    def test_systems(self, system):
        config = Fig7Config(duration_ns=milliseconds(1.2),
                            warmup_ns=milliseconds(0.3))
        result = run_fig7(system, config)
        assert set(result.tenant_goodput_bps) == {"tenant1", "tenant2"}
        assert 0 < result.fairness <= 1.0

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            run_fig7("anarchy")


def _quick_fig8_config():
    return Fig8Config(detection_delay_ns=microseconds(20),
                      flap_down_ns=microseconds(200),
                      flap_up_ns=milliseconds(1.2),
                      migrate_ns=milliseconds(1.5),
                      corrupt_start_ns=milliseconds(1.8),
                      corrupt_stop_ns=milliseconds(2.0),
                      duration_ns=milliseconds(2.5))


class TestFig8Driver:
    def test_headline_mtp_recovers_faster(self):
        results = compare_fig8(_quick_fig8_config())
        mtp, tcp = results["mtp"], results["dctcp"]
        assert mtp.link_down_ttr_ns is not None
        if tcp.link_down_ttr_ns is not None:
            assert mtp.link_down_ttr_ns < tcp.link_down_ttr_ns
        for result in results.values():
            # Sanitizers were on by default and every packet accounted.
            assert result.conservation is not None
            assert result.conservation.ok, result.conservation.summary()
            # The identical chaos schedule was fully applied.
            assert len(result.applied) == 5
            assert result.telemetry.migrations == [("sw1", "sw2")]
            assert result.mean_goodput_bps > 0

    def test_failover_and_retransmissions_recorded(self):
        result = run_fig8("mtp", _quick_fig8_config())
        assert result.failovers >= 1
        assert result.retransmissions > 0
        assert result.recovery("link_down") is not None

    @pytest.mark.xfail(strict=True, reason=(
        "a receiver remembers only its last COMPLETED_MEMORY (4096) "
        "completions, so a late copy of an older message is delivered "
        "again; see ROADMAP item 11"))
    def test_mtp_delivers_each_message_once(self, monkeypatch):
        deliveries = collections.Counter()
        deliver = MtpEndpoint._deliver

        def counted(self, packet, header, *args):
            deliveries[(self.port, packet.src, header.msg_id)] += 1
            deliver(self, packet, header, *args)

        monkeypatch.setattr(MtpEndpoint, "_deliver", counted)
        run_fig8("mtp", Fig8Config())
        assert sum(deliveries.values()) > 19_000
        assert [key for key, count in deliveries.items() if count > 1] == []

    def test_validation(self):
        with pytest.raises(ValueError):
            run_fig8("smoke-signals")
        with pytest.raises(ValueError):
            Fig8Config(flap_down_ns=milliseconds(3),
                       flap_up_ns=milliseconds(2))


class TestTable1Driver:
    def test_render_contains_all_rows(self):
        table = render_paper_table()
        for row in ("MTP (this work)", "DCTCP", "RDMA UD", "QUIC"):
            assert row in table

    def test_probes_all_pass(self):
        assert all(run_probes().values())


class TestConfigVariants:
    def test_variants_keep_every_base_field(self, monkeypatch):
        """Each variant differs from its base config in one field only."""
        received = []
        monkeypatch.setattr(ablations, "run_fig5",
                            lambda protocol, config: received.append(config))
        monkeypatch.setattr(ablations, "run_fig6",
                            lambda system, config: received.append(config))
        monkeypatch.setattr(fig2_proxy, "run_fig2", received.append)
        fig5 = Fig5Config(mtp_feedback="delay", duration_ns=milliseconds(1))
        fig6 = Fig6Config(seed=9, offered_load=0.3)
        fig2 = Fig2Config(transfer_bytes=1000,
                          sample_interval_ns=microseconds(7))
        ablate_pathlet_granularity(fig5)
        ablate_message_atomicity(fig6)
        compare_fig2(fig2, limited_buffer_bytes=4096)
        expected = [(fig5, "pathlet_mode", "per_link"),
                    (fig5, "pathlet_mode", "single"),
                    (fig6, "mtp_intra_message_spray", False),
                    (fig6, "mtp_intra_message_spray", True),
                    (fig2, "buffer_limit", None),
                    (fig2, "buffer_limit", 4096)]
        assert len(received) == len(expected)
        for config, (base, field, value) in zip(received, expected):
            assert getattr(config, field) == value
            assert {**vars(config), field: None} == \
                {**vars(base), field: None}


class TestCliRunner:
    def test_cli_quick_subset(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["--quick", "table1"]) == 0
        out = capsys.readouterr().out
        assert "MTP (this work)" in out
        assert "PASS" in out
        assert "CONFIRMED" in out  # baseline counterexamples ran too

    def test_cli_rejects_unknown_experiment(self, capsys):
        from repro.experiments.__main__ import main
        with pytest.raises(SystemExit):
            main(["figNaN"])
