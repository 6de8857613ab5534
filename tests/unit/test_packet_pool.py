"""PacketPool: free-list recycling of packet shells."""

import pytest

from repro.net.packet import (ECT_CAPABLE, ECT_NOT_CAPABLE, PACKET_POOL,
                              Packet, PacketPool)


class TestPacketPool:
    def test_acquire_matches_direct_construction(self):
        pool = PacketPool()
        direct = Packet(1, 2, 1500, "mtp", header="h", ecn=ECT_CAPABLE,
                        flow_label=(1, 2, 3), entity="t1", created_at=42)
        pooled = pool.acquire(1, 2, 1500, "mtp", header="h",
                              ecn=ECT_CAPABLE, flow_label=(1, 2, 3),
                              entity="t1", created_at=42)
        for field in ("src", "dst", "size", "protocol", "header", "ecn",
                      "flow_label", "entity", "created_at"):
            assert getattr(pooled, field) == getattr(direct, field)
        assert pooled.uid == direct.uid + 1  # same global counter
        assert pooled.pooled and not direct.pooled

    def test_release_and_reuse_recycles_shell(self):
        pool = PacketPool()
        first = pool.acquire(1, 2, 100, "mtp", header=object())
        first.corrupted = True
        pool.release(first)
        assert pool.free_count() == 1
        assert first.header is None  # headers are never recycled
        second = pool.acquire(3, 4, 200, "mtp")
        assert second is first  # same shell...
        assert pool.free_count() == 0
        assert second.src == 3 and second.dst == 4 and second.size == 200
        assert not second.corrupted  # ...fully re-initialised
        assert second.flow_label == (3, 4)

    def test_uids_fresh_and_monotonic_across_reuse(self):
        pool = PacketPool()
        uids = []
        for _ in range(5):
            packet = pool.acquire(1, 2, 64, "mtp")
            uids.append(packet.uid)
            pool.release(packet)
        assert uids == sorted(uids)
        assert len(set(uids)) == 5
        assert pool.reused == 4

    def test_release_non_pooled_packet_is_noop(self):
        pool = PacketPool()
        packet = Packet(1, 2, 64, "mtp")
        pool.release(packet)
        assert pool.free_count() == 0
        assert pool.released == 0

    def test_double_release_is_noop(self):
        pool = PacketPool()
        packet = pool.acquire(1, 2, 64, "mtp")
        pool.release(packet)
        pool.release(packet)
        assert pool.free_count() == 1
        assert pool.released == 1

    def test_free_list_capped(self):
        pool = PacketPool(max_free=2)
        packets = [pool.acquire(1, 2, 64, "mtp") for _ in range(5)]
        for packet in packets:
            pool.release(packet)
        assert pool.free_count() == 2
        assert pool.released == 5

    def test_size_validated_on_reuse_path(self):
        pool = PacketPool()
        pool.release(pool.acquire(1, 2, 64, "mtp"))
        with pytest.raises(ValueError):
            pool.acquire(1, 2, 0, "mtp")
        with pytest.raises(ValueError):
            pool.acquire(1, 2, -3, "mtp")

    def test_retained_header_survives_release(self):
        pool = PacketPool()
        header = {"ranges": [(0, 1000)]}
        packet = pool.acquire(1, 2, 64, "mtp", header=header)
        kept = packet.header
        pool.release(packet)
        reused = pool.acquire(5, 6, 64, "mtp", header={"other": True})
        assert kept == {"ranges": [(0, 1000)]}  # untouched by recycling
        assert reused.header == {"other": True}

    def test_ecn_default_reset(self):
        pool = PacketPool()
        packet = pool.acquire(1, 2, 64, "mtp", ecn=ECT_CAPABLE)
        packet.mark_ce()
        pool.release(packet)
        again = pool.acquire(1, 2, 64, "mtp")
        assert again.ecn == ECT_NOT_CAPABLE
        assert not again.marked

    def test_global_pool_exists(self):
        packet = PACKET_POOL.acquire(9, 9, 64, "mtp")
        assert packet.pooled
        PACKET_POOL.release(packet)
