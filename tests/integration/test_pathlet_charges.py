"""MTP pathlet accounting on the Figure-5 system.

* Every byte charged to a ``(pathlet, tc)`` belongs to exactly one
  in-flight record, so no acknowledgement, NACK, RTO or abort releases a
  charge twice.
* Plain congestion loss never declares a pathlet dead: the failover that
  forgets a pathlet is for failed links, and Figure 5 has none.
"""

from collections import Counter

from repro.core import MtpStack
from repro.core.cc import PathletCcManager
from repro.experiments import Fig5Config, run_fig5
from repro.sim import milliseconds


def test_charges_equal_inflight_records(monkeypatch):
    endpoints = []
    make_endpoint = MtpStack.endpoint

    def recording(self, *args, **kwargs):
        endpoint = make_endpoint(self, *args, **kwargs)
        endpoints.append(endpoint)
        return endpoint

    monkeypatch.setattr(MtpStack, "endpoint", recording)
    run_fig5("mtp", Fig5Config(duration_ns=milliseconds(1),
                               pathlet_mode="single"))
    sender = max(endpoints, key=lambda endpoint: endpoint.data_packets_sent)
    assert sender.retransmissions > 0  # timeouts did release charges
    for stack in {endpoint.stack for endpoint in endpoints}:
        records = Counter()
        for endpoint in endpoints:
            if endpoint.stack is not stack:
                continue
            for state in endpoint._outgoing.values():
                sizes = state.message.packet_sizes
                for pkt_num, (_, _, path) in state.inflight.items():
                    for pathlet_id in path:
                        records[(pathlet_id, state.message.tc)] += \
                            sizes[pkt_num]
        assert stack.cc._inflight == dict(records)


def test_fault_free_fig5_never_forgets_a_pathlet(monkeypatch):
    forgotten = []
    forget = PathletCcManager._forget_pathlet

    def recording(self, pathlet_id):
        forgotten.append(pathlet_id)
        forget(self, pathlet_id)

    monkeypatch.setattr(PathletCcManager, "_forget_pathlet", recording)
    run_fig5("mtp", Fig5Config(duration_ns=milliseconds(2)))
    assert forgotten == []
