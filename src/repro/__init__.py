"""MTP: a message transport protocol with pathlet congestion control.

A faithful, self-contained reproduction of "TCP is Harmful to In-Network
Computing: Designing a Message Transport Protocol (MTP)" (HotNets'21),
including the discrete-event network simulator it runs on, TCP/DCTCP/UDP
baselines, in-network computing offloads, and an experiment runner that
regenerates every table and figure of the paper's evaluation.

Package map:

* :mod:`repro.sim`         -- event kernel, virtual time, RNG, units
* :mod:`repro.net`         -- packets, queues, links, switches, topologies
* :mod:`repro.transport`   -- TCP (NewReno), DCTCP, UDP baselines
* :mod:`repro.core`        -- **MTP**: messages, header, pathlets, CC
* :mod:`repro.offloads`    -- proxy, LBs, cache, mutation, aggregation, NDP
* :mod:`repro.apps`        -- workloads, RPC, KVS
* :mod:`repro.policies`    -- per-entity isolation policies
* :mod:`repro.chaos`       -- scripted fault orchestration and recovery
* :mod:`repro.stats`       -- percentiles, fairness, FCT collection
* :mod:`repro.experiments` -- one driver per paper table/figure
"""

from . import apps, chaos, core, experiments, net, offloads, policies, sim, \
    stats, transport
from .core import MtpEndpoint, MtpStack
from .net import Network
from .sim import Simulator

__version__ = "0.1.0"

__all__ = [
    "sim", "net", "transport", "core", "offloads", "apps", "policies",
    "chaos", "stats", "experiments",
    "Simulator", "Network", "MtpStack", "MtpEndpoint",
    "__version__",
]
