"""Experiment drivers: one module per table/figure of the paper.

| Paper artifact | Module | Entry points |
|---|---|---|
| Table 1  | :mod:`.table1`          | ``render_paper_table``, ``run_probes`` |
| Figure 2 | :mod:`.fig2_proxy`      | ``run_fig2``, ``compare_fig2`` |
| Figure 3 | :mod:`.fig3_one_rpf`    | ``run_fig3``, ``compare_fig3`` |
| Figure 5 | :mod:`.fig5_multipath`  | ``run_fig5``, ``compare_fig5`` |
| Figure 6 | :mod:`.fig6_loadbalance`| ``run_fig6``, ``compare_fig6`` |
| Figure 7 | :mod:`.fig7_isolation`  | ``run_fig7``, ``compare_fig7`` |
| Figure 8 | :mod:`.fig8_failover`   | ``run_fig8``, ``compare_fig8`` |
| Ablations| :mod:`.ablations`       | ``ablate_*`` |
| Extensions, sweeps | :mod:`.extensions` | ``compare_*``, ``sweep_*`` |

Figure 8 is this reproduction's extension: the paper argues that message
transport plus pathlet scoping makes failure recovery local and fast;
fig8 demonstrates it under a scripted chaos schedule (link flap, offload
migration, corruption window) with packet-conservation auditing on.

``python -m repro.experiments`` runs every driver and ends each report
with ``[CLAIM]`` lines checking the paper's claims (see ``__main__``).
"""

from .ablations import (ablate_feedback_types, ablate_message_atomicity,
                        ablate_pathlet_granularity)
from .common import format_table, series_stats
from .fig2_proxy import Fig2Config, Fig2Result, compare_fig2, run_fig2
from .fig3_one_rpf import Fig3Config, Fig3Result, compare_fig3, run_fig3
from .fig5_multipath import Fig5Config, Fig5Result, compare_fig5, run_fig5
from .fig6_loadbalance import (Fig6Config, Fig6Result, compare_fig6,
                               run_fig6)
from .fig7_isolation import Fig7Config, Fig7Result, compare_fig7, run_fig7
from .fig8_failover import (Fig8Config, Fig8Result, TelemetryOffload,
                            compare_fig8, run_fig8)
from .table1 import PAPER_TABLE, REQUIREMENTS, render_paper_table, run_probes

__all__ = [
    "Fig2Config", "Fig2Result", "run_fig2", "compare_fig2",
    "Fig3Config", "Fig3Result", "run_fig3", "compare_fig3",
    "Fig5Config", "Fig5Result", "run_fig5", "compare_fig5",
    "Fig6Config", "Fig6Result", "run_fig6", "compare_fig6",
    "Fig7Config", "Fig7Result", "run_fig7", "compare_fig7",
    "Fig8Config", "Fig8Result", "TelemetryOffload", "run_fig8",
    "compare_fig8",
    "PAPER_TABLE", "REQUIREMENTS", "render_paper_table", "run_probes",
    "ablate_pathlet_granularity", "ablate_feedback_types",
    "ablate_message_atomicity",
    "format_table", "series_stats",
]
