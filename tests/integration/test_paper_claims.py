"""The paper's claims, checked on the ``--quick`` runner's stdout.

``python -m repro.experiments`` ends every report with
``[CLAIM] <id>: <statement> ... HOLDS|FAILS`` lines computed from that
report's own results.  This module runs ``--quick`` once and checks that
the printed claim ids are exactly :data:`CLAIMS`, that every claim holds,
and that stdout equals the committed golden file.  A change that reverses
a paper claim, drops one, or moves any reported number fails here.
"""

import contextlib
import io
import pathlib
import re

import pytest

from repro.experiments.__main__ import main

GOLDEN = pathlib.Path(__file__).parent.parent / "golden" / "quick_stdout.txt"
CLAIM_LINE = re.compile(r"^\[CLAIM\] (\S+): .* \.\.\. (HOLDS|FAILS)$",
                        re.MULTILINE)

CLAIMS = (
    "table1.mtp_column",
    "table1.baseline_limits",
    "fig2.unlimited_growth",
    "fig2.limited_bounded",
    "fig2.limited_hol",
    "fig2.limited_server_busy",
    "fig3.per_message_underutilizes",
    "fig3.per_message_noisier",
    "fig3.per_message_fewer_messages",
    "fig5.mtp_vs_dctcp",
    "fig5.mtp_goodput",
    "fig5.dctcp_progress",
    "fig5.mtp_converges",
    "fig5.dctcp_unconverged",
    "fig6.mtp_lowest_p99",
    "fig6.all_complete",
    "fig7.shared_skewed",
    "fig7.separate_isolates",
    "fig7.fair_share_isolates",
    "fig7.link_utilized",
    "fig8.mtp_recovers_faster",
    "ablations.pathlet_granularity",
    "ablations.feedback_fills_link",
    "ablations.feedback_bounded_queue",
    "ablations.fig5_ecn",
    "ablations.fig5_delay",
    "ablations.fig5_rate",
    "ablations.atomicity_completes",
    "ext.ndp_trimming_nacks",
    "ext.ndp_trimming_faster",
    "ext.rcp_comparable_fct",
    "ext.rcp_smaller_queue",
    "ext.message_independence",
    "ext.mtp_vs_mptcp",
    "ext.mptcp_unconverged",
    "ext.header_outgrows_tcp",
    "ext.header_linear",
    "sweep_flip.mtp_wins_96us",
    "sweep_flip.mtp_wins_384us",
    "sweep_flip.mtp_wins_1536us",
    "sweep_load.mtp_never_loses",
    "sweep_load.mtp_wins_below_heavy",
)


@pytest.fixture(scope="module")
def quick_stdout():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["--quick", "--jobs", "2"]) == 0
    return out.getvalue()


def test_claim_ids_are_the_committed_list(quick_stdout):
    printed = [claim_id for claim_id, _ in CLAIM_LINE.findall(quick_stdout)]
    assert printed == list(CLAIMS)


@pytest.mark.parametrize("claim_id", CLAIMS)
def test_claim_holds(quick_stdout, claim_id):
    verdicts = dict(CLAIM_LINE.findall(quick_stdout))
    assert verdicts.get(claim_id) == "HOLDS"


def test_stdout_matches_golden_file(quick_stdout):
    assert quick_stdout == GOLDEN.read_text()
