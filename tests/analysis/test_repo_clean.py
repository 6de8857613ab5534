"""Self-check: the shipped source tree and the examples pass the
determinism linter.

Keeping this green is the point of the linter — any new wall-clock read,
unseeded RNG, float virtual time, mutable default, bare-set iteration, or
slotless hot-path class fails CI here (or carries an explicit
``# sim: ignore[...]`` with a reason).
"""

from pathlib import Path

from repro.analysis import format_findings, lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_ROOT = REPO_ROOT / "src" / "repro"
EXAMPLES_ROOT = REPO_ROOT / "examples"


def test_source_tree_exists():
    assert SRC_ROOT.is_dir()
    assert EXAMPLES_ROOT.is_dir()


def test_repo_is_lint_clean():
    findings = lint_paths([str(SRC_ROOT), str(EXAMPLES_ROOT)])
    assert findings == [], "\n" + format_findings(findings)
