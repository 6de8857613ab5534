"""The docs quote measured numbers only from the golden stdout files, and
every module, name and path they cite exists.

A fenced block opened with ```` ```text golden:<file>:<section> ```` must
be a contiguous run of lines of that section of
``tests/golden/<file>.txt``: a ``=== <section> ===`` report of the
experiment runner, or a ``== examples/<name>.py`` section of the example
stdout.  Lines are compared without trailing whitespace, which the
runner pads its tables with and editors strip.  So a change that moves a
number fails here until the doc block is refreshed from the golden file.

EXPERIMENTS.md must cite every runner report, and name every ``[CLAIM]``
id, literally or by a ``prefix.*`` glob; every claim id it names must
exist.  In the prose of the docs, a backticked ``repro.`` dotted name
must import (and ``getattr``), and a backticked repository path must
exist.
"""

import fnmatch
import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
BLOCK_DOCS = ("EXPERIMENTS.md", "README.md")
REFERENCE_DOCS = ("README.md", "EXPERIMENTS.md", "docs/ARCHITECTURE.md",
                  "examples/README.md")

FENCE = re.compile(r"^```(.*)$")
GOLDEN_TAG = re.compile(r"^text golden:(\w+):(\S+)$")
SECTION = re.compile(r"^==+ (\S+)")
CLAIM_LINE = re.compile(r"^\[CLAIM\] (\S+): ", re.MULTILINE)
INLINE_CODE = re.compile(r"`([^`]+)`")
CLAIM_REF = re.compile(r"^[a-z][a-z0-9_]*\.(?:[a-z0-9_]+\*?|\*)$")
DOTTED_NAME = re.compile(r"^repro(?:\.\w+)+$")
REPO_PATH = re.compile(r"^(?:src|tests|examples|docs|perfbench|repro)/"
                       r"[\w./-]*$")


def split_doc(text):
    """Return (prose, [(line number, info string, block lines)])."""
    prose, blocks = [], []
    block = None
    for number, line in enumerate(text.splitlines(), 1):
        fence = FENCE.match(line)
        if block is None:
            if fence:
                block = (number, fence.group(1).strip(), [])
            else:
                prose.append(line)
        elif fence:
            blocks.append(block)
            block = None
        else:
            block[2].append(line)
    assert block is None, f"unclosed fenced block at line {block[0]}"
    return "\n".join(prose), blocks


def golden_sections(name):
    """Map each section name of ``tests/golden/<name>.txt`` to its lines."""
    sections = {}
    lines = None
    for line in (GOLDEN_DIR / f"{name}.txt").read_text().splitlines():
        header = SECTION.match(line)
        if header:
            lines = sections.setdefault(header.group(1), [])
        elif lines is not None:
            lines.append(line.rstrip())
    return sections


def tagged_blocks(doc):
    """The golden-tagged blocks of ``doc`` as (line, file, section, lines)."""
    _prose, blocks = split_doc((REPO_ROOT / doc).read_text())
    tagged = []
    for number, info, lines in blocks:
        if "golden:" not in info:
            continue
        tag = GOLDEN_TAG.match(info)
        assert tag, f"{doc}:{number}: malformed golden tag {info!r}"
        tagged.append((number, tag.group(1), tag.group(2),
                       [line.rstrip() for line in lines]))
    return tagged


def is_contiguous_run(block, section):
    width = len(block)
    return any(section[start:start + width] == block
               for start in range(len(section) - width + 1))


def golden_claim_ids():
    """The claim ids each runner golden file prints."""
    return [set(CLAIM_LINE.findall((GOLDEN_DIR / f"{name}.txt").read_text()))
            for name in ("quick_stdout", "full_stdout")]


def inline_code(doc):
    prose, _blocks = split_doc((REPO_ROOT / doc).read_text())
    return [" ".join(span.split()) for span in INLINE_CODE.findall(prose)]


@pytest.mark.parametrize("doc", BLOCK_DOCS)
def test_tagged_blocks_match_their_golden_section(doc):
    blocks = tagged_blocks(doc)
    assert blocks, f"{doc} quotes no golden block"
    problems = []
    for number, name, section, lines in blocks:
        sections = golden_sections(name)
        if section not in sections:
            problems.append(f"{doc}:{number}: no section {section!r} in "
                            f"tests/golden/{name}.txt")
        elif not lines or not is_contiguous_run(lines, sections[section]):
            problems.append(f"{doc}:{number}: block is not a run of lines "
                            f"of tests/golden/{name}.txt [{section}]")
    assert not problems, "\n".join(problems)


def test_experiments_md_cites_every_report():
    cited = {section for _n, name, section, _l in
             tagged_blocks("EXPERIMENTS.md") if name == "full_stdout"}
    missing = sorted(set(golden_sections("full_stdout")) - cited)
    assert not missing, f"EXPERIMENTS.md cites no block of: {missing}"


def test_claim_ids_are_named_both_ways():
    per_file = golden_claim_ids()
    named = {span for span in inline_code("EXPERIMENTS.md")
             if CLAIM_REF.match(span) and not DOTTED_NAME.match(span)}
    # A named id (or glob) must match a claim in every golden file.
    unknown = sorted(name for name in named for ids in per_file
                     if not any(fnmatch.fnmatchcase(claim, name)
                                for claim in ids))
    assert not unknown, f"EXPERIMENTS.md names no such claim: {unknown}"
    unnamed = sorted(claim for claim in set().union(*per_file)
                     if not any(fnmatch.fnmatchcase(claim, name)
                                for name in named))
    assert not unnamed, f"EXPERIMENTS.md never names: {unnamed}"


def resolves(dotted):
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attribute in parts[split:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


@pytest.mark.parametrize("doc", REFERENCE_DOCS)
def test_doc_references_resolve(doc):
    spans = inline_code(doc)
    bad_names = sorted({span for span in spans
                        if DOTTED_NAME.match(span) and not resolves(span)})
    bad_paths = sorted({span for span in spans if REPO_PATH.match(span)
                        and not (REPO_ROOT / ("src/" + span
                                              if span.startswith("repro/")
                                              else span)).exists()})
    assert not bad_names and not bad_paths, (
        f"{doc}: unresolved names {bad_names}, missing paths {bad_paths}")
