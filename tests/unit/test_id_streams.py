"""Every process-global ID stream is restarted by ``reset_id_streams``."""

import ast
import importlib
from pathlib import Path

import repro
from repro.experiments.common import ID_STREAMS, reset_id_streams

SRC = Path(repro.__file__).parent


def _is_itertools_count(node):
    return (isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "count"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "itertools")


def module_level_counters():
    """(module path, name) of each module-level ``itertools.count()``."""
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(("repro",) + path.relative_to(SRC).with_suffix(
            "").parts)
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)) \
                    and _is_itertools_count(node.value):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                found.update((module, target.id) for target in targets)
    return found


def test_every_module_level_counter_is_reset():
    assert module_level_counters() == set(ID_STREAMS)


def test_reset_restarts_each_stream():
    for module_path, attribute in ID_STREAMS:
        next(getattr(importlib.import_module(module_path), attribute))
    reset_id_streams()
    for module_path, attribute in ID_STREAMS:
        assert next(getattr(importlib.import_module(module_path),
                            attribute)) == 1
