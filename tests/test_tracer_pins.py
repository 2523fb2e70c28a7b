"""The benchmark's tracer times `sfr` functions that it names in a table.

A metric whose span has no live target is reported as absent, and
`perfbench/selftest.py` fails on it. This test reads the same table, so that
deleting or renaming a timed function also fails the tests.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolves(module_name: str, attr: str) -> bool:
    """Whether a target names a callable, looked up as Tracer.__enter__ does."""
    module = importlib.import_module(module_name)
    owner_name, _, name = attr.rpartition(".")
    owner = getattr(module, owner_name, None) if owner_name else module
    return owner is not None and callable(vars(owner).get(name))


def test_every_span_a_metric_reads_has_a_live_target():
    tracing = load_tracing()
    if not hasattr(tracing, "TARGETS"):
        pytest.skip("the tracer names no targets")
    targets: dict[str, list[tuple[str, str]]] = {}
    for span, module_name, attr, _ in tracing.TARGETS:
        targets.setdefault(span, []).append((module_name, attr))
    dead = {
        span: targets.get(span, [])
        for span in sorted({metric[2] for metric in tracing.SPAN_METRICS})
        if not any(resolves(module_name, attr) for module_name, attr in targets.get(span, []))
    }
    assert not dead, f"spans whose metrics no live target feeds (span: its targets): {dead}"
