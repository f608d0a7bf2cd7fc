"""The benchmark's tracer (``bench/tracing.py``) wraps functions of mgem by
name and calls more of ``qp`` from its hooks. A name it needs that the
package no longer has fails here, not only in a traced benchmark run.

The tracer is read as source and run in a namespace of its own, so this
test writes nothing under ``bench/``."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# the qp functions the tracer's solver hooks call on each traced instance
HOOK_CALLS = ("lower_bounds", "solve_enumerate", "dual_objective")


def tracing_namespace() -> dict:
    namespace = {"__name__": "tracing", "__file__": str(TRACING)}
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), namespace)
    return namespace


def test_every_name_the_tracer_needs_exists_in_mgem():
    targets = tracing_namespace()["TARGETS"]
    assert targets
    needed = [(module, name) for module, name, _ in targets]
    needed += [("qp", name) for name in HOOK_CALLS]
    missing = [f"mgem.{module}.{name}" for module, name in needed
               if not callable(getattr(importlib.import_module(f"mgem.{module}"), name, None))]
    assert missing == []
