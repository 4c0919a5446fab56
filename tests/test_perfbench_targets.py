"""The traced benchmark wraps driftlab functions by name; a renamed or removed
target makes every traced execution fail, so each name must resolve."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_tracing_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for modname, attr, _, _ in tracing.TARGETS:
        obj = importlib.import_module("driftlab." + modname)
        for part in attr.split("."):  # a method must be defined on its class itself
            obj = vars(obj).get(part) if obj is not None else None
        if not callable(obj):
            missing.append(f"{modname}.{attr}")
    assert not missing, f"perfbench/tracing.py TARGETS not found: {missing}"
