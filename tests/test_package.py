import importlib
import importlib.util
from pathlib import Path

import seqdiff

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_train_submodule_is_not_shadowed():
    assert seqdiff.train is importlib.import_module("seqdiff.train")


def test_every_bench_hook_target_exists():
    # The bench tracer looks each target up in a module's or class's __dict__
    # and skips a missing one, which would silently zero that per-layer metric.
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attr in tracing.SPANS:
        owner = importlib.import_module(module)
        cls_name, _, name = attr.rpartition(".")
        if cls_name:
            owner = owner.__dict__.get(cls_name)
        if name not in getattr(owner, "__dict__", {}):
            missing.append(f"{module}:{attr}")
    assert missing == []
