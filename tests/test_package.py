import importlib
import importlib.util
import re
from pathlib import Path

import seqdiff
import seqdiff.tensor

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
BENCH_RUN = TRACING.with_name("run.py")


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


def test_every_package_name_the_bench_calls_exists():
    # perfbench/run.py drives the package as `sd`; a deleted name would only
    # show in the minutes-long benchmark run.
    names = set(re.findall(r"\bsd\.([A-Za-z_]\w*)", BENCH_RUN.read_text()))
    assert "run_training" in names
    assert sorted(n for n in names if not hasattr(seqdiff, n)) == []
    assert callable(seqdiff.tensor.default_dtype)
