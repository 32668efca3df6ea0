"""Smoke test of the benchmark itself, at seconds-long sizes.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

TRANSFORMER = ("desk-cyclic",)
GRU = ("gru-markov",)
ALL = TRANSFORMER + GRU
TRANSFORMER_OPS = ("matmul", "add", "mul", "layer_norm", "softmax", "dropout",
                   "embedding_lookup", "gather_rows", "cross_entropy_rows",
                   "transpose", "reshape", "relu")
GRU_OPS = ("matmul", "add", "mul", "dropout", "embedding_lookup", "gather_rows",
           "cross_entropy_rows", "transpose", "reshape", "sigmoid", "tanh")

# per-layer metric -> workloads on which it must be non-zero
EXERCISED = {}
for _op in set(TRANSFORMER_OPS) | set(GRU_OPS):
    _where = tuple(w for w in ALL
                   if _op in (TRANSFORMER_OPS if w in TRANSFORMER else GRU_OPS))
    for _field in ("calls", "fwd_s", "bwd_s", "out_mb"):
        EXERCISED[f"tensor.{_op}.{_field}"] = _where
for _m in SPEC["per_layer"]:
    EXERCISED.setdefault(_m["name"], ALL)
# page-fault counts of short phases at smoke size can legitimately be 0
EXERCISED["evaluate.minflt"] = ()
EXERCISED["infer.minflt"] = ()


def bench(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
           str(seed), "--seconds", "0", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result(done) -> dict:
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    out = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    return out


def digests(done) -> str:
    return next(line for line in done.stdout.splitlines() if line.startswith("digests "))


def test_every_workload_in_spec_is_defined():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import run
    finally:
        sys.path.pop(0)
    assert sorted(WORKLOADS) == sorted(run.WORKLOADS)
    assert set(EXERCISED) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_rerun(workload):
    first = bench(workload, 0)
    metrics = result(first)["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, m in metrics.items():
        assert m["value"] > 0, name
    # same code, same seed: identical outputs (the run itself also checks
    # this against the digests the first run stored)
    second = bench(workload, 0)
    result(second)
    assert digests(second) == digests(first)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    done = bench(workload, 1)
    metrics = result(done)["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    missing = [n for n, where in EXERCISED.items()
               if workload in where and metrics[n]["value"] == 0]
    assert not missing, f"zero on {workload}: {missing}"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
