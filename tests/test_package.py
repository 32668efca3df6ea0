import ast
import importlib
import importlib.util
import re
from pathlib import Path

import seqdiff
import seqdiff.tensor

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
BENCH_RUN = TRACING.with_name("run.py")
BENCH_TEST = TRACING.with_name("test_bench.py")


def test_train_submodule_is_not_shadowed():
    assert seqdiff.train is importlib.import_module("seqdiff.train")


def test_every_definition_in_src_is_named_outside_itself():
    # A function, class or method that nothing in src/ or perfbench/ names
    # except its own definition is dead code, or test-only code that belongs
    # in tests/. Names the package exports count as used; dunder methods run
    # implicitly.
    sources = sorted((ROOT / "src" / "seqdiff").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))
    text = "\n".join(path.read_text() for path in sources)
    defined = []
    for path in sorted((ROOT / "src" / "seqdiff").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for d in [node, *members]:
                if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.append((path.stem, d.name))
    unused = [f"{module}.{name}" for module, name in defined
              if name not in seqdiff.__all__ and not name.startswith("__")
              and len(re.findall(rf"\b{name}\b", text))
              <= sum(n == name for _, n in defined)]
    assert unused == []


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


def _bench_ops() -> dict[str, tuple[str, ...]]:
    """The tensor ops perfbench/test_bench.py requires per approximator, read as literals."""
    tree = ast.parse(BENCH_TEST.read_text())
    ops = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
           if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
           and node.targets[0].id in ("GRU_OPS", "TRANSFORMER_OPS")}
    return {"gru": ops["GRU_OPS"], "transformer": ops["TRANSFORMER_OPS"]}


def test_every_bench_hook_is_called_by_a_short_pipeline(tmp_path):
    # A refactor that stops calling a hooked name (reverse_step no longer
    # going through posterior, say) reads 0 in that per-layer metric; only
    # the minutes-long benchmark run would notice. The same holds for a
    # tensor op one approximator stops calling, or calls without a backward.
    from conftest import desk_config

    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    sd = seqdiff  # looked up at call time, so the tracer's wrappers are what runs
    called, silent_ops, tape_nodes = set(), {}, {}
    for approximator, ops in _bench_ops().items():
        with tracing.Tracer() as tracer:
            cfg = desk_config(dim=8, blocks=1, heads=2, t=2, batch_size=16, epochs=1,
                              max_len=6, eval_every=1, approximator=approximator)
            dataset = sd.synth("markov", 30, 10, 6, 1)
            test = sd.split(dataset).test
            path = tmp_path / f"{approximator}.ckpt"
            sd.save_checkpoint(sd.run_training(dataset, cfg).checkpoint, path)
            scorer = sd.build_scorer(sd.load_checkpoint(path))
            sd.evaluate(scorer, test, seed=0)
            sd.infer(scorer, test[0].history, sd.RngStream(0))
            sd.uncertainty_probe(scorer, test[0].history, n_reverses=2, k=3)
        called |= {name for name, span in tracer.spans.items() if span.calls}
        # the tracer counts the tape as backward is entered; a backward that
        # empties or replaces the tape first would read 0 here
        tape_nodes[approximator] = tracer.counts["tensor.tape_nodes"]
        silent = [op for op in ops
                  if not (tracer.spans[f"tensor.{op}"].calls and tracer.bwd_s[op] > 0)]
        if silent:
            silent_ops[approximator] = silent
    assert sorted(set(tracing.SPANS.values()) - called) == []
    assert silent_ops == {}
    assert [a for a, n in tape_nodes.items() if n == 0] == []
