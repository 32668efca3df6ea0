"""Per-layer tracing for the seqdiff benchmark, done from outside the library.

The tracer wraps public functions and methods of each `seqdiff` module with
timing spans. Modules are looked up through `sys.modules`, because the
package namespace rebinds some names (`seqdiff.train` and `seqdiff.infer`
are functions there, not the modules). A function is replaced in every
`seqdiff` namespace that holds it, so the copies made by
`from .tensor import matmul` and the like are traced too.

Each span keeps total time, self time (total minus the time of traced
spans it called) and a call count. For the tensor ops the tracer also adds
the bytes of each newly allocated output and times the backward closure
that the op recorded on the active tape.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

TENSOR_OPS = ("matmul", "add", "mul", "layer_norm", "softmax", "dropout",
              "embedding_lookup", "gather_rows", "cross_entropy_rows",
              "transpose", "reshape", "relu", "sigmoid", "tanh")

# (module, attribute) -> span name. Attributes with a dot are methods.
SPANS = {
    ("seqdiff.tensor", "backward"): "tensor.backward",
    ("seqdiff.optim", "Adam.step"): "optim.adam_step",
    ("seqdiff.rng", "RngStream.gaussian"): "rng.draw",
    ("seqdiff.rng", "RngStream.uniform"): "rng.draw",
    ("seqdiff.rng", "RngStream.integers"): "rng.draw",
    ("seqdiff.rng", "RngStream.permutation"): "rng.draw",
    ("seqdiff.rng", "RngStream.derive"): "rng.derive",
    ("seqdiff.schedule", "posterior"): "schedule.posterior",
    ("seqdiff.diffusion", "q_sample"): "diffusion.q_sample",
    ("seqdiff.diffusion", "embed_to_x0"): "diffusion.embed_to_x0",
    ("seqdiff.diffusion", "reverse_step"): "diffusion.reverse_step",
    ("seqdiff.model", "Approximator.reconstruct"): "model.reconstruct",
    ("seqdiff.model", "mix"): "model.mix",
    ("seqdiff.model", "step_embedding_batch"): "model.step_embedding",
    ("seqdiff.infer", "infer"): "infer.infer",
    ("seqdiff.infer", "DiffusionScorer.represent"): "infer.represent",
    ("seqdiff.infer", "_EmbeddingScorer.score_vector"): "infer.score_vector",
    ("seqdiff.evaluate", "rank_records"): "evaluate.rank_records",
    ("seqdiff.evaluate", "target_rank"): "evaluate.target_rank",
    ("seqdiff.train", "run_training"): "train.run_training",
    ("seqdiff.train", "_validation_ndcg10"): "train.validate",
    ("seqdiff.train", "_assemble"): "train.assemble",
    ("seqdiff.checkpoint", "save_checkpoint"): "checkpoint.save",
    ("seqdiff.checkpoint", "load_checkpoint"): "checkpoint.load",
    ("seqdiff.data", "synth"): "data.synth",
    ("seqdiff.data", "split"): "data.split",
}
SPANS.update({("seqdiff.tensor", op): f"tensor.{op}" for op in TENSOR_OPS})


class Span:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    """Installs timing wrappers into the imported `seqdiff` modules.

    Use as a context manager; leaving it puts every original back.
    """

    def __init__(self):
        self.spans: dict[str, Span] = defaultdict(Span)
        self.bwd_s: dict[str, float] = defaultdict(float)
        self.out_bytes: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._child_time = [0.0]  # time of traced children, one slot per open span
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name: str, fn, after=None):
        span = self.spans[name]
        child_time = self._child_time
        clock = time.perf_counter

        def traced(*args, **kwargs):
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = child_time.pop()
                child_time[-1] += elapsed
                span.calls += 1
                span.total += elapsed
                span.self_time += elapsed - children
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _op_after(self, op: str, tape_stack):
        out_bytes, bwd_s = self.out_bytes, self.bwd_s
        clock = time.perf_counter

        def after(args, out):
            if any(out is a for a in args):
                return  # e.g. dropout outside training hands its input back
            out_bytes[op] += out.data.nbytes
            # The tape has no public hook, so swap in a timed copy of the
            # closure this op just recorded. If the tape's layout changes,
            # bwd_s reads 0 and the benchmark's own test fails.
            if not tape_stack:
                return
            nodes = getattr(tape_stack[-1], "_nodes", None)
            if nodes and nodes[-1][0] is out:
                node_out, inputs, fn = nodes[-1]

                def timed_bwd(g):
                    start = clock()
                    grads = fn(g)
                    bwd_s[op] += clock() - start
                    return grads

                nodes[-1] = (node_out, inputs, timed_bwd)

        return after

    def _reconstruct_after(self, args, result):
        hist, mask = args[1], args[2]
        self.counts["model.rows"] += len(hist)
        self.counts["model.valid_positions"] += int(mask.sum())
        self.counts["model.positions"] += mask.size

    # -- install / restore ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        tensor_mod = sys.modules["seqdiff.tensor"]
        tape_stack = getattr(tensor_mod, "_TAPE_STACK", None)
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "seqdiff" or n.startswith("seqdiff."))]
        for (mod_name, attr), name in SPANS.items():
            owner = sys.modules.get(mod_name)
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                attr = meth
            original = getattr(owner, "__dict__", {}).get(attr)
            if original is None:
                continue  # renamed or removed; its metrics read 0 and the smoke test says so
            after = None
            if name.startswith("tensor.") and name != "tensor.backward":
                after = self._op_after(name[len("tensor."):], tape_stack)
            elif name == "model.reconstruct":
                after = self._reconstruct_after
            wrapper = self._wrap(name, original, after)
            if name == "tensor.backward":
                wrapper = self._count_tape(wrapper)
            if cls_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for ns in namespaces:
                if ns.__dict__.get(attr) is original:
                    self._patch(ns, attr, original, wrapper)
        return self

    def _count_tape(self, wrapper):
        counts = self.counts

        def backward(tape, *args, **kwargs):
            counts["tensor.tape_nodes"] += len(tape)
            return wrapper(tape, *args, **kwargs)

        return backward

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named as in BENCHMARK.json, without units."""
        s = self.spans
        c = self.counts
        out: dict[str, float] = {}
        for op in TENSOR_OPS:
            span = s[f"tensor.{op}"]
            out[f"tensor.{op}.calls"] = span.calls
            out[f"tensor.{op}.fwd_s"] = span.total
            out[f"tensor.{op}.bwd_s"] = self.bwd_s[op]
            out[f"tensor.{op}.out_mb"] = self.out_bytes[op] / 1e6
        out["tensor.backward_s"] = s["tensor.backward"].total
        out["tensor.tape_nodes"] = c["tensor.tape_nodes"]
        out["optim.adam_step_s"] = s["optim.adam_step"].total
        out["optim.adam_steps"] = s["optim.adam_step"].calls
        out["rng.draws"] = s["rng.draw"].calls
        out["rng.draw_s"] = s["rng.draw"].total
        out["rng.derive_calls"] = s["rng.derive"].calls
        out["schedule.posterior_calls"] = s["schedule.posterior"].calls
        out["schedule.posterior_s"] = s["schedule.posterior"].total
        out["diffusion.q_sample_s"] = s["diffusion.q_sample"].total
        out["diffusion.embed_to_x0_s"] = s["diffusion.embed_to_x0"].total
        out["diffusion.reverse_step_calls"] = s["diffusion.reverse_step"].calls
        out["diffusion.reverse_step_s"] = s["diffusion.reverse_step"].total
        recon = s["model.reconstruct"]
        out["model.reconstruct_calls"] = recon.calls
        out["model.reconstruct_s"] = recon.total
        out["model.rows_per_call"] = c["model.rows"] / recon.calls if recon.calls else 0.0
        out["model.valid_pos_frac"] = (c["model.valid_positions"] / c["model.positions"]
                                       if c["model.positions"] else 0.0)
        out["model.mix_s"] = s["model.mix"].total
        out["model.step_embedding_s"] = s["model.step_embedding"].total
        out["infer.represent_calls"] = s["infer.represent"].calls
        out["infer.represent_s"] = s["infer.represent"].total
        out["infer.score_vector_s"] = s["infer.score_vector"].total
        # infer() itself only sorts the scores once represent/score_vector return
        out["infer.rank_s"] = s["infer.infer"].self_time
        out["evaluate.rank_records_s"] = s["evaluate.rank_records"].total
        out["evaluate.target_rank_s"] = s["evaluate.target_rank"].total
        out["train.validate_s"] = s["train.validate"].total
        out["train.fit_s"] = s["train.run_training"].total - out["train.validate_s"]
        out["train.assemble_s"] = s["train.assemble"].total
        out["train.batches"] = s["train.assemble"].calls
        out["checkpoint.save_s"] = s["checkpoint.save"].total
        out["checkpoint.load_s"] = s["checkpoint.load"].total
        out["data.synth_s"] = s["data.synth"].total
        out["data.split_s"] = s["data.split"].total
        return out
