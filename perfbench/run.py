"""seqdiff benchmark: one workload, end to end, in one process.

    python3 perfbench/run.py --workload desk-cyclic --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports the package from `./src`.
With `--trace 0` the run times the paths a user runs (set-up, training,
checkpoint round trip, full-ranking evaluation, single-history inference
and the uncertainty probe) and prints the end-to-end metrics. Times are
scaled to a reference host speed (perfbench/hostspeed.py). With
`--trace 1` it runs a fixed amount of the same work twice, untraced and
then traced, and prints the per-layer metrics plus the tracing overhead.
Every output is checked; the last line is one JSON object. Workload
rationale and the map from layer metrics to end-to-end metrics are in
perfbench/README.md.
"""

import os

# BLAS must see its thread pin before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import ReferenceClock, batch_kernel_s, dispatch_kernel_s  # noqa: E402
from tracing import Tracer  # noqa: E402

SRC = Path("src")
OUT = Path(".bench_out")
SPEC = Path("BENCHMARK.json")
clock = time.perf_counter

SETUPS = 9  # fresh interpreters that each import, synthesize and split; setup_s is the median
INFER_DIGEST_CALLS = 200  # least infer() calls per pass; their rankings are digested
PROBE_DIGEST = 2  # least probes per pass; their vectors are digested
PROBE_TOPK = 20
# Share of the timed phase that each path gets. The next unit of work always
# goes to the path furthest below its share, so every metric samples the
# whole run rather than one stretch of a host whose speed drifts.
SHARES = {"train": 0.25, "eval": 0.25, "infer": 0.25, "probe": 0.25}


@dataclasses.dataclass(frozen=True)
class Workload:
    kind: str  # synthetic data kind
    users: int
    items: int
    length: int
    config: dict  # TrainConfig fields besides the seed
    eval_chunk: int  # test sequences per evaluate() call
    infer_block: int  # infer() calls between two reference-kernel runs
    peak_mb: int  # peak RSS measured on the seed code; checked against MemAvailable
    ndcg_floor: float  # evaluation NDCG@10 below this fails the run
    timed_epochs: int  # epochs of each timed run_training call
    probe_reversals: int = 100


DESK = dict(dim=32, blocks=2, heads=2, t=8, batch_size=128)

# Why each workload exists is written down in perfbench/README.md.
WORKLOADS = {
    "desk-cyclic": Workload(
        "cyclic", 256, 50, 20, dict(DESK, epochs=50, eval_every=50),
        eval_chunk=8, infer_block=5, peak_mb=200, ndcg_floor=0.6, timed_epochs=10),
    "gru-markov": Workload(
        "markov", 200, 50, 20, dict(DESK, approximator="gru", epochs=60, eval_every=60),
        eval_chunk=4, infer_block=2, peak_mb=120, ndcg_floor=0.35,
        timed_epochs=20),
}


def smoke_size(wl: Workload) -> Workload:
    """Seconds-long version of a workload, for the benchmark's own test."""
    config = dict(wl.config, epochs=2, eval_every=2)
    return dataclasses.replace(
        wl, users=60, items=300, config=config, peak_mb=min(wl.peak_mb, 400),
        ndcg_floor=0.0, timed_epochs=2, probe_reversals=10)


class BenchError(Exception):
    """The run cannot start; reported as one line with a non-zero exit."""


# ---------------------------------------------------------------------------
# host and input checks
# ---------------------------------------------------------------------------


def mem_available_mb() -> float | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return None


def import_seqdiff():
    """Import the package from ./src."""
    if not (SRC / "seqdiff" / "__init__.py").is_file():
        raise BenchError("src/seqdiff not found; run from the root of a seqdiff checkout")
    sys.path.insert(0, str(SRC.resolve()))
    import seqdiff
    if Path(seqdiff.__file__).resolve().parent != (SRC / "seqdiff").resolve():
        raise BenchError(f"imported seqdiff from {seqdiff.__file__}, not from ./src")
    return seqdiff


def child_setup_s(wl: Workload, seed: int) -> float:
    """Import, synthesize and split once in a fresh interpreter."""
    code = (
        "import time; t0 = time.perf_counter(); import sys; "
        f"sys.path.insert(0, {str(SRC.resolve())!r}); import seqdiff; "
        f"seqdiff.split(seqdiff.synth({wl.kind!r}, {wl.users}, {wl.items}, "
        f"{wl.length}, {seed})); print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def ref_kernel_s(np) -> float:
    """A fixed numpy kernel, timed to show how fast the host is right now."""
    a = np.arange(256 * 256, dtype=np.float64).reshape(256, 256) / 65536.0
    start = clock()
    for _ in range(100):
        a = np.tanh(a @ a.T) + 1e-3
    return clock() - start


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted([*SRC.glob("seqdiff/**/*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(str(path).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


# ---------------------------------------------------------------------------
# one pass over the user paths
# ---------------------------------------------------------------------------


class Ops:
    """Operations attempted and failed, as the JSON result reports them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed


def run_pass(sd, wl: Workload, seed: int, seconds: float, clocks,
             workdir: Path, ops: Ops, problems: list[str]) -> dict:
    """Run every user path; return measured values and output digests.

    The workload's full training makes the model. Then timed training
    runs, evaluation, inference and probes share `seconds` of wall time.
    Whatever `seconds` is, one timed training run is made, every test
    sequence is evaluated, and at least INFER_DIGEST_CALLS infer calls and
    PROBE_DIGEST probes are made; with `seconds=0` that fixed work is all
    the pass does.
    """
    import numpy as np

    refclock, batchclock = clocks  # dispatch and batch kernels
    out: dict = {}
    digests = {}
    dataset = sd.synth(wl.kind, wl.users, wl.items, wl.length, seed)
    test = sd.split(dataset).test
    cfg = sd.TrainConfig(**wl.config, seed=seed)

    def train(config):
        """One run_training call, timed in segments between its log_fn calls.

        run_training calls log_fn after each epoch and each validation; each
        call closes a segment and runs the batch kernel.
        """
        fit, validation = [], []  # (wall s, reference s) per segment
        batchclock.restart()
        mark = [clock()]

        def log_fn(message):
            elapsed = clock() - mark[0]
            segment = (elapsed, elapsed * batchclock.factor())
            (validation if "validation" in message else fit).append(segment)
            mark[0] = clock()

        result = sd.run_training(dataset, config, log_fn=log_fn)
        log_fn("returned")
        refclock.restart()
        losses = [log.loss for log in result.step_logs]
        ops.add(len(losses), sum(not math.isfinite(x) for x in losses))
        if result.epochs_run != config.epochs:
            problems.append(f"training ran {result.epochs_run} of {config.epochs} epochs")
        return result, fit, validation

    # The model that evaluation, inference and probes use: the workload's
    # full training, with one validation after the last epoch.
    flt = minflt()
    result, fit, validation = train(cfg)
    out["train.minflt"] = minflt() - flt
    out["train_model_raw_s"] = sum(w for w, _ in fit)
    out["train_validate_raw_s"] = sum(w for w, _ in validation)
    out["train_model_s"] = sum(r for _, r in fit + validation)
    out["train_loss"] = result.epoch_losses[-1]

    path = workdir / "model.ckpt"
    sd.save_checkpoint(result.checkpoint, path)
    blob = path.read_bytes()
    out["checkpoint.bytes"] = len(blob)
    digests["checkpoint"] = hashlib.sha256(blob).hexdigest()
    loaded = sd.load_checkpoint(path)
    same = (loaded.vocab_size == result.checkpoint.vocab_size
            and loaded.tensors.keys() == result.checkpoint.tensors.keys()
            and all(np.array_equal(loaded.tensors[k], v)
                    for k, v in result.checkpoint.tensors.items()))
    ops.add(1, 0 if same else 1)
    if not same:
        problems.append("checkpoint did not round-trip bit for bit")
    del result
    scorer = sd.build_scorer(loaded)
    n_items = dataset.n_items
    expected = np.arange(1, n_items + 1)

    chunks = [test[a:a + wl.eval_chunk] for a in range(0, len(test), wl.eval_chunk)]
    reports: dict[int, tuple] = {}
    train_times, rates, latencies, probe_times = [], [], [], []  # at reference speed
    raw = {"train": [], "eval": [], "infer": [], "probe": []}  # wall clock
    infer_h, probe_h = hashlib.sha256(), hashlib.sha256()
    flt = {"evaluate.minflt": 0, "infer.minflt": 0}
    counts = dict.fromkeys(SHARES, 0)  # training runs, chunks, calls, probes done
    wall = dict.fromkeys(SHARES, 0.0)
    scaled_s = dict.fromkeys(SHARES, 0.0)
    timed_cfg = sd.TrainConfig(**dict(wl.config, epochs=wl.timed_epochs, eval_every=0),
                               seed=seed)
    timed_losses = []

    def train_timed():
        result, fit, _ = train(timed_cfg)
        counts["train"] += 1
        elapsed, scaled = sum(w for w, _ in fit), sum(r for _, r in fit)
        train_times.append(scaled)
        raw["train"].append(elapsed)
        if timed_losses and result.epoch_losses != timed_losses:
            problems.append("repeated training runs of one config and seed disagree")
        timed_losses[:] = result.epoch_losses
        return elapsed, scaled

    def evaluate_chunk():
        c = counts["eval"] % len(chunks)
        chunk = chunks[c]
        before = minflt()
        start = clock()
        report = sd.evaluate(scorer, chunk, seed)
        elapsed = clock() - start
        scaled = elapsed * refclock.factor()
        flt["evaluate.minflt"] += minflt() - before
        counts["eval"] += 1
        rates.append(len(chunk) / scaled)
        raw["eval"].append(len(chunk) / elapsed)
        values = [*report.hr.values(), *report.ndcg.values()]
        ok = report.n_evaluated == len(chunk) and all(0.0 <= v <= 1.0 for v in values)
        ops.add(len(chunk), 0 if ok else len(chunk))
        got = (report.hr, report.ndcg, report.n_evaluated)
        if reports.setdefault(c, got) != got:
            problems.append("repeated evaluations of one scorer and seed disagree")
        return elapsed, scaled

    def infer_block():
        # closed loop, one caller; each call starts when the previous returns
        block, rankings = [], []
        before = minflt()
        for _ in range(wl.infer_block):
            i = counts["infer"] + len(block)
            rng = sd.RngStream((seed << 20) + i)
            history = test[i % len(test)].history
            start = clock()
            ranking = sd.infer(scorer, history, rng)
            block.append(clock() - start)
            rankings.append(ranking)
        scale = refclock.factor()
        flt["infer.minflt"] += minflt() - before
        latencies.extend(t * scale for t in block)
        raw["infer"].extend(block)
        for ranking in rankings:
            arr = np.asarray(ranking)
            ok = arr.shape == expected.shape and np.array_equal(np.sort(arr), expected)
            ops.add(1, 0 if ok else 1)
            if counts["infer"] < INFER_DIGEST_CALLS:
                infer_h.update(arr.astype("<i8").tobytes())
            counts["infer"] += 1
        return sum(block), sum(block) * scale

    def probe():
        r = counts["probe"]
        history = test[r % len(test)].history
        base = (seed << 20) + (1 << 19) + r * wl.probe_reversals
        start = clock()
        result, vectors = sd.uncertainty_probe(scorer, history, wl.probe_reversals,
                                               PROBE_TOPK, base)
        elapsed = clock() - start
        scaled = elapsed * refclock.factor()
        counts["probe"] += 1
        probe_times.append(scaled)
        raw["probe"].append(elapsed)
        finite = np.isfinite(vectors).all(axis=1) if vectors.ndim == 2 else []
        ops.add(wl.probe_reversals, wl.probe_reversals - int(np.sum(finite)))
        if not PROBE_TOPK <= result.unique_item_count <= n_items:
            problems.append(f"probe union of {result.unique_item_count} items is impossible")
        if r < PROBE_DIGEST:
            probe_h.update(np.ascontiguousarray(vectors, dtype="<f8").tobytes())
        return elapsed, scaled

    units = {"train": train_timed, "eval": evaluate_chunk, "infer": infer_block,
             "probe": probe}
    least = {"train": 1, "eval": len(chunks), "infer": INFER_DIGEST_CALLS,
             "probe": PROBE_DIGEST}
    refclock.restart()
    until = clock() + seconds
    while True:
        todo = [p for p in units if counts[p] < least[p]]
        if clock() < until:
            todo = list(units)
        if not todo:
            break
        phase = min(todo, key=lambda p: wall[p] / SHARES[p])
        elapsed, scaled = units[phase]()
        wall[phase] += elapsed
        scaled_s[phase] += scaled

    out.update(flt)
    out["train_s"] = statistics.median(train_times)
    out["train_raw_s"] = statistics.median(raw["train"])
    out["eval_seqs_per_s"] = statistics.median(rates)
    out["eval_raw_seqs_per_s"] = statistics.median(raw["eval"])
    total = sum(len(chunks[c]) for c in reports)
    ndcg10 = sum(r[1][10] * r[2] for r in reports.values()) / total
    out["eval_ndcg10"] = ndcg10
    if ndcg10 < wl.ndcg_floor:
        problems.append(f"eval NDCG@10 {ndcg10:.4f} is below {wl.ndcg_floor}")
    digests["eval"] = hashlib.sha256(repr(sorted(reports.items())).encode()).hexdigest()
    for q in (50, 90, 95, 99):
        out[f"infer_p{q}_ms"] = 1e3 * float(np.percentile(latencies, q))
    out["infer_raw_p50_ms"] = 1e3 * float(np.percentile(raw["infer"], 50))
    out["infer_samples"] = len(latencies)
    digests["infer"] = infer_h.hexdigest()
    out["probe_s"] = statistics.median(probe_times)
    out["probe_raw_s"] = statistics.median(raw["probe"])
    digests["probe"] = probe_h.hexdigest()
    out["counts"] = dict(counts)
    out["samples"] = {"train_s": list(zip(raw["train"], train_times)),
                      "probe_s": list(zip(raw["probe"], probe_times))}
    # with seconds=0 this is the same fixed work in every pass
    out["fixed_work_s"] = out["train_model_s"] + sum(scaled_s.values())
    out["digests"] = digests
    return out


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def check_digests(key: str, digests: dict, problems: list[str]) -> None:
    """Runs of one code version with one seed must produce identical outputs."""
    path = OUT / "digests.json"
    seen = json.loads(path.read_text()) if path.is_file() else {}
    before = seen.get(key)
    if before is not None and before != digests:
        diff = sorted(k for k in digests if before.get(k) != digests[k])
        problems.append(f"outputs differ from an earlier run of this code and seed: {diff}")
        return
    seen[key] = digests
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))


def machine_info(np, wl_name: str, seed: int) -> dict:
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "dtype": np.dtype(sys.modules["seqdiff.tensor"].default_dtype()).name,
        "workload": wl_name,
        "seed": seed,
    }


def run(args) -> int:
    spec = json.loads(SPEC.read_text())
    wl = WORKLOADS[args.workload]
    if args.smoke:
        wl = smoke_size(wl)
    avail = mem_available_mb()
    if avail is not None and avail < wl.peak_mb:
        raise BenchError(f"{args.workload} peaks near {wl.peak_mb} MB but only "
                         f"{avail:.0f} MB is available; not starting")
    sd = import_seqdiff()
    import numpy as np

    machine = machine_info(np, args.workload, args.seed)
    machine["ref_kernel_start_s"] = ref_kernel_s(np)
    refclock = ReferenceClock(dispatch_kernel_s)
    clocks = (refclock, ReferenceClock(batch_kernel_s))
    setups, setups_raw = [], []
    for _ in range(SETUPS):
        refclock.restart()
        seconds = child_setup_s(wl, args.seed)
        setups_raw.append(seconds)
        dispatch_kernel_s()  # the first kernel run after waiting on a child runs cold
        setups.append(seconds * refclock.factor())
    workdir = OUT / "work"
    workdir.mkdir(parents=True, exist_ok=True)

    ops = Ops()
    problems: list[str] = []
    traced = None
    try:
        if args.trace:
            plain = run_pass(sd, wl, args.seed, 0, clocks, workdir, ops, problems)
            with Tracer() as tracer:
                traced = run_pass(sd, wl, args.seed, 0, clocks, workdir, ops, problems)
            if traced["digests"] != plain["digests"]:
                problems.append("tracing changed the outputs")
        else:
            plain = run_pass(sd, wl, args.seed, args.seconds, clocks, workdir,
                             ops, problems)
    except Exception:  # any exception fails the run; report it and go on to the result
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": max(ops.attempted, 1),
                          "failed": max(ops.failed, 1), "metrics": {}}))
        return 1
    key = f"{args.workload}{'-smoke' if args.smoke else ''}/seed{args.seed}/{code_digest()}"
    check_digests(key, plain["digests"], problems)

    values = dict(plain)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if traced is not None:
        values.update(tracer.metrics())
        values["trace.overhead_frac"] = traced["fixed_work_s"] / plain["fixed_work_s"] - 1
    machine["ref_kernel_end_s"] = ref_kernel_s(np)
    for c in clocks:
        q = statistics.quantiles(c.refs, n=4) if len(c.refs) > 1 else c.refs * 3
        machine[c.kernel.__name__[:-2] + "_ms"] = {
            "nominal": 1e3 * c.nominal, "runs": len(c.refs),
            "q1": 1e3 * q[0], "median": 1e3 * q[1], "q3": 1e3 * q[2]}

    section = "per_layer" if args.trace else "end_to_end"
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    frac = ops.failed / ops.attempted
    wall_clock = {"setup_s": statistics.median(setups_raw), "train_s": plain["train_raw_s"],
                  "model_training_fit_s": plain["train_model_raw_s"],
                  "model_training_validation_s": plain["train_validate_raw_s"],
                  "eval_seqs_per_s": plain["eval_raw_seqs_per_s"],
                  "infer_p50_ms": plain["infer_raw_p50_ms"], "probe_s": plain["probe_raw_s"]}
    print(f"machine {json.dumps(machine)}")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(f"wall-clock, not scaled to the reference speed: {json.dumps(wall_clock)}")
    print(f"train_loss {plain['train_loss']!r} nats (last epoch; bit-exact per seed)")
    print(f"eval_ndcg10 {plain['eval_ndcg10']!r} (quality; floor {wl.ndcg_floor})")
    n = plain["infer_samples"]
    tail = " ".join(f"p{q} {plain[f'infer_p{q}_ms']!r}" for q in (90, 95, 99))
    print(f"infer tail, ms: {tail} (not bounded: host stalls set it); "
          f"{n} calls, {n - math.ceil(0.99 * n)} beyond p99")
    print(f"units of work {json.dumps(plain['counts'])}")
    print(f"ops attempted {ops.attempted} failed {ops.failed} ops_failed_frac {frac!r}")
    print(f"digests {json.dumps(plain['digests'], sort_keys=True)}")
    for problem in problems:
        print(f"check failed: {problem}")
    correct = not problems and ops.failed == 0

    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    record = {"machine": machine, "metrics": metrics, "wall_clock": wall_clock,
              "correct": correct, "attempted": ops.attempted, "failed": ops.failed,
              "train_loss": plain["train_loss"], "eval_ndcg10": plain["eval_ndcg10"],
              **{f"infer_p{q}_ms": plain[f"infer_p{q}_ms"] for q in (90, 95, 99)},
              "infer_calls": plain["infer_samples"],
              "units": plain["counts"], "samples": dict(plain["samples"], setup_s=list(zip(setups_raw, setups))), "digests": plain["digests"], "problems": problems}
    name = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    (runs / f"{name}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="wall time that timed training, evaluation, inference and probes share")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except (BenchError, FileNotFoundError, subprocess.SubprocessError) as exc:
        print(f"benchmark not run: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
