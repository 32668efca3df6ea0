import dataclasses
import importlib
import math
import os
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import seqdiff
from conftest import desk_config, with_metadata
from seqdiff.checkpoint import (ModelCheckpoint, load_checkpoint, model_from_checkpoint,
                                save_checkpoint)
from seqdiff.data import Sample, split, synth
from seqdiff.diffusion import reverse_step
from seqdiff.evaluate import evaluate, uncertainty_probe
from seqdiff.infer import DiffusionScorer, NextItemScorer, build_scorer, infer, rank_items
from seqdiff.model import Approximator, init_params, param_shapes
from seqdiff.rng import RngStream, gaussian_rows
from seqdiff.schedule import build_schedule
from seqdiff.tensor import Tensor
from seqdiff.train import keep_freed_memory, loss_batch, run_training


def tiny_config(**overrides):
    base = dict(dim=16, blocks=1, heads=2, t=4, batch_size=32, epochs=2,
                max_len=10, eval_every=0, seed=3)
    base.update(overrides)
    return desk_config(**base)


def tiny_dataset(kind="cyclic", users=80, items=20, length=8, seed=5):
    return synth(kind, users, items, length, seed)


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def test_loss_uniform_when_reconstruction_orthogonal():
    table = np.zeros((101, 4))
    table[1:, 0] = 1.0  # every item along the first axis
    x0_hat = Tensor(np.array([[0.0, 1.0, 0.0, 0.0]]))  # orthogonal to all rows
    loss = loss_batch(x0_hat, np.array([17]), Tensor(table))
    assert loss.item() == pytest.approx(math.log(100), rel=1e-12)


def test_loss_hand_value_orthonormal_embeddings():
    table = np.zeros((101, 101))
    table[1:, 1:] = np.eye(100)
    x0_hat = Tensor(10.0 * table[7][None, :])
    loss = loss_batch(x0_hat, np.array([7]), Tensor(table))
    expected = math.log(math.exp(10) + 99) - 10
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_loss_mean_over_identical_rows():
    rng = np.random.default_rng(0)
    table = Tensor(rng.normal(size=(13, 6)))
    row = rng.normal(size=6)
    single = loss_batch(Tensor(row[None, :]), np.array([4]), table)
    double = loss_batch(Tensor(np.tile(row, (2, 1))), np.array([4, 4]), table)
    assert double.item() == pytest.approx(single.item(), rel=1e-14)


def test_loss_rejects_padding_or_out_of_range_targets():
    table = Tensor(np.ones((5, 3)))
    x = Tensor(np.ones((1, 3)))
    with pytest.raises(ValueError):
        loss_batch(x, np.array([0]), table)
    with pytest.raises(ValueError):
        loss_batch(x, np.array([5]), table)


# ---------------------------------------------------------------------------
# rounding
# ---------------------------------------------------------------------------


def _orthonormal_table(n):
    table = np.zeros((n + 1, n))
    table[1:] = np.eye(n)
    return table


def rounding(x_0, table):
    """Every item ranked by inner product with x_0, by a scorer whose item table is `table`."""
    cfg = desk_config(dim=table.shape[1], blocks=1, heads=1, t=2)
    params = init_params(len(table) - 1, cfg, RngStream(0))
    params["item_emb"].data = np.asarray(table, dtype=float)
    scorer = NextItemScorer(Approximator(params, cfg))
    return rank_items(scorer.score_vector(x_0[None]))[0].tolist()


def test_rounding_matches_basis_vector():
    ranking = rounding(np.eye(4)[2], _orthonormal_table(4))
    assert ranking[0] == 3
    assert sorted(ranking) == [1, 2, 3, 4]


def test_rounding_scale_invariant():
    rng = np.random.default_rng(1)
    table = rng.normal(size=(9, 6))  # an even dim, as the model requires
    x0 = rng.normal(size=6)
    base = rounding(x0, table)
    for c in (0.1, 3.0, 1e6):
        assert rounding(c * x0, table) == base


def test_rounding_hand_inner_products():
    table = np.zeros((4, 2))
    table[1] = [1.0, 0.0]
    table[2] = [0.0, 1.0]
    table[3] = [1.0 / math.sqrt(2)] * 2
    assert rounding(np.array([1.0, 0.9]), table) == [3, 1, 2]


def test_rounding_ties_break_to_lower_index():
    table = np.zeros((4, 2))
    table[1] = table[2] = [1.0, 0.0]
    table[3] = [0.5, 0.0]
    assert rounding(np.array([1.0, 0.0]), table) == [1, 2, 3]


def test_rounding_appending_weaker_items_preserves_prefix():
    rng = np.random.default_rng(2)
    table = rng.normal(size=(6, 4))
    x0 = rng.normal(size=4)
    base = rounding(x0, table)
    weakest = min(table[1:] @ x0)
    extended = np.vstack([table, (x0 / np.linalg.norm(x0))[None, :]
                          * (weakest - 1.0) / np.linalg.norm(x0)])
    assert rounding(x0, extended)[:5] == base


def test_rounding_rejects_nonfinite():
    with pytest.raises(ValueError):
        rounding(np.array([np.nan, 1.0]), _orthonormal_table(2))


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _small_checkpoint(**overrides):
    cfg = tiny_config(**overrides)
    tensors = {name: t.data.copy() for name, t in init_params(7, cfg, RngStream(1)).items()}
    return ModelCheckpoint(config=cfg, vocab_size=7, epoch=3, tensors=tensors)


def _saved(ckpt: ModelCheckpoint, tmp_path) -> Path:
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    return path


def test_checkpoint_round_trip_is_bit_exact(tmp_path):
    ckpt = _small_checkpoint()
    path = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert loaded.config == ckpt.config
    assert loaded.vocab_size == 7 and loaded.epoch == 3
    assert set(loaded.tensors) == set(ckpt.tensors)
    for name, arr in ckpt.tensors.items():
        assert loaded.tensors[name].tobytes() == arr.tobytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(_small_checkpoint(), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"????"
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(_small_checkpoint(), path)
    raw = bytearray(path.read_bytes())
    raw[8:12] = (99).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_truncation_names_tensor(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(_small_checkpoint(), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 50])
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert "'" in str(err.value)  # a tensor name is quoted in the message


def test_checkpoint_shape_table_inconsistency(tmp_path):
    # one wrong dim in the listing: the first entry that differs is named
    path = _saved(_small_checkpoint(), tmp_path)
    path.write_bytes(with_metadata(path.read_bytes(),
                                   lambda meta: meta["tensors"][0][1].__setitem__(0, 9)))
    with pytest.raises(ValueError, match=r'^tensor 0 is listed as \["item_emb", '
                       r'\[9, 16\]\] where the metadata implies \["item_emb", \[8, 16\]\]'):
        load_checkpoint(path)


def test_a_listing_mismatch_is_refused_before_any_payload_is_read(tmp_path):
    # header and metadata alone: a loader that read a payload first would
    # report the file as truncated
    ckpt = _small_checkpoint()
    ckpt.tensors["item_emb"] = ckpt.tensors["item_emb"][:5]
    raw = _saved(ckpt, tmp_path).read_bytes()
    (meta_len,) = struct.unpack("<I", raw[12:16])
    (tmp_path / "model.ckpt").write_bytes(raw[:16 + meta_len])
    with pytest.raises(ValueError, match=r"\[5, 16\]"):
        load_checkpoint(tmp_path / "model.ckpt")


def test_loading_enforces_the_parameter_table_order(tmp_path):
    ckpt = _small_checkpoint()
    ckpt.tensors = dict(reversed(ckpt.tensors.items()))
    with pytest.raises(ValueError, match=r'^tensor 0 is listed as \["block0.ln2_b"'):
        load_checkpoint(_saved(ckpt, tmp_path))


def test_checkpoint_trailing_bytes_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(_small_checkpoint(), path)
    path.write_bytes(path.read_bytes() + b"garbage")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(path)


def test_checkpoint_nonfinite_tensor_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    ckpt = _small_checkpoint()
    ckpt.tensors["item_emb"][2, 1] = np.nan
    save_checkpoint(ckpt, path)
    with pytest.raises(ValueError, match="item_emb"):
        load_checkpoint(path)


def test_model_from_checkpoint_restores_parameters(tmp_path):
    ckpt = _small_checkpoint()
    model = model_from_checkpoint(ckpt)
    for name, tensor in model.params.items():
        assert np.array_equal(tensor.data, ckpt.tensors[name])


@pytest.mark.parametrize("approximator", ["transformer", "gru"])
def test_loading_a_checkpoint_draws_nothing_and_copies_its_tensors(approximator, monkeypatch):
    ckpt = _small_checkpoint(approximator=approximator)

    def no_draws(*args, **kwargs):
        raise AssertionError("loading drew random numbers")

    monkeypatch.setattr(RngStream, "gaussian", no_draws)
    model = model_from_checkpoint(ckpt)
    build_scorer(ckpt)
    assert list(model.params) == list(ckpt.tensors)
    for name, tensor in model.params.items():
        assert tensor.data.tobytes() == ckpt.tensors[name].tobytes()
        assert not np.shares_memory(tensor.data, ckpt.tensors[name]), name


def test_model_from_checkpoint_rejects_missing_tensor(tmp_path):
    # the file is refused as it loads, so no model is ever built from it
    ckpt = _small_checkpoint()
    del ckpt.tensors["item_emb"]
    with pytest.raises(ValueError, match=r'^tensor 0 is listed as \["pos_emb", '
                       r'\[10, 16\]\] where the metadata implies \["item_emb", \[8, 16\]\] '
                       r'\(13 listed, 14 implied\)$'):
        load_checkpoint(_saved(ckpt, tmp_path))


def test_model_from_checkpoint_rejects_a_tensor_the_metadata_does_not_imply(tmp_path):
    # a 2-block checkpoint whose metadata claims 1 block loaded its first block alone
    ckpt = _small_checkpoint(blocks=2)
    ckpt.config = dataclasses.replace(ckpt.config, blocks=1)
    with pytest.raises(ValueError, match=r'^tensor 14 is listed as \["block1.wq", '
                       r'\[16, 16\]\] where the metadata implies null \(26 listed, 14 implied\)$'):
        load_checkpoint(_saved(ckpt, tmp_path))


def _per_gate(tensors: dict, side: str, dim: int) -> dict:
    """`tensors` with gru.w{side} and gru.b{side} split into one matrix and
    bias per gate, listed where the joined bias was."""
    out = {}
    for name, arr in tensors.items():
        if name == f"gru.b{side}":
            w = tensors[f"gru.w{side}"]
            for k, gate in enumerate(("r", "z", "n")):
                out[f"gru.w{side}_{gate}"] = w[:, k * dim:(k + 1) * dim].copy()
                out[f"gru.b{side}_{gate}"] = arr[k * dim:(k + 1) * dim].copy()
        elif name != f"gru.w{side}":
            out[name] = arr
    return out


def test_per_gate_gru_checkpoint_is_refused(tmp_path):
    # earlier builds stored one recurrent matrix and bias per gate
    ckpt = _small_checkpoint(approximator="gru")
    ckpt.tensors = _per_gate(ckpt.tensors, "h", ckpt.config.dim)
    with pytest.raises(ValueError, match=r'^tensor 1 is listed as \["gru.wh_r", '
                       r'\[16, 16\]\] where the metadata implies \["gru.bh", \[48\]\]'):
        load_checkpoint(_saved(ckpt, tmp_path))


def test_per_gate_input_gru_checkpoint_is_refused(tmp_path):
    # earlier builds stored one input matrix and bias per gate
    ckpt = _small_checkpoint(approximator="gru")
    ckpt.tensors = _per_gate(ckpt.tensors, "i", ckpt.config.dim)
    with pytest.raises(ValueError, match=r'^tensor 2 is listed as \["gru.wi_r", '
                       r'\[16, 16\]\] where the metadata implies \["gru.bi", \[48\]\]'):
        load_checkpoint(_saved(ckpt, tmp_path))


@pytest.mark.parametrize("approximator,blocks", [("transformer", 0), ("transformer", 2),
                                                  ("gru", 1)])
def test_param_shapes_are_the_shapes_init_params_builds(approximator, blocks):
    cfg = tiny_config(approximator=approximator, blocks=blocks)
    built = [(name, t.shape) for name, t in init_params(7, cfg, RngStream(1)).items()]
    assert list(param_shapes(7, cfg).items()) == built


def test_checkpoint_metadata_is_checked_against_the_tensors_before_allocating(tmp_path):
    # metadata claiming 2,000,000 items over the stored 8-row item table:
    # reading the table the metadata implies would take 256 MB
    path = _saved(_small_checkpoint(), tmp_path)
    path.write_bytes(with_metadata(path.read_bytes(),
                                   lambda meta: meta.update(vocab_size=2_000_000)))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="item_emb"):
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


def test_zero_epochs_returns_initialization():
    cfg = tiny_config(epochs=0)
    ds = tiny_dataset()
    result = run_training(ds, cfg)
    fresh = init_params(ds.n_items, cfg, RngStream(cfg.seed).derive(0))
    for name, tensor in fresh.items():
        assert np.array_equal(result.checkpoint.tensors[name], tensor.data)
    assert result.checkpoint.epoch == 0


def test_training_is_deterministic_and_bit_exact(tmp_path):
    cfg = tiny_config(epochs=2)
    ds = tiny_dataset()
    a = run_training(ds, cfg)
    b = run_training(ds, cfg)
    for name in a.checkpoint.tensors:
        assert a.checkpoint.tensors[name].tobytes() == b.checkpoint.tensors[name].tobytes()
    pa, pb = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(a.checkpoint, pa)
    save_checkpoint(b.checkpoint, pb)
    assert pa.read_bytes() == pb.read_bytes()


# Prints the minor page faults of each training epoch after the first.
_EPOCH_FAULTS = """
import resource
from seqdiff.config import TrainConfig
from seqdiff.data import synth
from seqdiff.train import run_training
marks = []
cfg = TrainConfig(dim=32, blocks=1, heads=2, t=4, batch_size=128, epochs=4,
                  max_len=20, eval_every=0, seed=3)
run_training(synth("cyclic", 300, 20, 21, 5), cfg,
      log_fn=lambda _: marks.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt))
print(*(b - a for a, b in zip(marks, marks[1:])))
"""


def test_training_batches_reuse_the_pages_freed_before_them():
    if not keep_freed_memory():
        pytest.skip("the heap thresholds are set only under glibc")
    # a fresh interpreter, so no earlier test has moved the heap thresholds;
    # each batch holds (128, 18, 32) float64 arrays, above glibc's 128 KB
    # default; with that default every epoch took about 29,000 faults
    src = str(Path(seqdiff.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _EPOCH_FAULTS], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    faults = [int(x) for x in proc.stdout.split()]
    assert len(faults) == 3
    assert max(faults) < 1000, faults


def test_training_loss_beats_uniform_baseline():
    cfg = tiny_config(epochs=6)
    ds = tiny_dataset(users=200)
    result = run_training(ds, cfg)
    assert result.epoch_losses[-1] < math.log(ds.n_items)
    assert result.epoch_losses[-1] < result.epoch_losses[0]


def test_training_requires_nonempty_dataset():
    ds = tiny_dataset()
    ds.sequences = []
    with pytest.raises(ValueError):
        run_training(ds, tiny_config())


def test_training_aborts_on_nonfinite_loss():
    cfg = tiny_config(epochs=2, learning_rate=1e150)
    with np.errstate(all="ignore"), pytest.raises(ValueError, match="epoch"):
        run_training(tiny_dataset(), cfg)


def test_early_stopping_keeps_best_checkpoint():
    cfg = tiny_config(epochs=6, eval_every=1, patience=2)
    result = run_training(tiny_dataset(users=40, length=6), cfg)
    assert result.best_val_ndcg10 is not None
    assert result.checkpoint.epoch <= result.epochs_run


def test_checkpoint_holds_the_best_epochs_parameters():
    # at seed 1, validation NDCG@10 peaks at epoch 2 and training stops at epoch 4
    ds = tiny_dataset(users=40, length=6)
    cfg = tiny_config(epochs=6, eval_every=1, patience=2, seed=1)
    result = run_training(ds, cfg)
    k = result.checkpoint.epoch
    assert k < result.epochs_run
    # the training streams derive from the seed and validation changes no
    # parameter, so a k-epoch run ends on the parameters of epoch k
    upto_k = run_training(ds, dataclasses.replace(cfg, epochs=k, eval_every=0)).checkpoint
    assert upto_k.epoch == k
    assert list(result.checkpoint.tensors) == list(upto_k.tensors)
    for name, arr in upto_k.tensors.items():
        assert result.checkpoint.tensors[name].tobytes() == arr.tobytes(), name


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


class OracleApproximator(Approximator):
    """Ignores its inputs and always reconstructs one fixed vector."""

    def __init__(self, params, cfg, vec):
        super().__init__(params, cfg)
        self.vec = np.asarray(vec, dtype=float)

    def reconstruct(self, hist, mask, x, steps, rng, train_mode):
        return Tensor(np.tile(self.vec, (hist.shape[0], 1)))


def _oracle_scorer(target_item, n_items=4, steps=2):
    cfg = tiny_config(dim=n_items, heads=1, t=steps, delta=0.001)
    params = init_params(n_items, cfg, RngStream(0))
    params["item_emb"].data = _orthonormal_table(n_items)
    model = OracleApproximator(params, cfg, _orthonormal_table(n_items)[target_item])
    return DiffusionScorer(model, steps)


def test_oracle_reversal_ranks_oracle_item_first():
    for steps in (1, 2, 4):
        scorer = _oracle_scorer(target_item=3, steps=steps)
        for seed in (0, 1, 2):
            ranking = infer(scorer, [1, 2], RngStream(seed))
            assert ranking[0] == 3


def test_fewer_reverse_steps_visit_only_trained_steps(monkeypatch):
    # a t=8 model must see the noise levels and step encodings it was trained on
    cfg = tiny_config(t=8)
    model = Approximator(init_params(12, cfg, RngStream(4)), cfg)
    seen = []
    original = Approximator.reconstruct

    def spy(self, hist, mask, x, steps, *args, **kwargs):
        seen.append(np.unique(steps).tolist())
        return original(self, hist, mask, x, steps, *args, **kwargs)

    monkeypatch.setattr(Approximator, "reconstruct", spy)
    DiffusionScorer(model, 4).represent_batch([[1, 2, 3], [4, 5, 6]],
                                              [RngStream(0), RngStream(1)])
    assert seen == [[8], [6], [4], [2]]


def test_reverse_steps_equal_to_t_walk_the_trained_table():
    cfg = tiny_config(t=8, delta=0.01)
    model = Approximator(init_params(12, cfg, RngStream(4)), cfg)
    got = DiffusionScorer(model, cfg.t).represent([1, 2, 3], RngStream(0))
    # the plain reversal over steps t..1 of the trained schedule
    schedule = build_schedule(cfg.schedule_kind, cfg.t, cfg.schedule_a, cfg.schedule_b,
                              cfg.schedule_tau)
    rngs = [RngStream(0)]
    x = gaussian_rows(rngs, (cfg.dim,))
    for s in range(cfg.t, 0, -1):
        x0_hat = model.reconstruct(np.array([[1, 2, 3]]), np.ones((1, 3)), x,
                                   np.full(1, s), rngs, train_mode=False).data
        x = reverse_step(x, x0_hat, s, schedule, gaussian_rows(rngs, (cfg.dim,)))
    assert got.tobytes() == x[0].tobytes()


def test_non_finite_scores_are_refused():
    # NaN scores would print as "nan", and eval would rank every target first
    # because no score is higher than NaN
    cfg = tiny_config(dim=4, heads=1, t=2, delta=0.001)
    model = OracleApproximator(init_params(4, cfg, RngStream(0)), cfg, [np.nan] * 4)
    scorer = DiffusionScorer(model, 2)
    with pytest.raises(ValueError, match="non-finite item scores"):
        infer(scorer, [1, 2], RngStream(0))
    with pytest.raises(ValueError, match="non-finite item scores"):
        evaluate(scorer, [Sample(history=(1, 2), target=3)], seed=0)
    with pytest.raises(ValueError, match="non-finite item scores"):
        uncertainty_probe(scorer, [1, 2], n_reverses=3, k=2)


def test_schedule_options_of_another_family_fail_before_epoch_one():
    # replace() skips the config check, so run_training is what refuses it
    cfg = dataclasses.replace(tiny_config(), schedule_kind="cosine", schedule_tau=0.5)
    logs = []
    with pytest.raises(ValueError, match="schedule option tau=0.5"):
        run_training(tiny_dataset(), cfg, log_fn=logs.append)
    assert logs == []


def test_infer_same_seed_same_ranking():
    cfg = tiny_config()
    model = Approximator(init_params(12, cfg, RngStream(8)), cfg)
    scorer = DiffusionScorer(model, cfg.t)
    a = infer(scorer, [3, 1, 4], RngStream(42))
    b = infer(scorer, [3, 1, 4], RngStream(42))
    assert a == b


def test_infer_different_seeds_can_disagree():
    cfg = tiny_config(delta=0.01)
    model = Approximator(init_params(12, cfg, RngStream(8)), cfg)
    scorer = DiffusionScorer(model, cfg.t)
    rankings = {tuple(infer(scorer, [3, 1, 4], RngStream(s))) for s in range(6)}
    assert len(rankings) > 1


def test_infer_rejects_empty_and_invalid_histories():
    cfg = tiny_config()
    model = Approximator(init_params(12, cfg, RngStream(8)), cfg)
    scorer = DiffusionScorer(model, cfg.t)
    with pytest.raises(ValueError):
        infer(scorer, [], RngStream(0))
    with pytest.raises(ValueError):
        infer(scorer, [0, 1], RngStream(0))
    with pytest.raises(ValueError):
        infer(scorer, [13], RngStream(0))


def test_infer_truncates_to_max_len():
    cfg = tiny_config(max_len=4, delta=0.0)
    model = Approximator(init_params(6, cfg, RngStream(8)), cfg)
    scorer = DiffusionScorer(model, cfg.t)
    long = infer(scorer, [1, 2, 3, 4, 5, 6], RngStream(9))
    short = infer(scorer, [3, 4, 5, 6], RngStream(9))
    assert long == short


@pytest.mark.parametrize("approximator", ["transformer", "gru"])
def test_eval_infer_and_probe_run_every_forward_on_the_array_path(approximator, monkeypatch):
    # an eval forward that took a taped path would keep its bytes but lose
    # the array path's speed; this counts where each eval forward went
    model_mod = importlib.import_module("seqdiff.model")
    array_fn = {"transformer": "_transformer_eval_arrays", "gru": "_gru_eval_arrays"}[approximator]
    ds = tiny_dataset()
    result = run_training(ds, tiny_config(approximator=approximator, epochs=1))
    scorer = build_scorer(result.checkpoint)
    test = split(ds).test
    calls = {"eval forward": 0, "array path": 0}
    forward, array_path = model_mod.Approximator.forward, getattr(model_mod, array_fn)

    def counted_forward(self, z_seq, mask, train_mode, rng=None):
        calls["eval forward"] += not train_mode
        return forward(self, z_seq, mask, train_mode, rng)

    def counted_array_path(*args):
        calls["array path"] += 1
        return array_path(*args)

    monkeypatch.setattr(model_mod.Approximator, "forward", counted_forward)
    monkeypatch.setattr(model_mod, array_fn, counted_array_path)
    # the reversal's lambda-mix and the next-item scorer's history mask run
    # on arrays too: no element-wise tensor op in any namespace that holds one
    tensor_mod = importlib.import_module("seqdiff.tensor")
    for op in ("add", "mul"):
        fn = getattr(tensor_mod, op)

        def counted(*args, _op=op, _fn=fn):
            calls[_op] = calls.get(_op, 0) + 1
            return _fn(*args)

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "seqdiff" and getattr(mod, op, None) is fn:
                monkeypatch.setattr(mod, op, counted)
    evaluate(scorer, test, seed=1)
    infer(scorer, [3, 1, 4], RngStream(2))
    uncertainty_probe(scorer, [3, 1, 4], n_reverses=3, k=5)
    evaluate(NextItemScorer(scorer.model), test[:4], seed=1)
    assert "add" not in calls and "mul" not in calls
    assert calls["eval forward"] > 0
    assert calls["array path"] == calls["eval forward"]


# ---------------------------------------------------------------------------
# adversarial mode
# ---------------------------------------------------------------------------


def test_adversarial_zero_epsilon_doubles_base_loss():
    cfg = tiny_config(mode="adversarial", epsilon_adv=0.0, gamma_adv=1.0,
                      epochs=2)
    result = run_training(tiny_dataset(), cfg)
    assert result.step_logs
    for entry in result.step_logs:
        assert entry.delta_norm == 0.0
        assert abs(entry.loss - (1 + cfg.gamma_adv) * entry.base_loss) < 1e-10


def test_adversarial_delta_norm_pinned_to_epsilon():
    cfg = tiny_config(mode="adversarial", epsilon_adv=0.5, gamma_adv=1.0,
                      epochs=2)
    result = run_training(tiny_dataset(), cfg)
    for entry in result.step_logs:
        assert abs(entry.delta_norm - 0.5) < 1e-10


def test_adversarial_training_learns_and_is_deterministic():
    cfg = tiny_config(mode="adversarial", epochs=3)
    ds = tiny_dataset()
    a = run_training(ds, cfg)
    b = run_training(ds, cfg)
    assert a.epoch_losses == b.epoch_losses
    assert a.epoch_losses[-1] < a.epoch_losses[0]
    for name in a.checkpoint.tensors:
        assert a.checkpoint.tensors[name].tobytes() == b.checkpoint.tensors[name].tobytes()


def test_adversarial_checkpoint_scores_deterministically():
    cfg = tiny_config(mode="adversarial", epochs=1)
    result = run_training(tiny_dataset(), cfg)
    model = model_from_checkpoint(result.checkpoint)
    scorer = NextItemScorer(model)
    a = scorer.score([1, 2, 3], RngStream(0))
    b = scorer.score([1, 2, 3], RngStream(99))  # rng is irrelevant here
    assert np.array_equal(a, b)


def test_gru_approximator_trains_end_to_end():
    cfg = tiny_config(approximator="gru", epochs=3)
    ds = tiny_dataset(users=100)
    result = run_training(ds, cfg)
    assert result.epoch_losses[-1] < result.epoch_losses[0]
    assert any(name.startswith("gru.") for name in result.checkpoint.tensors)


def test_float32_mode_trains_and_stores_float32(monkeypatch):
    import seqdiff
    from seqdiff.optim import Adam

    grad_dtypes = []
    original = Adam.step

    def spying(self):
        grad_dtypes.extend(p.grad.dtype for p in self.params if p.grad is not None)
        original(self)

    monkeypatch.setattr(Adam, "step", spying)
    seqdiff.set_default_dtype("float32")
    try:
        result = run_training(tiny_dataset(users=40, length=6), tiny_config(epochs=1))
        assert result.checkpoint.tensors["item_emb"].dtype == np.float32
        assert np.isfinite(result.epoch_losses[-1])
    finally:
        seqdiff.set_default_dtype("float64")
    # a float64 gradient would promote Adam's update of a float32 parameter
    assert grad_dtypes and set(grad_dtypes) == {np.dtype(np.float32)}


def test_padding_embedding_row_never_updated():
    cfg = tiny_config(epochs=3)
    ds = tiny_dataset()
    init = init_params(ds.n_items, cfg, RngStream(cfg.seed).derive(0))
    result = run_training(ds, cfg)
    trained_row0 = result.checkpoint.tensors["item_emb"][0]
    assert np.array_equal(trained_row0, init["item_emb"].data[0])
    assert not np.array_equal(result.checkpoint.tensors["item_emb"][1],
                              init["item_emb"].data[1])


def test_constant_offset_schedule_flows_through_training():
    cfg = tiny_config(epochs=1, schedule_b=0.05)
    result = run_training(tiny_dataset(), cfg)
    assert result.checkpoint.config.schedule_b == 0.05
    model = model_from_checkpoint(result.checkpoint)
    scorer = DiffusionScorer(model, cfg.t)
    assert np.allclose(scorer.schedule.betas,
                       [(cfg.schedule_a / cfg.t) * s + 0.05 / s
                        for s in range(1, cfg.t + 1)])
