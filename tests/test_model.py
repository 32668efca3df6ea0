import importlib
import math

import numpy as np
import pytest

from conftest import desk_config, finite_diff_grad, max_rel_error, sum_all
from seqdiff.model import Approximator, init_params, mix, param_shapes, step_embedding_batch
from seqdiff.rng import RngStream, gaussian_rows
from seqdiff.tensor import (Tape, Tensor, add, backward, dropout, embedding_lookup,
                            gather_rows, layer_norm, matmul, mul, relu, reshape, scale,
                            set_default_dtype, sigmoid, softmax, tanh, transpose)
from seqdiff.train import loss_batch

model_mod = importlib.import_module("seqdiff.model")


def tiny_config(**overrides):
    base = dict(dim=8, blocks=2, heads=2, t=8, max_len=6)
    base.update(overrides)
    return desk_config(**base)


def test_step_embedding_zero_step_alternates():
    d = step_embedding_batch([0], 8)[0]
    assert np.array_equal(d, [0, 1, 0, 1, 0, 1, 0, 1])


def test_step_embedding_hand_values():
    d = step_embedding_batch([1], 2)[0]
    assert d[0] == pytest.approx(math.sin(1.0), abs=1e-12)
    assert d[1] == pytest.approx(math.cos(1.0), abs=1e-12)
    assert np.allclose(d, [0.84147, 0.54030], atol=1e-5)


def test_step_embedding_bounded_and_distinct():
    vecs = step_embedding_batch(np.arange(33), 128)
    assert np.all(np.abs(vecs) <= 1.0)
    for i in range(33):
        for j in range(i + 1, 33):
            assert not np.array_equal(vecs[i], vecs[j])


def test_step_embedding_requires_even_dim():
    with pytest.raises(ValueError):
        step_embedding_batch([3], 7)


def test_mix_delta_zero_returns_embeddings_exactly():
    e = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)))
    x = np.ones((2, 4))
    d = np.ones((2, 4))
    z = mix(e, x, d, delta=0.0, rng=RngStream(1))
    assert np.array_equal(z.data, e.data)


def test_mix_zero_projection_returns_embeddings():
    e = Tensor(np.random.default_rng(1).normal(size=(1, 5, 4)))
    z = mix(e, np.zeros((1, 4)), np.zeros((1, 4)), delta=0.5, rng=RngStream(2))
    assert np.allclose(z.data, e.data)


def test_mix_monte_carlo_mean():
    delta = 0.001
    n = 100_000
    e = Tensor(np.zeros((1, n, 1)))
    z = mix(e, np.ones((1, 1)), np.zeros((1, 1)), delta, RngStream(4))
    shift = z.data.mean()
    assert abs(shift - delta) < 4 * math.sqrt(delta / n)


def test_mix_scalar_lambda_mode():
    e = Tensor(np.zeros((1, 3, 4)))
    z = mix(e, np.ones((1, 4)), np.zeros((1, 4)), delta=0.5, rng=RngStream(5),
            scalar_lambda=True)
    # one lambda per position: all dims of a position move together
    row = z.data[0]
    for i in range(3):
        assert np.allclose(row[i], row[i][0])


def _chain_mix(e_seq, x, d, lam):
    """The blend of `mix` as the chain of taped ops that `mix` once ran,
    kept here as the reference for its forward and gradient bytes."""
    b, _, dim = e_seq.shape
    return add(e_seq, mul(Tensor(lam), add(reshape(x, (b, 1, dim)), Tensor(d.reshape(b, 1, dim)))))


@pytest.mark.parametrize("streams", ["one", "per-row"])
@pytest.mark.parametrize("scalar_lambda", [False, True])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("approximator", ["transformer", "gru"])
def test_untaped_mix_has_the_bytes_of_the_taped_mix(approximator, dtype, scalar_lambda,
                                                     streams, monkeypatch):
    # `mix` blends on plain arrays and calls no tensor op; under a tape it is
    # one node, with the forward and gradient bytes of the taped op chain
    calls = []
    for op in ("add", "mul"):
        monkeypatch.setattr(model_mod, op,
                            lambda *a, _fn=getattr(model_mod, op): calls.append(1) or _fn(*a))
    set_default_dtype(dtype)
    try:
        cfg = desk_config(dim=16, max_len=6, delta=0.3, lambda_scalar=scalar_lambda,
                          approximator=approximator)
        model = _random_model(cfg, seed=2)
        items = np.tile(np.arange(1, 7) % 5 + 1, (4, 1))
        lengths = np.array([6, 2, 5, 1])  # `mix` takes right-padded rows of mixed lengths
        mask = (np.arange(6) < lengths[:, None]).astype(float)
        hist = np.where(mask > 0, items, 0)
        x = np.random.default_rng(1).normal(size=(4, cfg.dim))  # float64, as the reversal's
        d = step_embedding_batch([3, 1, 4, 1], cfg.dim)

        def rng():
            return RngStream(7) if streams == "one" else [RngStream(s) for s in (7, 8, 9, 10)]

        def call():
            e_seq = embedding_lookup(model.params["item_emb"], hist)
            z = mix(e_seq, x, d, cfg.delta, rng(), scalar_lambda)
            # eval rows are unpadded
            return z, model.reconstruct(items, np.ones((4, 6)), x, [3, 1, 4, 1], rng(),
                                        train_mode=False)

        z, recon = call()
        assert calls == [] and z.data.dtype == recon.data.dtype == np.dtype(dtype)
        with Tape() as tape:
            taped_z, taped_recon = call()
            assert len(tape) > 0
        assert calls == [] and taped_z.requires_grad
        assert z.data.tobytes() == taped_z.data.tobytes()
        assert recon.data.tobytes() == taped_recon.data.tobytes()

        lam_shape = (6, 1) if scalar_lambda else (6, cfg.dim)
        std = np.sqrt(cfg.delta)
        lam = (rng().gaussian((4, *lam_shape), mean=cfg.delta, std=std) if streams == "one"
               else gaussian_rows(rng(), lam_shape, cfg.delta, std))
        e_data = embedding_lookup(model.params["item_emb"], hist).data
        weights = Tensor(np.random.default_rng(3).normal(size=z.shape))
        results = []
        for blend in (lambda e, xt: mix(e, xt, d, cfg.delta, rng(), scalar_lambda),
                      lambda e, xt: _chain_mix(e, xt, d, lam)):
            e_seq, x_leaf = Tensor(e_data, requires_grad=True), Tensor(x, requires_grad=True)
            with Tape() as tape:
                out = blend(e_seq, x_leaf)
                backward(tape, sum_all(mul(out, weights)))
            results.append([a.tobytes() for a in (out.data, e_seq.grad, x_leaf.grad)])
        assert results[0] == results[1]
        assert results[0][0] == z.data.tobytes()
    finally:
        set_default_dtype(np.float64)


def _random_model(cfg, seed=0):
    params = init_params(5, cfg, RngStream(seed))
    return Approximator(params, cfg)


def test_forward_output_shape():
    model = _random_model(tiny_config())
    hist = np.array([[1, 2, 3, 4], [4, 5, 1, 2]])
    out = model.reconstruct(hist, np.ones((2, 4)), np.zeros((2, 8)), np.array([3, 5]),
                            RngStream(1), train_mode=False)
    assert out.shape == (2, 8)


def test_forward_single_item_sequence_deterministic():
    model = _random_model(tiny_config())
    hist = np.array([[2]])
    mask = np.ones((1, 1))
    a = model.reconstruct(hist, mask, np.ones((1, 8)), np.array([1]),
                          RngStream(7), train_mode=False)
    b = model.reconstruct(hist, mask, np.ones((1, 8)), np.array([1]),
                          RngStream(7), train_mode=False)
    assert np.array_equal(a.data, b.data)


def test_forward_rejects_all_padding():
    model = _random_model(tiny_config())
    with pytest.raises(ValueError, match="no valid positions"):
        model.forward(Tensor(np.zeros((1, 2, 8))), np.zeros((1, 2)), True, RngStream(0))
    with pytest.raises(ValueError, match="eval rows must be unpadded"):
        model.forward(Tensor(np.zeros((1, 2, 8))), np.zeros((1, 2)), train_mode=False)


def test_forward_rejects_overlong_sequences():
    cfg = tiny_config(max_len=3)
    model = _random_model(cfg)
    with pytest.raises(ValueError):
        model.forward(Tensor(np.zeros((1, 4, 8))), np.ones((1, 4)),
                      train_mode=False)


def test_padding_content_invariance():
    """The ids behind the padding change no training byte: not the output,
    the loss or any gradient. Nothing zeroes padded positions; the encoders
    alone ignore them, through the key bias and the reads at each row's last
    valid position."""
    hist_zeros = np.array([[1, 2, 3, 4, 5], [2, 3, 1, 0, 0], [4, 0, 0, 0, 0]])
    mask = (hist_zeros > 0).astype(float)
    hist_ids = np.where(mask > 0, hist_zeros, [5, 4, 3, 2, 1])  # padding row 0 or real ids
    targets = np.array([3, 5, 1])
    for approximator, blocks in (("transformer", 0), ("transformer", 1), ("transformer", 2),
                                 ("gru", 2)):
        cfg = tiny_config(approximator=approximator, blocks=blocks, delta=0.3,
                          dropout_block=0.2, dropout_emb=0.2)
        runs = []
        for hist in (hist_zeros, hist_ids):
            model = _random_model(cfg, seed=4)
            table = model.params["item_emb"]
            with Tape() as tape:
                x = embedding_lookup(table, targets)  # taped, as training's x_s is
                out = model.reconstruct(hist, mask, x, np.array([2, 7, 5]), RngStream(11),
                                        train_mode=True)
                loss = loss_batch(out, targets, table)
                backward(tape, loss)
            assert all(t.grad is not None for t in model.params.values())
            runs.append([out.data, loss.data, *(t.grad for t in model.params.values())])
        for name, a, b in zip(["output", "loss", *model.params], *runs):
            assert a.tobytes() == b.tobytes(), f"{approximator}, {blocks} blocks: {name}"


def test_step_embedding_changes_output():
    """Distinct steps reach the encoder when the mixing noise is nonzero."""
    cfg = tiny_config(delta=0.01)
    model = _random_model(cfg)
    hist = np.array([[1, 2, 3]])
    mask = np.ones((1, 3))
    x = np.ones((1, 8))
    out1 = model.reconstruct(hist, mask, x, np.array([1]), RngStream(13),
                             train_mode=False)
    out2 = model.reconstruct(hist, mask, x, np.array([7]), RngStream(13),
                             train_mode=False)
    assert not np.allclose(out1.data, out2.data)


def test_delta_zero_makes_model_target_blind():
    cfg = tiny_config(delta=0.0)
    model = _random_model(cfg)
    hist = np.array([[1, 2, 3]])
    mask = np.ones((1, 3))
    out1 = model.reconstruct(hist, mask, np.full((1, 8), 5.0), np.array([1]),
                             RngStream(17), train_mode=False)
    out2 = model.reconstruct(hist, mask, np.full((1, 8), -5.0), np.array([8]),
                             RngStream(17), train_mode=False)
    assert np.array_equal(out1.data, out2.data)


@pytest.mark.parametrize("approximator", ["transformer", "gru"])
def test_forward_gradients_match_finite_differences(approximator):
    cfg = tiny_config(approximator=approximator, blocks=2, dim=8, heads=2,
                      max_len=3, dropout_block=0.0, dropout_emb=0.0)
    model = _random_model(cfg, seed=21)
    hist = np.array([[1, 2, 3], [4, 5, 0]])
    mask = (hist > 0).astype(float)
    rng = RngStream(23)
    z_const = Tensor(rng.gaussian((2, 3, 8)))
    w = Tensor(np.linspace(-1, 1, 16).reshape(2, 8))

    from seqdiff.tensor import add, embedding_lookup

    def loss_value():
        e = mul(embedding_lookup(model.params["item_emb"], hist),
                Tensor(mask[..., None]))
        out = model.forward(add(e, z_const), mask, train_mode=True, rng=RngStream(0))
        return sum_all(mul(out, w))

    with Tape() as tape:
        backward(tape, loss_value())
    for name, t in model.params.items():
        numeric = finite_diff_grad(lambda: loss_value().item(), t)
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad
        err = max_rel_error(analytic, numeric)
        assert err < 1e-4, f"{name}: rel error {err:.2e}"


def test_gru_zero_input_zero_bias_gives_zero():
    cfg = tiny_config(approximator="gru", dim=4)
    params = init_params(3, cfg, RngStream(1))
    model = Approximator(params, cfg)
    z = Tensor(np.zeros((2, 3, 4)))
    out = model.forward(z, np.ones((2, 3)), train_mode=False)
    assert np.array_equal(out.data, np.zeros((2, 4)))


def test_gru_output_shape():
    cfg = tiny_config(approximator="gru")
    model = _random_model(cfg)
    hist = np.array([[1, 2, 1], [3, 4, 5]])
    out = model.reconstruct(hist, np.ones((2, 3)), np.zeros((2, 8)), np.array([1, 2]),
                            RngStream(2), train_mode=False)
    assert out.shape == (2, 8)


def test_gru_respects_padding():
    cfg = tiny_config(approximator="gru", dropout_emb=0.0)  # padding is training's alone
    model = _random_model(cfg)
    mask = np.array([[1.0, 1.0, 0.0]])
    # the padded row's first two lambda rows are the short row's draws
    out_padded = model.reconstruct(np.array([[1, 2, 3]]), mask, np.zeros((1, 8)),
                                   np.array([1]), RngStream(3), train_mode=True)
    out_short = model.reconstruct(np.array([[1, 2]]), np.ones((1, 2)),
                                  np.zeros((1, 8)), np.array([1]), RngStream(3),
                                  train_mode=True)
    assert np.allclose(out_padded.data, out_short.data, atol=1e-12)


def test_init_is_deterministic():
    cfg = tiny_config()
    a = init_params(9, cfg, RngStream(42))
    b = init_params(9, cfg, RngStream(42))
    for (na, ta), (nb, tb) in zip(a.items(), b.items()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)


@pytest.mark.parametrize("approximator", ["transformer", "gru"])
def test_train_mode_forward_needs_a_dropout_stream(approximator):
    cfg = tiny_config(approximator=approximator)
    model = Approximator(init_params(5, cfg, RngStream(0)), cfg)
    z = Tensor(np.zeros((1, 3, cfg.dim)))
    with pytest.raises(ValueError, match="requires an rng"):
        model.forward(z, np.ones((1, 3)), train_mode=True)
    assert model.forward(z, np.ones((1, 3)), train_mode=False).shape == (1, cfg.dim)


@pytest.mark.parametrize("approximator", ["transformer", "gru"])
@pytest.mark.parametrize("mask_row", [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
                         ids=["hole", "left-padded"])
def test_forward_rejects_masks_that_are_not_right_padded(approximator, mask_row):
    # both forwards read the output at mask.sum(1) - 1, which is only the
    # last valid position when padding comes last
    cfg = tiny_config(approximator=approximator)
    model = _random_model(cfg)
    mask = np.array([[1.0, 1.0, 0.0], mask_row])
    with pytest.raises(ValueError, match="row 1 .*right-padded"):
        model.forward(Tensor(np.ones((2, 3, cfg.dim))), mask, True, RngStream(0))


@pytest.mark.parametrize("approximator", ["transformer", "gru"])
@pytest.mark.parametrize("entry", ["forward", "reconstruct"])
def test_eval_refuses_padded_rows(approximator, entry):
    # scorers group eval histories by length, so an eval row is never padded
    cfg = tiny_config(approximator=approximator)
    model = _random_model(cfg)
    hist = np.array([[1, 2, 3], [4, 5, 0]])
    mask = (hist > 0).astype(float)
    call = {"forward": lambda: model.forward(Tensor(np.ones((2, 3, cfg.dim))), mask, False),
            "reconstruct": lambda: model.reconstruct(hist, mask, np.zeros((2, cfg.dim)),
                                                     [1, 2], RngStream(1), train_mode=False)}[entry]
    with pytest.raises(ValueError, match="eval rows must be unpadded"):
        call()
    model.forward(Tensor(np.ones((2, 3, cfg.dim))), mask, True, RngStream(0))  # training takes them


# the GRU's tensors, in the order the tests below draw their added noise in
_GRU_KEYS = ("wi", "bi", "wh", "bh")


def _gru_tensors(params):
    return [params["gru." + k] for k in _GRU_KEYS]


def _numpy_gru(params, z_seq, lengths):
    """Plain per-row GRU over the valid prefix of each row; its last state."""
    g = {k: params["gru." + k].data for k in _GRU_KEYS}
    dim = z_seq.shape[-1]
    for k, gate in enumerate(("r", "z", "n")):
        for side in ("i", "h"):
            g[f"w{side}_{gate}"] = g[f"w{side}"][:, k * dim:(k + 1) * dim]
            g[f"b{side}_{gate}"] = g[f"b{side}"][k * dim:(k + 1) * dim]
    sig = lambda a: 1.0 / (1.0 + np.exp(-a))  # noqa: E731
    out = []
    for z, length in zip(z_seq, lengths):
        h = np.zeros(dim)
        for x in z[:length]:
            r = sig(x @ g["wi_r"] + g["bi_r"] + h @ g["wh_r"] + g["bh_r"])
            u = sig(x @ g["wi_z"] + g["bi_z"] + h @ g["wh_z"] + g["bh_z"])
            cand = np.tanh(x @ g["wi_n"] + g["bi_n"] + r * (h @ g["wh_n"] + g["bh_n"]))
            h = (1.0 - u) * cand + u * h
        out.append(h)
    return np.array(out)


@pytest.mark.parametrize("train_mode", [False, True], ids=["eval", "train"])
def test_gru_forward_matches_numpy_reference(train_mode):
    cfg = tiny_config(approximator="gru", dropout_emb=0.0)
    model = _random_model(cfg, seed=3)
    gen = np.random.default_rng(5)
    for gate in _gru_tensors(model.params):  # nonzero biases, so each one counts
        gate.data += gen.normal(scale=0.1, size=gate.shape)
    lengths = np.array([4, 1, 3, 4])
    mask = (np.arange(4) < lengths[:, None]).astype(float)
    z = gen.normal(size=(4, 4, cfg.dim))
    if train_mode:  # right-padded rows of mixed lengths
        out = model.forward(Tensor(z), mask, True, RngStream(0))
    else:  # each row unpadded, in its own call
        out = Tensor(np.concatenate([model.forward(Tensor(row[None, :n]), np.ones((1, n)),
                                                   False).data
                                     for row, n in zip(z, lengths)]))
    assert out.shape == (4, cfg.dim)
    assert np.abs(out.data - _numpy_gru(model.params, z, lengths)).max() < 1e-12


def _per_gate_gru_eval(params, z_seq):
    """Eval-mode GRU with one h-side product per gate, on (B, 1, dim) rows,
    after the model's joined input-side product."""
    g = {k: params["gru." + k] for k in _GRU_KEYS}
    b, n, dim = z_seq.shape
    cols = {gate: slice(k * dim, (k + 1) * dim) for k, gate in enumerate(("r", "z", "n"))}
    xs = add(matmul(z_seq, g["wi"]), g["bi"]).data.reshape(b, n, 1, 3 * dim)
    x = {gate: xs[..., c] for gate, c in cols.items()}
    wh = {gate: Tensor(g["wh"].data[:, c]) for gate, c in cols.items()}  # contiguous copies
    bh = {gate: Tensor(g["bh"].data[c]) for gate, c in cols.items()}
    h = Tensor(np.zeros((b, 1, dim)))
    for i in range(n):
        def h_side(gate):
            return add(matmul(h, wh[gate]), bh[gate])

        r = sigmoid(add(Tensor(x["r"][:, i]), h_side("r")))
        u = sigmoid(add(Tensor(x["z"][:, i]), h_side("z")))
        cand = tanh(add(Tensor(x["n"][:, i]), mul(r, h_side("n"))))
        h = add(cand, mul(u, add(h, scale(cand, -1.0))))
    return h.data.reshape(b, dim)


@pytest.mark.parametrize("dim", [32, 100, 128])
def test_fused_h_side_product_has_the_bytes_of_the_per_gate_products(dim):
    cfg = desk_config(dim=dim, approximator="gru", max_len=8)
    model = _random_model(cfg, seed=6)
    gen = np.random.default_rng(dim)
    for gate in _gru_tensors(model.params):
        gate.data += gen.normal(scale=0.1, size=gate.shape)
    z = Tensor(gen.normal(size=(3, 6, dim)))
    out = model.forward(z, np.ones((3, 6)), train_mode=False)
    assert out.data.tobytes() == _per_gate_gru_eval(model.params, z).tobytes()


@pytest.mark.parametrize("dim", [32, 128])
def test_joined_input_product_has_the_bytes_of_the_per_gate_products(dim):
    # at dims like 100 the joined product may round differently
    cfg = desk_config(dim=dim, approximator="gru", max_len=8)
    model = _random_model(cfg, seed=6)
    gen = np.random.default_rng(dim)
    for gate in _gru_tensors(model.params):
        gate.data += gen.normal(scale=0.1, size=gate.shape)
    z = gen.normal(size=(3, 6, dim))
    wi, bi = model.params["gru.wi"].data, model.params["gru.bi"].data
    joined = z @ wi + bi
    for k in range(3):
        cols = slice(k * dim, (k + 1) * dim)
        per_gate = z @ np.ascontiguousarray(wi[:, cols]) + bi[cols]
        assert per_gate.tobytes() == np.ascontiguousarray(joined[..., cols]).tobytes()


def test_eval_reconstruct_op_budget_on_a_gru(monkeypatch):
    # with no tape recording, the eval-mode recurrence runs on plain arrays:
    # the forward calls no tensor op at all
    cfg = tiny_config(approximator="gru")
    model = _random_model(cfg)
    calls, in_forward = {}, []
    for op in ("add", "dropout", "gather_rows", "matmul", "mul", "reshape", "scale",
               "sigmoid", "split", "stack", "tanh"):  # every op of the taped loop
        def counted(*args, _op=op, _fn=getattr(model_mod, op)):
            if in_forward:
                calls[_op] = calls.get(_op, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(model_mod, op, counted)

    def forward(*args, _fn=model.forward):
        in_forward.append(True)
        try:
            return _fn(*args)
        finally:
            in_forward.pop()

    monkeypatch.setattr(model, "forward", forward)
    n = 5
    hist = np.array([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]])
    out = model.reconstruct(hist, np.ones((2, n)), np.zeros((2, cfg.dim)), [3, 3],
                            [RngStream(1), RngStream(2)], train_mode=False)
    assert out.shape == (2, cfg.dim)
    assert calls == {}
    # training records 14 nodes per position; before the loop, the joined
    # input-side product and its bias, one reshape to (B, 3 * n * dim) and
    # one split; after it, stack and gather_rows
    with Tape() as tape:
        model.forward(Tensor(np.ones((2, n, cfg.dim))), np.ones((2, n)), True, RngStream(3))
        assert len(tape) == 4 + 14 * n + 2


def _check_eval_array_path(dtype, cfg, perturbed, reference):
    """An eval forward gives the bytes of `reference(model, z, mask)`, a
    taped training forward at zero dropout, on unpadded rows of lengths 6
    and 1. `perturbed(params)` names the tensors that get nonzero noise."""
    set_default_dtype(dtype)
    try:
        model = _random_model(cfg, seed=8)
        gen = np.random.default_rng(cfg.dim)
        for t in perturbed(model.params):
            t.data += gen.normal(scale=0.3, size=t.shape).astype(dtype)
        for n in (6, 1):
            mask = np.ones((5, n))
            z = Tensor(gen.normal(size=(5, n, cfg.dim)))
            out = model.forward(z, mask, train_mode=False).data
            want = reference(model, z, mask)
            assert out.dtype == want.dtype == np.dtype(dtype)
            assert out.tobytes() == want.tobytes()
    finally:
        set_default_dtype(np.float64)


def _gru_one_row_per_call(model, z, mask):
    """The taped training forward run on each row alone, at zero dropout."""
    return np.concatenate([model.forward(Tensor(z.data[i:i + 1]), mask[i:i + 1], True,
                                         RngStream(0)).data for i in range(z.shape[0])])


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("dim", [32, 100, 128])
def test_gru_eval_array_path_has_the_bytes_of_the_taped_path(dim, dtype):
    # every GRU tensor perturbed: nonzero biases, so each one counts
    _check_eval_array_path(dtype, desk_config(dim=dim, approximator="gru", max_len=8,
                                              dropout_emb=0.0),
                           _gru_tensors, _gru_one_row_per_call)


@pytest.mark.parametrize("approximator", ["transformer", "gru"])
def test_eval_forward_records_nothing_under_a_tape(approximator):
    cfg = tiny_config(approximator=approximator)
    model, z, _ = _mixed_length_batch(cfg, seed=9)
    mask = np.ones(z.shape[:2])
    z.requires_grad = True
    want = model.forward(z, mask, train_mode=False)
    with Tape() as tape:  # every parameter and the input tracked
        out = model.forward(z, mask, train_mode=False)
        assert len(tape) == 0
    assert not out.requires_grad
    assert out.data.tobytes() == want.data.tobytes()


def test_recurrent_weights_are_the_per_gate_draws_side_by_side():
    cfg = tiny_config(approximator="gru")
    dim, std = cfg.dim, np.sqrt(2.0 / (cfg.dim + cfg.dim))
    params = init_params(9, cfg, RngStream(4))
    rng = RngStream(4)
    rng.gaussian((10, dim), std=1.0 / np.sqrt(dim))  # the item table
    for k in range(3):  # the r, z and n gates
        wi, wh = rng.gaussian((dim, dim), std=std), rng.gaussian((dim, dim), std=std)
        assert params["gru.wi"].data[:, k * dim:(k + 1) * dim].tobytes() == wi.tobytes()
        assert params["gru.wh"].data[:, k * dim:(k + 1) * dim].tobytes() == wh.tobytes()
    assert np.array_equal(params["gru.bh"].data, np.zeros(3 * dim))
    assert np.array_equal(params["gru.bi"].data, np.zeros(3 * dim))
    assert list(params) == ["item_emb", "gru.bh", "gru.bi", "gru.wh", "gru.wi"]


def test_transformer_init_draws_the_tables_then_each_blocks_matrices_in_order():
    cfg = tiny_config(blocks=2)
    dim = cfg.dim
    params = init_params(9, cfg, RngStream(4))
    rng = RngStream(4)
    drawn = {"item_emb": rng.gaussian((10, dim), std=1.0 / np.sqrt(dim)),
             "pos_emb": rng.gaussian((cfg.max_len, dim), std=1.0 / np.sqrt(dim))}
    for i in range(cfg.blocks):
        for k, (fan_in, fan_out) in (("wq", (dim, dim)), ("wk", (dim, dim)), ("wv", (dim, dim)),
                                     ("wo", (dim, dim)), ("w1", (dim, 4 * dim)),
                                     ("w2", (4 * dim, dim))):
            drawn[f"block{i}.{k}"] = rng.gaussian(
                (fan_in, fan_out), std=np.sqrt(2.0 / (fan_in + fan_out)))
    for name, t in params.items():
        if name in drawn:
            assert t.data.tobytes() == drawn[name].tobytes(), name
        else:  # biases are zero, layer-norm gains one
            assert np.array_equal(t.data, np.full(t.shape, float(name.endswith("_g")))), name
    assert list(params) == ["item_emb", "pos_emb"] + [
        f"block{i}.{k}" for i in range(cfg.blocks)
        for k in ("wq", "wk", "wv", "wo", "w1", "b1", "w2", "b2",
                  "ln1_g", "ln1_b", "ln2_g", "ln2_b")]
    assert list(params) == list(param_shapes(9, cfg))


def _full_rows_transformer_forward(z_seq, mask, last, params, cfg, rng):
    """The training forward that runs every block at every position and
    only then keeps each sequence's last valid row: the reference that
    `transformer_forward` must match."""
    b, n, dim = z_seq.shape
    heads, dh = cfg.heads, dim // cfg.heads
    key_bias = Tensor(((1.0 - mask) * model_mod._NEG_INF).reshape(b, 1, 1, n))
    h = add(z_seq, embedding_lookup(params["pos_emb"], np.arange(n)))
    h = dropout(h, cfg.dropout_emb, rng)
    for i in range(cfg.blocks):
        w = f"block{i}."
        q, k, v = (model_mod._split_heads(matmul(h, params[w + name]), b, n, heads, dh)
                   for name in ("wq", "wk", "wv"))
        scores = scale(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
        probs = dropout(softmax(add(scores, key_bias)), cfg.dropout_block, rng)
        ctx = reshape(transpose(matmul(probs, v), (0, 2, 1, 3)), (b, n, dim))
        attn_out = dropout(matmul(ctx, params[w + "wo"]), cfg.dropout_block, rng)
        h = layer_norm(add(h, attn_out), params[w + "ln1_g"], params[w + "ln1_b"])
        ff = matmul(relu(add(matmul(h, params[w + "w1"]), params[w + "b1"])), params[w + "w2"])
        ff = dropout(add(ff, params[w + "b2"]), cfg.dropout_block, rng)
        h = layer_norm(add(h, ff), params[w + "ln2_g"], params[w + "ln2_b"])
    return gather_rows(h, last)


def _full_rows(model, z, mask, rng=None):
    """`_full_rows_transformer_forward` on a model's batch, at the model's dropout."""
    b, n, _ = z.shape
    return _full_rows_transformer_forward(z, *model_mod._check_mask(mask, b, n),
                                          model.params, model.cfg, rng)


def _mixed_length_batch(cfg, seed):
    """Right-padded rows of lengths 1 to 6, with nonzero biases and gains so
    that each parameter counts."""
    model = _random_model(cfg, seed=seed)
    gen = np.random.default_rng(seed)
    for t in model.params.values():
        if t.ndim == 1:
            t.data += gen.normal(scale=0.3, size=t.shape)
    lengths = np.array([6, 2, 5, 1, 6, 3])
    mask = (np.arange(6) < lengths[:, None]).astype(float)
    z = Tensor(gen.normal(size=(len(lengths), 6, cfg.dim)))
    return model, z, mask


@pytest.mark.parametrize("with_dropout", [False, True])
def test_final_block_products_take_one_row_per_sequence(with_dropout, monkeypatch):
    cfg = tiny_config(blocks=2, max_len=6, dropout_block=0.1 * with_dropout,
                      dropout_emb=0.3 * with_dropout)
    model, z, mask = _mixed_length_batch(cfg, seed=5)
    b, n, dim = z.shape
    names = {id(t): name for name, t in model.params.items()}
    inputs, calls = {}, []

    def counted(x, y, _fn=matmul):
        calls.append(names.get(id(y), "activations"))
        inputs[calls[-1]] = x.shape
        return _fn(x, y)

    monkeypatch.setattr(model_mod, "matmul", counted)
    with Tape():
        out = model.forward(z, mask, True, RngStream(6))
    assert out.shape == (b, dim)
    assert len(calls) == 8 * cfg.blocks  # six weight products and two attention products
    for k in ("wq", "wk", "wv", "wo", "w1"):  # block 0 runs every position
        assert inputs[f"block0.{k}"] == (b, n, dim), k
    assert inputs["block0.w2"] == (b, n, 4 * dim)
    # the final block: keys and values from every position, the rest at one row
    assert inputs["block1.wk"] == inputs["block1.wv"] == (b, n, dim)
    assert inputs["block1.wq"] == inputs["block1.wo"] == inputs["block1.w1"] == (b, 1, dim)
    assert inputs["block1.w2"] == (b, 1, 4 * dim)


@pytest.mark.parametrize("blocks", [1, 2, 4])
def test_transformer_forward_matches_the_full_rows_reference(blocks):
    cfg = tiny_config(blocks=blocks, max_len=6, dropout_block=0.0, dropout_emb=0.0)
    model, z, mask = _mixed_length_batch(cfg, seed=blocks)
    out = model.forward(z, mask, True, RngStream(0)).data
    want = _full_rows(model, z, mask).data
    assert out.shape == want.shape
    assert np.abs(out - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("blocks", [1, 2, 4])
def test_transformer_gradients_match_the_full_rows_reference(blocks):
    cfg = tiny_config(blocks=blocks, max_len=6, dropout_block=0.0, dropout_emb=0.0)
    model, z, mask = _mixed_length_batch(cfg, seed=10 + blocks)
    weights = Tensor(np.random.default_rng(blocks).normal(size=(z.shape[0], cfg.dim)))
    grads = []
    mask, last = model_mod._check_mask(mask, *mask.shape)
    for fwd in (model_mod.transformer_forward, _full_rows_transformer_forward):
        for t in model.params.values():
            t.grad = None
        with Tape() as tape:
            backward(tape, sum_all(mul(fwd(z, mask, last, model.params, cfg, RngStream(3)),
                                       weights)))
        grads.append({name: t.grad for name, t in model.params.items()})
    got, want = grads
    for name, g in want.items():
        if g is None:  # the item table takes no part in the forward
            assert got[name] is None, name
            continue
        assert np.abs(got[name] - g).max() <= 1e-12 * max(np.abs(g).max(), 1e-300), name


@pytest.mark.parametrize("with_dropout", [False, True])
def test_zero_blocks_keeps_the_gather_of_the_embedded_rows(with_dropout):
    cfg = tiny_config(blocks=0, max_len=6, dropout_emb=0.3 * with_dropout)
    model, z, mask = _mixed_length_batch(cfg, seed=4)
    out = model.forward(z, mask, True, RngStream(8))
    want = _full_rows(model, z, mask, RngStream(8))
    assert out.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("blocks", [0, 1, 2, 4])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("dim", [32, 100, 128])
def test_transformer_eval_array_path_has_the_bytes_of_the_taped_path(dim, dtype, blocks):
    # nonzero biases and layer-norm gains, so each one counts
    _check_eval_array_path(dtype, desk_config(dim=dim, blocks=blocks, max_len=8,
                                              dropout_block=0.0, dropout_emb=0.0),
                           lambda params: [t for t in params.values() if t.ndim == 1],
                           lambda model, z, mask: model.forward(z, mask, True,
                                                                RngStream(0)).data)
