import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

import seqdiff.tensor as tensor_module
from seqdiff.rng import RngStream
from seqdiff.tensor import (ShapeMismatchError, Tape, Tensor, add, backward,
                            cross_entropy_rows, dropout, embedding_lookup,
                            gather_rows, layer_norm, matmul, mul, relu, reshape,
                            set_default_dtype, sigmoid, softmax, split, stack,
                            scale, tanh, transpose)
from conftest import finite_diff_grad, max_rel_error, sum_all


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(eye, m).data, m.data)


def test_matmul_hand_product():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeMismatchError) as err:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))
    assert "(2, 3)" in str(err.value) and "(2, 2)" in str(err.value)


def test_softmax_uniform_on_equal_logits():
    out = softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)


def test_softmax_hand_case():
    out = softmax(Tensor([0.0, math.log(2.0)]))
    assert np.allclose(out.data, [1 / 3, 2 / 3], atol=1e-15)


def test_softmax_large_logits_no_overflow():
    out = softmax(Tensor([1000.0, 1000.0]))
    assert np.allclose(out.data, [0.5, 0.5])


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(7, 11)) * 10)
    out = softmax(x)
    assert np.all(out.data >= 0)
    assert np.abs(out.data.sum(axis=1) - 1.0).max() < 1e-12


def test_layer_norm_identity_on_standardized_input():
    x = np.array([[-1.0, 1.0, -1.0, 1.0]])  # zero mean, unit variance
    out = layer_norm(Tensor(x), Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-12)
    assert np.allclose(out.data, x, atol=1e-6)


def test_layer_norm_constant_rows_become_zero():
    out = layer_norm(Tensor(np.full((3, 5), 2.7)), Tensor(np.ones(5)),
                     Tensor(np.zeros(5)))
    assert np.allclose(out.data, 0.0)


def test_layer_norm_pre_affine_rows_centered():
    rng = np.random.default_rng(1)
    x = Tensor(rng.normal(size=(6, 9)) * 5)
    out = layer_norm(x, Tensor(np.ones(9)), Tensor(np.zeros(9)))
    assert np.abs(out.data.mean(axis=-1)).max() < 1e-9


def test_layer_norm_shape_check():
    with pytest.raises(ShapeMismatchError):
        layer_norm(Tensor(np.zeros((2, 4))), Tensor(np.ones(3)), Tensor(np.zeros(4)))


def test_cross_entropy_uniform_logits():
    # column 0 is the padding slot, outside the denominator
    loss = cross_entropy_rows(Tensor(np.zeros((1, 101))), np.array([7]))
    assert loss.item() == pytest.approx(math.log(100), abs=1e-12)


def test_cross_entropy_hand_case():
    loss = cross_entropy_rows(Tensor([[99.0, 10.0, 0.0]]), np.array([1]))
    assert loss.item() == pytest.approx(math.log(1 + math.exp(-10)), rel=1e-12)


def test_cross_entropy_target_out_of_range():
    for target in (5, 0, -1):  # column 0 is the padding slot, never a target
        with pytest.raises(ValueError, match=r"out of range \[1, 3\)"):
            cross_entropy_rows(Tensor([[1.0, 2.0, 3.0]]), np.array([target]))


def test_cross_entropy_rows_ignored_column_gets_no_probability():
    logits = Tensor(np.array([[5.0, 1.0, 2.0], [9.0, 3.0, 3.0]]), requires_grad=True)
    with Tape() as tape:
        loss = cross_entropy_rows(logits, np.array([1, 2]))
        backward(tape, loss)
    assert np.all(logits.grad[:, 0] == 0.0)
    expected = np.mean([math.log(1 + math.e), math.log(2)])
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_backward_of_sum_is_ones():
    x = Tensor(np.random.default_rng(2).normal(size=(3, 4)), requires_grad=True)
    with Tape() as tape:
        backward(tape, sum_all(x))
    assert np.array_equal(x.grad, np.ones((3, 4)))


def test_backward_of_dot_is_2x():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    with Tape() as tape:
        backward(tape, sum_all(mul(x, x)))
    assert np.allclose(x.grad, 2 * x.data)


def test_backward_rejects_non_scalar_loss():
    x = Tensor(np.ones(3), requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
        with pytest.raises(ValueError):
            backward(tape, y)


def test_backward_accumulates_shared_inputs():
    x = Tensor(np.array([2.0]), requires_grad=True)
    with Tape() as tape:
        y = add(mul(x, x), x)  # x^2 + x -> dy/dx = 2x + 1
        backward(tape, sum_all(y))
    assert np.allclose(x.grad, [5.0])


def test_split_records_its_one_node_through_record(monkeypatch):
    recorded = []
    original = tensor_module._record

    def spy(out, inputs, backward_fn):
        recorded.append(out)
        original(out, inputs, backward_fn)

    monkeypatch.setattr(tensor_module, "_record", spy)
    x = Tensor(np.ones((2, 4)), requires_grad=True)
    with Tape() as tape:
        parts = split(x, (1, 3))
    assert len(tape) == 1 and len(recorded) == 1
    assert all(r is p for r, p in zip(recorded[0], parts))
    assert all(p.requires_grad for p in parts)


def test_dropped_tape_releases_intermediates():
    # a tape that backward never walks frees its nodes when it is dropped
    x = Tensor(np.ones((4, 4)), requires_grad=True)
    tape = Tape()
    with tape:
        y = mul(x, x)
    ref = weakref.ref(y)
    del y
    gc.collect()
    assert ref() is not None  # the tape still holds it
    del tape
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("op,shapes", [
    ("matmul", ((3, 4), (4, 2))),
    ("matmul_batched", ((2, 3, 4), (2, 4, 5))),
    ("add_broadcast", ((5, 3, 4), (4,))),
    ("mul_broadcast", ((5, 3, 4), (5, 1, 4))),
    ("softmax", ((4, 6),)),
    ("layer_norm", ((5, 8),)),
    ("relu", ((4, 4),)),
    ("sigmoid", ((3, 5),)),
    ("tanh", ((3, 5),)),
    ("transpose", ((2, 3, 4),)),
    ("reshape", ((3, 4),)),
    ("split", ((2, 1, 7),)),
    ("stack", ((2, 3), (2, 3))),
])
def test_gradients_match_finite_differences(op, shapes):
    rng = np.random.default_rng(hash(op) % 2**32)
    tensors = [Tensor(rng.normal(size=s) * 2, requires_grad=True) for s in shapes]

    def forward():
        if op == "matmul" or op == "matmul_batched":
            out = matmul(tensors[0], tensors[1])
        elif op == "add_broadcast":
            out = add(tensors[0], tensors[1])
        elif op == "mul_broadcast":
            out = mul(tensors[0], tensors[1])
        elif op == "softmax":
            out = softmax(tensors[0])
        elif op == "layer_norm":
            gain = Tensor(np.linspace(0.5, 1.5, 8))
            bias = Tensor(np.zeros(8))
            out = layer_norm(tensors[0], gain, bias)
        elif op == "relu":
            out = relu(tensors[0])
        elif op == "sigmoid":
            out = sigmoid(tensors[0])
        elif op == "tanh":
            out = tanh(tensors[0])
        elif op == "transpose":
            out = transpose(tensors[0], (2, 0, 1))
        elif op == "reshape":
            out = reshape(tensors[0], (2, 6))
        elif op == "stack":
            out = stack([tensors[0], tensors[1], tensors[0]])
        elif op == "split":
            parts = split(tensors[0], (2, 3, 2))  # part 1 is off the loss path
            out = add(mul(parts[0], parts[2]), parts[0])
        # weight the output so the pseudo-loss is not permutation-blind
        w = np.linspace(-1.0, 1.0, out.size).reshape(out.shape)
        return sum_all(mul(out, Tensor(w)))

    with Tape() as tape:
        backward(tape, forward())
    for t in tensors:
        numeric = finite_diff_grad(lambda: forward().item(), t)
        assert max_rel_error(t.grad, numeric) < 1e-7


@pytest.mark.parametrize("a_shape", [(2, 3, 4), (2, 1, 4), (2, 2, 3, 4)])
def test_shared_weight_matmul_gradients_match_finite_differences(a_shape):
    rng = np.random.default_rng(len(a_shape) * 10 + a_shape[-2])
    a = Tensor(rng.normal(size=a_shape) * 2, requires_grad=True)
    b = Tensor(rng.normal(size=(4, 5)) * 2, requires_grad=True)

    def forward():
        out = matmul(a, b)
        w = np.linspace(-1.0, 1.0, out.size).reshape(out.shape)
        return sum_all(mul(out, Tensor(w)))

    with Tape() as tape:
        backward(tape, forward())
    for t in (a, b):
        numeric = finite_diff_grad(lambda: forward().item(), t)
        assert t.grad.shape == t.shape
        assert max_rel_error(t.grad, numeric) < 1e-7


def test_shared_weight_matmul_gradients_stay_float32():
    set_default_dtype(np.float32)
    try:
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        with Tape() as tape:
            backward(tape, sum_all(matmul(a, b)))
        assert a.grad.dtype == np.float32 and b.grad.dtype == np.float32
    finally:
        set_default_dtype(np.float64)


def test_shared_weight_matmul_backward_forms_no_per_row_weight_stack():
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(64, 1, 32)), requires_grad=True)
    b = Tensor(rng.normal(size=(32, 128)), requires_grad=True)
    with Tape() as tape:
        loss = sum_all(matmul(a, b))
    tracemalloc.start()
    try:
        backward(tape, loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # summing 64 per-row (32, 128) outer products would hold all of them at once
    assert peak < 64 * 32 * 128 * 8, peak


def test_layer_norm_gain_bias_gradients():
    rng = np.random.default_rng(9)
    x = Tensor(rng.normal(size=(4, 6)))
    gain = Tensor(rng.normal(size=6), requires_grad=True)
    bias = Tensor(rng.normal(size=6), requires_grad=True)

    def forward():
        out = layer_norm(x, gain, bias)
        w = np.linspace(0.3, 1.7, out.size).reshape(out.shape)
        return sum_all(mul(out, Tensor(w)))

    with Tape() as tape:
        backward(tape, forward())
    for t in (gain, bias):
        numeric = finite_diff_grad(lambda: forward().item(), t)
        assert max_rel_error(t.grad, numeric) < 1e-7


def test_embedding_lookup_scatter_gradient():
    table = Tensor(np.random.default_rng(3).normal(size=(6, 4)), requires_grad=True)
    idx = np.array([[1, 1, 5], [0, 2, 1]])
    with Tape() as tape:
        out = embedding_lookup(table, idx)
        backward(tape, sum_all(out))
    # row 1 appears three times, rows 0/2/5 once, rows 3/4 never
    assert np.allclose(table.grad[1], 3.0)
    assert np.allclose(table.grad[0], 1.0)
    assert np.allclose(table.grad[3], 0.0)


def test_embedding_lookup_bounds():
    table = Tensor(np.zeros((4, 2)))
    with pytest.raises(ValueError):
        embedding_lookup(table, np.array([4]))


def test_gather_rows_picks_and_scatters():
    x = Tensor(np.arange(24, dtype=float).reshape(2, 3, 4), requires_grad=True)
    pos = np.array([2, 0])
    with Tape() as tape:
        out = gather_rows(x, pos)
        assert np.array_equal(out.data, x.data[[0, 1], pos])
        backward(tape, sum_all(out))
    assert np.allclose(x.grad[0, 2], 1.0) and np.allclose(x.grad[1, 0], 1.0)
    assert x.grad.sum() == 8.0


def test_stack_rebuilds_the_parts_that_split_cut():
    x = Tensor(np.arange(24, dtype=float).reshape(2, 12), requires_grad=True)
    with Tape() as tape:
        out = stack(split(x, (4, 4, 4)))
        assert np.array_equal(out.data, x.data.reshape(2, 3, 4))
        backward(tape, sum_all(out))
    assert np.array_equal(x.grad, np.ones((2, 12)))


def test_split_gives_exact_zeros_to_parts_off_the_loss_path():
    x = Tensor(np.arange(10, dtype=float).reshape(2, 5), requires_grad=True)
    with Tape() as tape:
        parts = split(x, (1, 2, 2))
        assert len(tape) == 1  # one node for every part
        assert [p.shape for p in parts] == [(2, 1), (2, 2), (2, 2)]
        assert np.array_equal(np.concatenate([p.data for p in parts], axis=1), x.data)
        backward(tape, sum_all(parts[2]))
    assert np.array_equal(x.grad[:, :3], np.zeros((2, 3)))
    assert np.array_equal(x.grad[:, 3:], np.ones((2, 2)))


def test_split_sizes_must_cover_the_last_axis():
    with pytest.raises(ShapeMismatchError, match="do not add up"):
        split(Tensor(np.zeros((2, 5))), (2, 2))


_EXTREMES = np.array([-1000.0, 1000.0, -500.0, 500.0, -499.9, 0.0, -0.0, 1e-300, -36.5])


def test_sigmoid_has_the_bytes_of_the_np_clip_formula():
    x = np.concatenate([_EXTREMES, np.linspace(-1000.0, 1000.0, 801),
                        np.random.default_rng(4).normal(scale=20.0, size=200)])
    clipped = 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))
    assert sigmoid(Tensor(x)).data.tobytes() == clipped.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("d", [8, 32, 100])
def test_layer_norm_has_the_bytes_of_the_np_mean_formula(d, dtype):
    gen = np.random.default_rng(d)
    rows = gen.normal(scale=3.0, size=(6, d))
    rows[0, : len(_EXTREMES[:d])] = _EXTREMES[:d]
    rows[1] = 1000.0
    set_default_dtype(dtype)
    try:
        x = Tensor(rows.reshape(2, 3, d))
        gain, bias = Tensor(gen.normal(size=d)), Tensor(gen.normal(size=d))
        mu = x.data.mean(axis=-1, keepdims=True)
        xc = x.data - mu
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        expected = xc * inv * gain.data + bias.data
        assert expected.dtype == dtype
        assert layer_norm(x, gain, bias).data.tobytes() == expected.tobytes()
    finally:
        set_default_dtype(np.float64)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_array_helpers_leave_their_inputs_alone(dtype):
    # the helpers work in place on their own temporaries; the taped ops hand
    # them `.data` arrays that tape nodes hold, so an input must not change
    gen = np.random.default_rng(9)
    x = (gen.normal(scale=2.0, size=(3, 4, 16)) * np.linspace(0.1, 10.0, 16)).astype(dtype)
    gain, bias = gen.normal(size=16).astype(dtype), gen.normal(size=16).astype(dtype)
    before = [a.copy() for a in (x, gain, bias)]
    outs = [tensor_module.softmax_array(x), tensor_module.sigmoid_array(x),
            *tensor_module.layer_norm_array(x, gain, bias)]
    for a, kept in zip((x, gain, bias), before):
        assert a.tobytes() == kept.tobytes()
    for out in outs:
        assert out.dtype == dtype
        assert not any(np.shares_memory(out, a) for a in (x, gain, bias))
    y, xhat, _ = outs[2:]
    assert not np.shares_memory(y, xhat)  # the backward of `layer_norm` reads xhat
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    assert outs[0].tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()


def test_dropout_at_rate_zero_is_identity():
    x = Tensor(np.ones((3, 3)))
    rng = RngStream(0)
    assert dropout(x, 0.0, rng) is x
    assert rng.uniform(4).tobytes() == RngStream(0).uniform(4).tobytes()  # nothing drawn


def test_dropout_preserves_expected_scale():
    rng = RngStream(4)
    x = Tensor(np.ones((200, 200)))
    out = dropout(x, 0.3, rng)
    kept = out.data != 0
    assert abs(kept.mean() - 0.7) < 0.01
    assert np.allclose(out.data[kept], 1.0 / 0.7)


def test_cross_entropy_rows_gradient_matches_finite_differences():
    rng = np.random.default_rng(11)
    logits = Tensor(rng.normal(size=(3, 7)), requires_grad=True)
    targets = np.array([2, 1, 6])

    def forward():
        return cross_entropy_rows(logits, targets).item()

    with Tape() as tape:
        backward(tape, cross_entropy_rows(logits, targets))
    numeric = finite_diff_grad(forward, logits)
    assert max_rel_error(logits.grad, numeric) < 1e-7


def test_sample_gaussian_requires_nonnegative_std():
    with pytest.raises(ValueError):
        Tensor(RngStream(0).gaussian((3,), 0.0, -1.0))


def test_sample_gaussian_deterministic_per_seed():
    a = Tensor(RngStream(99).gaussian((4, 4)))
    b = Tensor(RngStream(99).gaussian((4, 4)))
    assert np.array_equal(a.data, b.data)


def test_sample_gaussian_monte_carlo_moments():
    out = Tensor(RngStream(7).gaussian((100_000,)))
    assert -0.02 < out.data.mean() < 0.02
    assert 0.99 < out.data.std() < 1.01


def test_ops_outside_tape_do_not_track():
    x = Tensor(np.ones(3), requires_grad=True)
    y = mul(x, x)
    assert not y.requires_grad


def test_backward_diamond_graph_visits_nodes_once():
    # y feeds two consumers; its node must run after both, exactly once:
    # loss = sum((y + c) + 2y) with y = x*x  ->  d/dx = 6x
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with Tape() as tape:
        y = mul(x, x)
        a = add(y, Tensor(np.ones(2)))
        b = mul(y, Tensor(np.full(2, 2.0)))
        backward(tape, sum_all(add(a, b)))
    assert np.allclose(x.grad, 6 * x.data)


def test_backward_writes_grad_on_leaves_only():
    # loss = sum(x*w + x); x feeds two ops, and its adjoints are added in
    # the walk's order: 1 from the add, then 1*w from the mul
    x = Tensor(np.array([0.1, -2.0, 3.0]), requires_grad=True)
    w = Tensor(np.array([0.7, 1.3, -0.2]), requires_grad=True)
    with Tape() as tape:
        y = mul(x, w)
        z = add(y, x)
        loss = sum_all(z)
        backward(tape, loss)
    assert y.grad is None and z.grad is None and loss.grad is None
    ones = np.ones(3)
    assert x.grad.tobytes() == (ones + ones * w.data).tobytes()
    assert w.grad.tobytes() == (ones * x.data).tobytes()
    assert len(tape) == 0


def test_backward_takes_each_node_off_the_tape_as_it_runs():
    x = Tensor(np.ones(4), requires_grad=True)
    seen = []
    with Tape() as tape:
        y = mul(x, x)
        out, inputs, fn = tape._nodes[0]
        tape._nodes[0] = (out, inputs, lambda g: (seen.append(len(tape)), fn(g))[1])
        backward(tape, sum_all(relu(y)))
    # the first node runs last, when every later node is already gone
    assert seen == [0] and len(tape) == 0
    assert np.array_equal(x.grad, 2 * x.data)


def test_backward_peak_memory_does_not_grow_with_chain_length():
    x = Tensor(np.ones(10_000), requires_grad=True)
    with Tape() as tape:
        y = x
        for _ in range(32):
            y = scale(y, 1.5)
        loss = sum_all(y)
    del y
    tracemalloc.start()
    try:
        backward(tape, loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the adjoint in flight, the one being made and the leaf's .grad copy;
    # keeping every adjoint would take 32 arrays or more
    assert peak < 4 * x.data.nbytes, peak


def test_adversarial_shift_leaf_gets_grad_and_the_shifted_table_does_not():
    # adversarial training adds a leaf delta_t to the item table and reads
    # delta_t.grad after backward; the sum is an intermediate
    table = Tensor(np.arange(12.0).reshape(4, 3) / 10, requires_grad=True)
    delta_t = Tensor(np.zeros((4, 3)), requires_grad=True)
    with Tape() as tape:
        shifted = add(table, delta_t)
        backward(tape, sum_all(mul(embedding_lookup(shifted, np.array([1, 3, 1])),
                                   embedding_lookup(shifted, np.array([2, 2, 0])))))
    assert shifted.grad is None
    assert delta_t.grad is not None and delta_t.grad.any()
    assert delta_t.grad.tobytes() == table.grad.tobytes()
