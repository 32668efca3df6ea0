import numpy as np
import pytest

from seqdiff.optim import Adam
from seqdiff.tensor import (ShapeMismatchError, Tape, Tensor, add, backward, mul,
                            set_default_dtype)
from conftest import sum_all


def test_zero_gradient_leaves_parameters_unchanged():
    p = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    adam = Adam([p], lr=0.1)
    p.grad = np.zeros(3)
    before = p.data.copy()
    adam.step()
    assert np.array_equal(p.data, before)
    assert adam.step_count == 1


def test_first_step_moves_by_learning_rate():
    # bias-corrected m/sqrt(v) is +-1 on the first step, up to eps
    for g in (0.5, -3.0, 1e-4):
        p = Tensor(np.array([0.0]), requires_grad=True)
        adam = Adam([p], lr=0.01)
        p.grad = np.array([g])
        adam.step()
        assert abs(abs(p.data[0]) - 0.01) < 1e-6
        assert np.sign(p.data[0]) == -np.sign(g)


def test_converges_on_scalar_quadratic():
    w = Tensor(np.array([0.0]), requires_grad=True)
    adam = Adam([w], lr=0.1)
    for _ in range(1000):
        with Tape() as tape:
            diff = add(w, Tensor(np.array([-3.0])))
            backward(tape, sum_all(mul(diff, diff)))
        adam.step()
        adam.zero_grad()
    assert abs(w.data[0] - 3.0) < 0.01


def test_step_counter_strictly_increments():
    p = Tensor(np.zeros(2), requires_grad=True)
    adam = Adam([p])
    for expected in (1, 2, 3):
        p.grad = np.ones(2)
        adam.step()
        assert adam.step_count == expected


def test_gradient_shape_mismatch_rejected():
    p = Tensor(np.zeros((2, 2)), requires_grad=True)
    adam = Adam([p])
    p.grad = np.ones(3)
    with pytest.raises(ShapeMismatchError):
        adam.step()


def test_rejects_nonpositive_learning_rate():
    with pytest.raises(ValueError):
        Adam([Tensor(np.zeros(1), requires_grad=True)], lr=0.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_in_place_step_has_the_out_of_place_formulas_bytes(dtype):
    rng = np.random.default_rng(3)
    set_default_dtype(dtype)
    try:
        p = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    finally:
        set_default_dtype(np.float64)
    adam = Adam([p], lr=0.01)
    m_buf, v_buf = adam.m[0], adam.v[0]
    ref_p, ref_m, ref_v = p.data.copy(), np.zeros_like(p.data), np.zeros_like(p.data)
    b1, b2, eps = 0.9, 0.999, 1e-8
    grads = [rng.normal(size=(4, 3)).astype(dtype) for _ in range(5)]
    grads[2] = None
    for t, g in enumerate(grads, start=1):
        p.grad = g
        adam.step()
        g = 0.0 if g is None else g
        ref_m = b1 * ref_m + (1.0 - b1) * g
        ref_v = b2 * ref_v + (1.0 - b2) * (g * g)
        ref_p -= 0.01 * (ref_m / (1.0 - b1 ** t)) / (np.sqrt(ref_v / (1.0 - b2 ** t)) + eps)
        assert p.data.tobytes() == ref_p.tobytes()
        assert adam.m[0].tobytes() == ref_m.tobytes()
        assert adam.v[0].tobytes() == ref_v.tobytes()
    # the moments were updated in the arrays they started in
    assert adam.m[0] is m_buf and adam.v[0] is v_buf
