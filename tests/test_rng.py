import numpy as np
import pytest

from seqdiff.rng import RngStream, gaussian_rows


def test_equal_seeds_give_identical_sequences():
    a, b = RngStream(42), RngStream(42)
    for _ in range(5):
        assert np.array_equal(a.gaussian((17,)), b.gaussian((17,)))
        assert np.array_equal(a.integers(0, 100, size=9), b.integers(0, 100, size=9))


def test_different_seeds_differ():
    assert not np.array_equal(RngStream(1).gaussian((32,)), RngStream(2).gaussian((32,)))


def test_derived_streams_are_deterministic_and_distinct():
    root = RngStream(7)
    again = RngStream(7)
    assert np.array_equal(root.derive(3).gaussian((8,)), again.derive(3).gaussian((8,)))
    assert not np.array_equal(root.derive(3).gaussian((8,)), root.derive(4).gaussian((8,)))


@pytest.mark.parametrize("seed,key", [(-1, ()), (2**64, ()), (10**30, ()), (0, (-1,)),
                                      (0, (3, 2**64))])
def test_seeds_and_keys_outside_64_bits_are_refused(seed, key):
    # masked to 64 bits, -1 would run seed 2**64 - 1 and 2**64 seed 0
    with pytest.raises(ValueError, match=r"must be in \[0, 2\*\*64\)"):
        RngStream(seed, key)
    top = RngStream(2**64 - 1, (2**64 - 1,))
    assert (top.seed, top._key) == (2**64 - 1, (2**64 - 1,))


def test_derivation_does_not_disturb_parent_state():
    a, b = RngStream(5), RngStream(5)
    a.derive(0)
    a.derive(1)
    assert np.array_equal(a.gaussian((6,)), b.gaussian((6,)))


def test_gaussian_mean_within_standard_error_bound():
    for seed, mean, std in [(0, 0.0, 1.0), (1, 3.0, 0.5), (2, -2.0, 2.0)]:
        n = 50_000
        draws = RngStream(seed).gaussian((n,), mean, std)
        assert abs(draws.mean() - mean) <= 4 * std / np.sqrt(n)


def test_gaussian_negative_std_rejected():
    with pytest.raises(ValueError):
        RngStream(0).gaussian((3,), 0.0, -0.1)


def test_gaussian_std_zero_is_constant():
    out = RngStream(0).gaussian((5,), mean=2.5, std=0.0)
    assert np.array_equal(out, np.full(5, 2.5))


def test_uniform_and_permutation_ranges():
    rng = RngStream(11)
    u = rng.uniform((1000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    perm = rng.permutation(20)
    assert sorted(perm.tolist()) == list(range(20))


@pytest.mark.parametrize("mean, std", [(0.0, 1.0), (0.001, np.sqrt(0.001)), (0.0, 0.0)])
@pytest.mark.parametrize("row_shape", [(8,), (5, 8), (5, 1)])
def test_gaussian_rows_row_i_is_stream_i_drawing_alone(row_shape, mean, std):
    seeds = [3, 1, 4, 1, 5]
    rows = gaussian_rows([RngStream(s) for s in seeds], row_shape, mean, std)
    assert rows.shape == (len(seeds), *row_shape) and rows.dtype == np.float64
    for row, seed in zip(rows, seeds):
        alone = RngStream(seed).gaussian((1, *row_shape), mean, std)
        assert row[None].tobytes() == alone.tobytes()


def test_gaussian_rows_negative_std_rejected():
    with pytest.raises(ValueError):
        gaussian_rows([RngStream(0)], (3,), 0.0, -0.1)
