import numpy as np
import pytest

from graphsfda.banks import MemoryBanks, init_banks, momentum_update, sharpen
from graphsfda.errors import ContractError, ShapeError


def arrays(z, p):
    return np.array(z), np.array(p)


def entropy(rows):
    safe = np.where(rows > 0, rows, 1.0)
    return -(rows * np.log(safe)).sum(axis=1)


class TestSharpen:
    def test_one_hot_fixed_point(self):
        assert np.array_equal(sharpen(np.array([[1.0, 0.0, 0.0]])), [[1.0, 0.0, 0.0]])

    def test_uniform_fixed_point(self):
        assert np.allclose(sharpen(np.array([[0.5, 0.5]])), [[0.5, 0.5]])

    def test_hand_case(self):
        out = sharpen(np.array([[0.6, 0.4]]))
        assert np.allclose(out, [[0.36 / 0.52, 0.16 / 0.52]], atol=1e-12)

    def test_preserves_argmax_and_reduces_entropy(self, rng):
        p = rng.dirichlet(np.ones(4), size=500)
        s = sharpen(p)
        assert np.array_equal(np.argmax(s, axis=1), np.argmax(p, axis=1))
        assert np.all(entropy(s) < entropy(p))

    def test_rows_stay_stochastic(self, rng):
        p = rng.dirichlet(np.ones(5), size=100)
        assert np.max(np.abs(sharpen(p).sum(axis=1) - 1.0)) <= 1e-12


class TestInitBanks:
    def test_direct_copy(self):
        out = arrays([[1.0, 2.0]], [[0.6, 0.4]])
        banks = init_banks(*out, 0.9)
        assert np.array_equal(banks.repr_bank, [[1.0, 2.0]])
        assert np.allclose(banks.pred_bank, sharpen(np.array([[0.6, 0.4]])))
        assert banks.momentum == 0.9

    def test_momentum_out_of_range(self):
        with pytest.raises(ContractError):
            init_banks(*arrays([[1.0]], [[1.0]]), 1.5)


class TestMomentumUpdate:
    def test_full_replacement(self):
        banks = init_banks(*arrays([[1.0, 0.0]], [[1.0, 0.0]]), 1.0)
        new = arrays([[0.0, 2.0]], [[0.2, 0.8]])
        updated = momentum_update(banks, *new)
        assert np.array_equal(updated.repr_bank, [[0.0, 2.0]])
        assert np.array_equal(updated.pred_bank, sharpen(np.array([[0.2, 0.8]])))

    def test_frozen(self):
        banks = init_banks(*arrays([[1.0, 0.0]], [[1.0, 0.0]]), 0.0)
        updated = momentum_update(banks, *arrays([[5.0, 5.0]], [[0.5, 0.5]]))
        assert np.array_equal(updated.repr_bank, banks.repr_bank)
        assert np.array_equal(updated.pred_bank, banks.pred_bank)

    def test_hand_blend(self):
        banks = MemoryBanks(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), 0.9)
        updated = momentum_update(banks, *arrays([[0.0, 1.0]], [[0.0, 1.0]]))
        assert np.allclose(updated.repr_bank, [[0.1, 0.9]], atol=1e-12)
        assert np.allclose(updated.pred_bank, [[0.1, 0.9]], atol=1e-12)

    def test_shape_mismatch(self):
        banks = init_banks(*arrays([[1.0, 0.0]], [[1.0, 0.0]]), 0.5)
        with pytest.raises(ShapeError):
            momentum_update(banks, *arrays([[1.0, 0.0, 0.0]], [[1.0, 0.0]]))

    def test_convex_hull_bounds(self, rng):
        banks = init_banks(*arrays(rng.standard_normal((3, 2)), rng.dirichlet(np.ones(2), 3)), 0.7)
        lo = banks.repr_bank.copy()
        hi = banks.repr_bank.copy()
        for _ in range(50):
            z = rng.standard_normal((3, 2))
            p = rng.dirichlet(np.ones(2), 3)
            lo = np.minimum(lo, z)
            hi = np.maximum(hi, z)
            banks = momentum_update(banks, *arrays(z, p))
            assert np.all(banks.repr_bank >= lo - 1e-12)
            assert np.all(banks.repr_bank <= hi + 1e-12)

    def test_pred_rows_stochastic_after_many_updates(self, rng):
        banks = init_banks(*arrays(rng.standard_normal((4, 3)), rng.dirichlet(np.ones(3), 4)), 0.9)
        for _ in range(10_000):
            banks = momentum_update(
                banks, *arrays(rng.standard_normal((4, 3)), rng.dirichlet(np.ones(3), 4))
            )
        assert np.max(np.abs(banks.pred_bank.sum(axis=1) - 1.0)) <= 1e-6
