"""Per-node memory banks: a representation bank and a sharpened-prediction
bank, blended with a momentum coefficient after every model update.

The blend puts weight `momentum` on the NEW value, so momentum 1 replaces the
banks outright and momentum 0 freezes them. Both functions take the two
arrays of a forward pass: the (n, h) representations and the (n, C)
row-stochastic predictions.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, ShapeError

__all__ = ["MemoryBanks", "init_banks", "sharpen", "momentum_update"]


class MemoryBanks:
    """Row i of both banks tracks target node i."""

    __slots__ = ("repr_bank", "pred_bank", "momentum")

    def __init__(self, repr_bank: np.ndarray, pred_bank: np.ndarray, momentum: float):
        if not (0.0 <= momentum <= 1.0):
            raise ContractError(f"momentum must lie in [0,1], got {momentum}")
        if repr_bank.shape[0] != pred_bank.shape[0]:
            raise ShapeError("banks must be row-aligned")
        row_sums = pred_bank.sum(axis=1)
        if pred_bank.size and np.max(np.abs(row_sums - 1.0)) > 1e-6:
            raise ContractError("prediction bank rows must sum to 1")
        self.repr_bank = repr_bank
        self.pred_bank = pred_bank
        self.momentum = momentum

    @property
    def n(self) -> int:
        return self.repr_bank.shape[0]


def sharpen(p) -> np.ndarray:
    """Square each row and renormalize over classes.

    Reduces row entropy while preserving the argmax; one-hot and uniform rows
    are fixed points.
    """
    pv = np.asarray(p, dtype=np.float64)
    sq = pv * pv
    return sq / sq.sum(axis=1, keepdims=True)


def init_banks(z: np.ndarray, p: np.ndarray, momentum: float) -> MemoryBanks:
    """First fill is a straight copy: representations as-is, predictions sharpened."""
    return MemoryBanks(z.copy(), sharpen(p), momentum)


def momentum_update(banks: MemoryBanks, z: np.ndarray, p: np.ndarray) -> MemoryBanks:
    """Blend new representations and predictions into the banks with weight
    `momentum`."""
    if z.shape != banks.repr_bank.shape or p.shape != banks.pred_bank.shape:
        raise ShapeError(
            f"bank shapes {banks.repr_bank.shape}/{banks.pred_bank.shape} vs "
            f"update {z.shape}/{p.shape}"
        )
    g = banks.momentum
    new_repr = (1.0 - g) * banks.repr_bank + g * z
    new_pred = (1.0 - g) * banks.pred_bank + g * sharpen(p)
    return MemoryBanks(new_repr, new_pred, g)
