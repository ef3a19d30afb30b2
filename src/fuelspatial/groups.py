"""Group algebra on integer codes.

Labels are mapped once to codes 0..G-1 (in sorted label order); group sums,
counts and means then come from ``np.bincount`` in O(n), not from one boolean
mask per group in O(n*G).
"""

from __future__ import annotations

import numpy as np


def group_index(labels) -> tuple[np.ndarray, np.ndarray]:
    """Code of each row's group and the size of each group."""
    _, codes = np.unique(np.asarray(labels), return_inverse=True)
    codes = codes.ravel()
    return codes, np.bincount(codes)


def group_sums(codes: np.ndarray, values: np.ndarray, n_groups: int) -> np.ndarray:
    """Per-group sums of a 1-D (n,) or 2-D (n, k) array: shape (G,) or (G, k)."""
    if values.ndim == 1:
        return np.bincount(codes, weights=values, minlength=n_groups)
    return np.column_stack([np.bincount(codes, weights=col, minlength=n_groups)
                            for col in values.T])


def group_means(codes: np.ndarray, counts: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per-group means of a 1-D or 2-D array."""
    return (group_sums(codes, values, counts.size).T / counts).T


def demean(values, codes: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``values`` minus their group means, row by row (1-D or 2-D input)."""
    values = np.asarray(values, dtype=float)
    return values - group_means(codes, counts, values)[codes]
