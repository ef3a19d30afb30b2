"""Group algebra on integer codes.

Labels are mapped once to codes 0..G-1 (in sorted label order); group sums,
counts and means then come from ``np.bincount`` in O(n), not from one boolean
mask per group in O(n*G). Rows already sorted by group form runs, whose
means ``run_means`` gives exactly as ``np.mean`` would.
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


# ``np.mean`` adds fewer than this many values in order, as ``np.bincount``
# does; from this many on it sums pairwise, which can differ in the last bit.
PAIRWISE_MIN = 8


def run_starts(*keys: np.ndarray) -> np.ndarray:
    """Offsets where a new run of equal rows begins in sorted key columns."""
    new = np.ones(keys[0].size, dtype=bool)
    new[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
    return np.flatnonzero(new)


def run_means(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Mean of each run ``values[starts[i]:starts[i + 1]]`` (the last run
    ends at the end of ``values``), equal bit for bit to ``np.mean`` of the
    run: one ``group_means`` for the runs shorter than ``PAIRWISE_MIN`` and
    ``np.mean`` on each longer one."""
    values = np.asarray(values, dtype=float)
    counts = np.diff(np.append(starts, values.size))
    means = group_means(np.repeat(np.arange(counts.size), counts), counts, values)
    for i in np.flatnonzero(counts >= PAIRWISE_MIN):
        means[i] = values[starts[i]:starts[i] + counts[i]].mean()
    return means
