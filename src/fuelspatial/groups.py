"""Group algebra on integer codes.

Labels are mapped once to codes 0..G-1 (in sorted label order); group sums,
counts and means then come from ``np.bincount`` in O(n), not from one boolean
mask per group in O(n*G). ``group_index`` codes labels with ``np.unique``;
``label_codes`` gives the same codes together with the sorted distinct
labels, from a dict, for the ingest layer's station and county labels.

``cell_means`` is the one cell-mean rule: every price cell of the package,
from the station-day to the county mean and the Moran window, is the
``np.mean`` of its rows, bit for bit, in row order.
"""

from __future__ import annotations

import numpy as np


def label_codes(labels) -> tuple[list, np.ndarray]:
    """The sorted distinct labels and each label's index among them, so that
    code order is label order."""
    distinct = sorted(set(labels))
    index = {label: i for i, label in enumerate(distinct)}
    return distinct, np.fromiter(map(index.__getitem__, labels), np.intp, len(labels))


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


def cell_means(values, *keys: np.ndarray) -> tuple[list, np.ndarray, np.ndarray]:
    """Each cell of rows with equal ``keys``, in key order (the first key
    sorts first): its keys (one array per key), its mean, bit for bit
    ``np.mean`` of its ``values`` in row order, and its size. Cells shorter
    than ``PAIRWISE_MIN`` share one ``group_means``; longer ones use np.mean."""
    order = np.lexsort(keys[::-1])
    keys = [k[order] for k in keys]
    new = np.ones(order.size, dtype=bool)
    new[1:] = np.logical_or.reduce([k[1:] != k[:-1] for k in keys])
    cell = np.cumsum(new) - 1
    sizes = np.bincount(cell)
    values = np.asarray(values, dtype=float)[order]
    means = group_means(cell, sizes, values)
    starts = np.flatnonzero(new)
    for i in np.flatnonzero(sizes >= PAIRWISE_MIN):
        means[i] = values[starts[i]:starts[i] + sizes[i]].mean()
    return [k[new] for k in keys], means, sizes
