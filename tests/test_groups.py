import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fuelspatial.groups import PAIRWISE_MIN, cell_means, group_index, label_codes


def _labels(kind):
    rng = np.random.default_rng(17)
    if kind == "str":
        pool = ["TX", "tx", "T", "T X", "É", "48201", "48-201", "0", "AL", "a\u00e9"]
        return [pool[i] for i in rng.integers(0, len(pool), 500)]
    if kind == "int":
        return [int(i) for i in rng.integers(-40, 1000, 500)]
    day0 = dt.date(2017, 1, 10)
    return [(day0 + dt.timedelta(days=int(d))).toordinal()
            for d in rng.integers(0, 60, 500)]


class TestLabelCodes:
    @pytest.mark.parametrize("kind", ["str", "int", "day"])
    def test_codes_equal_np_unique(self, kind):
        labels = _labels(kind)
        distinct, inverse = np.unique(np.asarray(labels), return_inverse=True)
        names, codes = label_codes(labels)
        assert names == distinct.tolist()
        assert codes.dtype == inverse.dtype
        assert codes.tolist() == inverse.ravel().tolist()
        same, counts = group_index(labels)
        assert same.tolist() == codes.tolist()
        assert counts.tolist() == np.bincount(inverse.ravel()).tolist()


@st.composite
def _cells(draw):
    """Distinct key tuples of 1-3 keys, each cell's size (1-300 rows) and a
    seed for the values and the row order."""
    n_keys = draw(st.integers(1, 3))
    keys = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n_keys),
                         min_size=1, max_size=6, unique=True))
    sizes = draw(st.lists(st.integers(1, 300), min_size=len(keys), max_size=len(keys)))
    return keys, sizes, draw(st.integers(0, 2**32 - 1))


class TestCellMeans:
    def test_cells_on_several_keys(self):
        a = np.array([2, 1, 2, 1, 1])
        b = np.array([1, 0, 1, 1, 0])
        values = np.array([3.0, 0.0, 4.0, 2.0, 1.0])
        (cell_a,), means, sizes = cell_means(values, a)
        assert (cell_a.tolist(), means.tolist(), sizes.tolist()) == (
            [1, 2], [1.0, 3.5], [3, 2])
        (cell_a, cell_b), means, sizes = cell_means(values, a, b)
        assert (cell_a.tolist(), cell_b.tolist()) == ([1, 1, 2], [0, 1, 1])
        assert (means.tolist(), sizes.tolist()) == ([0.5, 2.0, 3.5], [2, 1, 2])
        (cell_a,), means, sizes = cell_means(np.array([]), np.array([], dtype=int))
        assert cell_a.tolist() == means.tolist() == sizes.tolist() == []

    def test_cell_means_equal_np_mean_bit_for_bit(self):
        # Cells on both sides of PAIRWISE_MIN and past numpy's 128-value
        # pairwise block, where a sequential sum would differ in the last bit.
        rng = np.random.default_rng(3)
        lengths = [1, 2, PAIRWISE_MIN - 1, PAIRWISE_MIN, 9, 31, 128, 129, 300] * 5
        values = rng.uniform(1.5, 3.5, sum(lengths)).round(3)
        starts = np.cumsum([0] + lengths[:-1])
        _, means, sizes = cell_means(values, np.repeat(np.arange(len(lengths)), lengths))
        assert sizes.tolist() == lengths
        want = [np.mean(list(values[s:s + n])) for s, n in zip(starts, lengths)]
        assert means.tolist() == [float(m) for m in want]
        sequential = [np.cumsum(values[s:s + n])[-1] / n for s, n in zip(starts, lengths)]
        assert sequential != means.tolist()

    @given(cells=_cells())
    @settings(max_examples=60, deadline=None)
    def test_matches_per_cell_np_mean_in_row_order(self, cells):
        keys, sizes, seed = cells
        rng = np.random.default_rng(seed)
        of_row = rng.permutation(np.repeat(np.arange(len(keys)), sizes))
        columns = np.array(keys)[of_row].T
        values = rng.uniform(1.5, 3.5, of_row.size).round(3)
        got_keys, means, got_sizes = cell_means(values, *columns)
        assert list(zip(*(k.tolist() for k in got_keys))) == sorted(keys)
        rows = [np.flatnonzero((columns.T == key).all(axis=1)) for key in sorted(keys)]
        assert got_sizes.tolist() == [r.size for r in rows]
        assert means.tolist() == [float(np.mean(values[r])) for r in rows]
