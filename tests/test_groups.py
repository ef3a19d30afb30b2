import datetime as dt

import numpy as np
import pytest

from fuelspatial.groups import PAIRWISE_MIN, group_index, label_codes, run_means, run_starts


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


class TestRuns:
    def test_run_starts_on_several_keys(self):
        a = np.array([1, 1, 1, 2, 2])
        b = np.array([0, 0, 1, 1, 1])
        assert run_starts(a).tolist() == [0, 3]
        assert run_starts(a, b).tolist() == [0, 2, 3]
        assert run_starts(np.array([], dtype=int)).tolist() == []

    def test_run_means_equal_np_mean_bit_for_bit(self):
        # Runs on both sides of PAIRWISE_MIN and past numpy's 128-value
        # pairwise block, where a sequential sum would differ in the last bit.
        rng = np.random.default_rng(3)
        lengths = [1, 2, PAIRWISE_MIN - 1, PAIRWISE_MIN, 9, 31, 128, 129, 300] * 5
        values = rng.uniform(1.5, 3.5, sum(lengths)).round(3)
        starts = np.cumsum([0] + lengths[:-1])
        means = run_means(values, starts)
        want = [np.mean(list(values[s:s + n])) for s, n in zip(starts, lengths)]
        assert means.tolist() == [float(m) for m in want]
        sequential = [np.cumsum(values[s:s + n])[-1] / n for s, n in zip(starts, lengths)]
        assert sequential != means.tolist()
