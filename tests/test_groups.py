import numpy as np

from fuelspatial.groups import PAIRWISE_MIN, run_means, run_starts


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
