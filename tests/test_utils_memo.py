"""Tests for :class:`repro.utils.memo.Memo` and the codec index-table memos built on it."""

import sys
import threading

import numpy as np

from repro.sz import predictors
from repro.sz.predictors import InterpolationPredictor, RegressionPredictor
from repro.utils.memo import Memo


def counting_build(calls):
    def build(key):
        calls.append(key)
        return [key] * key

    return build


class TestMemo:
    def test_hit_returns_the_built_value_without_rebuilding(self):
        calls = []
        memo = Memo(counting_build(calls), max_cost=8)
        first = memo.get(3)
        assert memo.get(3) is first
        assert calls == [3]

    def test_cost_bound_keeps_the_newest_oversized_entry(self):
        memo = Memo(counting_build([]), max_cost=10, cost=len, unit="points")
        memo.get(4)
        memo.get(5)
        assert memo.info()["points"] == 9
        memo.get(20)  # alone over the bound: everything older goes, it stays
        assert memo.info()["entries"] == 1
        assert memo.info()["points"] == 20
        memo.get(3)  # the oversized entry is now the oldest and goes
        assert memo.info()["entries"] == 1
        assert memo.info()["points"] == 3

    def test_count_bound_evicts_least_recently_used_first(self):
        calls = []
        memo = Memo(counting_build(calls), max_cost=2)
        memo.get(1)
        memo.get(2)
        memo.get(1)  # refreshes 1, so 2 is now the oldest
        memo.get(3)
        assert memo.info()["entries"] == 2
        memo.get(1)
        memo.get(3)
        assert calls == [1, 2, 3]
        memo.get(2)  # evicted, so rebuilt
        assert calls == [1, 2, 3, 2]

    def test_stats_and_clear(self):
        memo = Memo(counting_build([]), max_cost=8)
        memo.get(1)
        memo.get(1)
        memo.get(2)
        assert memo.info() == {"entries": 2, "cost": 2, "hits": 1, "misses": 2}
        memo.clear()
        assert memo.info() == {"entries": 0, "cost": 0, "hits": 0, "misses": 0}

    def test_concurrent_misses_on_one_key_return_equal_values(self):
        started = threading.Barrier(4)

        def build(key):
            started.wait(timeout=5)  # every thread misses before any stores
            return np.arange(key)

        memo = Memo(build, max_cost=8)
        results = [None] * 4

        def worker(slot):
            results[slot] = memo.get(16)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert all(np.array_equal(r, np.arange(16)) for r in results)
        assert all(r is results[0] for r in results)  # the first stored value wins
        assert memo.info() == {"entries": 1, "cost": 1, "hits": 0, "misses": 4}

    def test_stress_keeps_counters_and_bound_consistent(self):
        memo = Memo(lambda key: key * 2, max_cost=5)
        n_threads, n_gets = 8, 2000
        wrong = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            for key in rng.integers(0, 12, size=n_gets):
                if memo.get(int(key)) != 2 * int(key):
                    wrong.append(int(key))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert wrong == []
        info = memo.info()
        assert info["hits"] + info["misses"] == n_threads * n_gets
        assert info["cost"] == info["entries"] <= 5


class TestPredictorMemoBounds:
    """The regression and interpolation memos hold no more than their bound."""

    def test_design_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(predictors._DESIGNS, "max_cost", 3)
        predictors._DESIGNS.clear()
        rng = np.random.default_rng(0)
        for size in range(2, 9):
            codes = rng.integers(-50, 50, size=(size, 11)).astype(np.int64)
            residuals, coeffs = RegressionPredictor(block_size=size).encode(codes)
            assert np.array_equal(RegressionPredictor(block_size=size).decode(residuals, coeffs), codes)
        assert predictors._DESIGNS.info()["entries"] <= 3
        predictors._DESIGNS.clear()

    def test_block_group_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(predictors._BLOCK_GROUPS, "max_cost", 500)
        predictors._BLOCK_GROUPS.clear()
        rng = np.random.default_rng(1)
        for rows in range(10, 30):
            codes = rng.integers(-50, 50, size=(rows, 20)).astype(np.int64)
            residuals, coeffs = RegressionPredictor().encode(codes)
            assert np.array_equal(RegressionPredictor().decode(residuals, coeffs), codes)
            # every gather table covers the whole array once
            assert predictors._BLOCK_GROUPS.info()["cost"] <= 500 + codes.size
        info = predictors._BLOCK_GROUPS.info()
        assert info["entries"] < 20
        assert info["hits"] == 20  # each decode reuses its encode's tables
        predictors._BLOCK_GROUPS.clear()

    def test_interpolation_pass_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(predictors._INTERP_PASSES, "max_cost", 4)
        predictors._INTERP_PASSES.clear()
        rng = np.random.default_rng(2)
        for n in range(5, 15):
            codes = rng.integers(-50, 50, size=(n, 7)).astype(np.int64)
            residuals = InterpolationPredictor().encode(codes)
            assert np.array_equal(InterpolationPredictor().decode(residuals), codes)
        info = predictors._INTERP_PASSES.info()
        assert info["entries"] == 4
        assert info["misses"] == 10
        predictors._INTERP_PASSES.clear()
