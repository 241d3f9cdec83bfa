"""Differential tests: the warm engine's threshold search vs the
per-threshold rescan of M-PARTITION."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import RebalanceEngine, make_instance, m_partition_rebalance

from ..conftest import instances_with_k


def _search(inst, k):
    return RebalanceEngine(k=k).rebalance(inst)


class TestIncrementalEquivalence:
    def test_simple_instance(self):
        inst = make_instance(
            sizes=[8, 7, 2, 2, 1], initial=[0, 0, 0, 1, 1], num_processors=2
        )
        a = m_partition_rebalance(inst, 2)
        b = _search(inst, 2)
        assert a.guessed_opt == b.guessed_opt
        assert a.makespan == b.makespan
        assert np.array_equal(a.assignment.mapping, b.assignment.mapping)

    def test_empty(self):
        inst = make_instance(sizes=[], initial=[], num_processors=3)
        assert _search(inst, 2).makespan == 0.0

    def test_rejects_negative_k(self):
        inst = make_instance(sizes=[1.0], initial=[0])
        with pytest.raises(ValueError):
            m_partition_rebalance(inst, -1)
        with pytest.raises(ValueError):
            RebalanceEngine(k=-1)

    @settings(max_examples=80, deadline=None)
    @given(instances_with_k(max_jobs=8, max_processors=4))
    def test_identical_results(self, case):
        """The search must stop at the same threshold, after the same
        number of thresholds, and produce the identical assignment."""
        inst, k = case
        rescan = m_partition_rebalance(inst, k)
        search = _search(inst, k)
        assert search.guessed_opt == rescan.guessed_opt
        assert search.planned_moves == rescan.planned_moves
        assert search.meta["thresholds_tried"] == rescan.meta["thresholds_tried"]
        assert np.array_equal(search.assignment.mapping, rescan.assignment.mapping)

    @settings(max_examples=20, deadline=None)
    @given(instances_with_k(max_jobs=10, max_processors=5, max_size=50))
    def test_identical_on_larger_instances(self, case):
        inst, k = case
        rescan = m_partition_rebalance(inst, k)
        search = _search(inst, k)
        assert search.makespan == rescan.makespan
        assert search.num_moves == rescan.num_moves
