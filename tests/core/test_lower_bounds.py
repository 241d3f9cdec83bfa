"""Tests for the OPT lower bounds, including Lemma 1's G1 bound."""

import heapq
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    average_load_bound,
    combined_lower_bound,
    exact_rebalance,
    greedy_removal_bound,
    make_instance,
    max_job_bound,
)

from ..conftest import instances_with_k, small_instances


def brute_force_removal_bound(inst, k):
    """Minimum possible max load over all ways of deleting k jobs."""
    n = inst.num_jobs
    best = float("inf")
    for removed in itertools.combinations(range(n), min(k, n)):
        loads = np.zeros(inst.num_processors)
        for j in range(n):
            if j not in removed:
                loads[inst.initial[j]] += inst.sizes[j]
        best = min(best, loads.max())
    return best


def loop_removal_bound(inst, k):
    """G1 by per-processor Python stacks, one append per job: the
    reference the table-based bound must match float for float."""
    m = inst.num_processors
    stacks = [[] for _ in range(m)]
    for j in range(inst.num_jobs):
        stacks[int(inst.initial[j])].append(float(inst.sizes[j]))
    for stack in stacks:
        stack.sort()
    loads = [float(x) for x in inst.initial_loads]
    heap = [(-loads[p], p) for p in range(m)]
    heapq.heapify(heap)
    removed = 0
    while removed < k:
        neg_load, p = heapq.heappop(heap)
        if -neg_load != loads[p]:
            continue
        if not stacks[p]:
            break
        loads[p] -= stacks[p].pop()
        heapq.heappush(heap, (-loads[p], p))
        removed += 1
    return max(loads) if loads else 0.0


@st.composite
def float_removal_cases(draw):
    """Float sizes from a small pool (ties, rounding sums), empty
    processors, and ``k`` past ``n``."""
    n = draw(st.integers(min_value=0, max_value=25))
    m = draw(st.integers(min_value=1, max_value=8))
    pool = draw(st.lists(
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        min_size=1, max_size=4,
    ))
    sizes = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    initial = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    k = draw(st.integers(min_value=0, max_value=n + 2))
    return make_instance(sizes=sizes, initial=initial, num_processors=m), k


class TestStructuralBounds:
    def test_average(self):
        inst = make_instance(sizes=[4, 2], initial=[0, 0], num_processors=3)
        assert average_load_bound(inst) == pytest.approx(2.0)

    def test_max_job(self):
        inst = make_instance(sizes=[4, 2], initial=[0, 0], num_processors=3)
        assert max_job_bound(inst) == 4.0

    def test_combined_without_k(self):
        inst = make_instance(sizes=[9, 1], initial=[0, 0], num_processors=2)
        assert combined_lower_bound(inst) == 9.0


class TestGreedyRemovalBound:
    def test_lemma1_example(self):
        # Removing the single largest job from the hot processor.
        inst = make_instance(sizes=[5, 3, 4], initial=[0, 0, 1], num_processors=2)
        assert greedy_removal_bound(inst, 0) == 8.0
        assert greedy_removal_bound(inst, 1) == 4.0
        assert greedy_removal_bound(inst, 2) == 3.0

    def test_k_exceeding_jobs(self):
        inst = make_instance(sizes=[5, 3], initial=[0, 0], num_processors=2)
        assert greedy_removal_bound(inst, 10) == 0.0

    def test_rejects_negative_k(self):
        inst = make_instance(sizes=[1.0], initial=[0])
        with pytest.raises(ValueError):
            greedy_removal_bound(inst, -1)

    @settings(max_examples=200, deadline=None)
    @given(float_removal_cases())
    def test_float_identical_to_loop_reference(self, case):
        inst, k = case
        assert greedy_removal_bound(inst, k) == loop_removal_bound(inst, k)

    @settings(max_examples=30, deadline=None)
    @given(instances_with_k(max_jobs=7, max_processors=3))
    def test_matches_brute_force_optimum(self, case):
        """Lemma 1: greedy removal is the *optimal* removal strategy."""
        inst, k = case
        assert greedy_removal_bound(inst, k) == pytest.approx(
            brute_force_removal_bound(inst, k)
        )

    @settings(max_examples=25, deadline=None)
    @given(instances_with_k(max_jobs=7, max_processors=3))
    def test_lower_bounds_opt(self, case):
        """G1 <= OPT(k): reassigning the removed jobs only adds load."""
        inst, k = case
        opt = exact_rebalance(inst, k=k).makespan
        assert greedy_removal_bound(inst, k) <= opt + 1e-9

    @settings(max_examples=20, deadline=None)
    @given(small_instances(max_jobs=7))
    def test_monotone_in_k(self, inst):
        values = [greedy_removal_bound(inst, k) for k in range(inst.num_jobs + 1)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @settings(max_examples=20, deadline=None)
    @given(instances_with_k(max_jobs=7, max_processors=3))
    def test_combined_bound_valid(self, case):
        inst, k = case
        opt = exact_rebalance(inst, k=k).makespan
        assert combined_lower_bound(inst, k) <= opt + 1e-9
