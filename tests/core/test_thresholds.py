"""Tests for threshold enumeration (Section 3.1, Lemma 5)."""

import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import build_tables, candidate_guesses, evaluate_guess, make_instance

from ..conftest import small_instances


def brute_a_value(inst, proc, guess):
    """a_i from its Definition: min #smalls removed so remaining <= guess/2."""
    jobs = inst.jobs_on(proc)
    smalls = sorted(
        (float(inst.sizes[j]) for j in jobs if inst.sizes[j] <= guess / 2),
        reverse=True,
    )
    total = sum(smalls)
    removed = 0
    while total > guess / 2 + 1e-12:
        total -= smalls[removed]
        removed += 1
    return removed


def brute_b_value(inst, proc, guess):
    """b_i: after Step 1 (keep smallest large), min removals so total <= guess."""
    jobs = inst.jobs_on(proc)
    smalls = [float(inst.sizes[j]) for j in jobs if inst.sizes[j] <= guess / 2]
    larges = sorted(
        float(inst.sizes[j]) for j in jobs if inst.sizes[j] > guess / 2
    )
    current = sorted(smalls + larges[:1], reverse=True)
    total = sum(current)
    removed = 0
    while total > guess + 1e-12:
        total -= current[removed]
        removed += 1
    return removed


class TestProcessorTables:
    def test_ascending_order(self):
        inst = make_instance(sizes=[5, 1, 3], initial=[0, 0, 0], num_processors=1)
        tables = build_tables(inst)
        assert tables.processors[0].sizes_asc.tolist() == [1.0, 3.0, 5.0]
        assert tables.processors[0].prefix.tolist() == [0.0, 1.0, 4.0, 9.0]

    def test_small_count(self):
        inst = make_instance(sizes=[5, 1, 3], initial=[0, 0, 0], num_processors=1)
        proc = build_tables(inst).processors[0]
        assert proc.small_count(10.0) == 3  # threshold 5: all small
        assert proc.small_count(6.0) == 2  # threshold 3: 5 is large
        assert proc.small_count(2.0) == 1  # threshold 1: only job 1 small

    def test_empty_processor(self):
        inst = make_instance(sizes=[1.0], initial=[0], num_processors=3)
        tables = build_tables(inst)
        assert tables.processors[2].num_jobs == 0
        assert tables.processors[2].a_value(1.0) == 0
        assert tables.processors[2].b_value(1.0) == 0

    def test_total_large(self):
        inst = make_instance(sizes=[5, 1, 3], initial=[0, 0, 0], num_processors=1)
        tables = build_tables(inst)
        assert tables.total_large(10.0) == 0
        assert tables.total_large(6.0) == 1
        assert tables.total_large(1.0) == 3

    @settings(max_examples=50, deadline=None)
    @given(small_instances(max_jobs=8, max_processors=3))
    def test_a_b_match_definitions(self, inst):
        tables = build_tables(inst)
        for guess in candidate_guesses(tables):
            for p in range(inst.num_processors):
                proc = tables.processors[p]
                assert proc.a_value(guess) == brute_a_value(inst, p, guess)
                assert proc.b_value(guess) == brute_b_value(inst, p, guess)


@st.composite
def grouping_cases(draw):
    """Integer sizes 1-4 (many ties), ``n`` from 0 and ``m`` up to
    twice ``n`` (empty processors)."""
    n = draw(st.integers(min_value=0, max_value=30))
    m = draw(st.integers(min_value=1, max_value=2 * n + 2))
    sizes = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    initial = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return make_instance(sizes=sizes, initial=initial, num_processors=m)


def reference_tables(inst):
    """Each processor's jobs by Python ``sorted`` on ``(size, index)``,
    with that bucket's own ``cumsum``."""
    buckets = []
    for p in range(inst.num_processors):
        jobs = sorted(
            (j for j in range(inst.num_jobs) if inst.initial[j] == p),
            key=lambda j: (float(inst.sizes[j]), j),
        )
        jobs_asc = np.array(jobs, dtype=np.int64)
        sizes_asc = inst.sizes[jobs_asc]
        prefix = np.concatenate(([0.0], np.cumsum(sizes_asc)))
        buckets.append((jobs_asc, sizes_asc, prefix))
    return buckets


def _calls_during(fn):
    """Python and C function calls made while ``fn`` runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


class TestGrouping:
    @settings(max_examples=200, deadline=None)
    @given(grouping_cases())
    @example(make_instance(sizes=[], initial=[], num_processors=3))
    @example(make_instance(sizes=[2, 1, 2], initial=[4, 4, 0], num_processors=9))
    def test_matches_python_sorted_reference(self, inst):
        tables = build_tables(inst)
        assert len(tables.processors) == inst.num_processors
        for proc, ref in zip(tables.processors, reference_tables(inst)):
            got = (proc.jobs_asc, proc.sizes_asc, proc.prefix)
            assert [a.dtype for a in got] == [np.int64, np.float64, np.float64]
            for a, e in zip(got, ref):
                assert a.shape == e.shape and a.tobytes() == e.tobytes()

    def test_no_per_job_python_calls(self):
        """A full build makes the same calls at n = 10^3 and 10^4:
        nothing in it runs once per job."""
        rng = np.random.default_rng(7)
        counts = []
        for n in (1_000, 10_000):
            inst = make_instance(
                sizes=rng.integers(1, 100, n).astype(float),
                initial=rng.integers(0, 16, n),
                num_processors=16,
            )
            counts.append(_calls_during(lambda: build_tables(inst)))
        assert counts[0] == counts[1]


class TestCandidateGuesses:
    def test_sorted_unique(self):
        inst = make_instance(
            sizes=[2, 2, 4], initial=[0, 0, 1], num_processors=2
        )
        cands = candidate_guesses(build_tables(inst))
        assert np.all(np.diff(cands) > 0)

    def test_includes_doubled_sizes(self):
        inst = make_instance(sizes=[3, 7], initial=[0, 1], num_processors=2)
        cands = set(candidate_guesses(build_tables(inst)).tolist())
        assert {6.0, 14.0} <= cands

    def test_includes_prefix_sums(self):
        inst = make_instance(sizes=[3, 7], initial=[0, 0], num_processors=1)
        cands = set(candidate_guesses(build_tables(inst)).tolist())
        assert {3.0, 10.0, 20.0} <= cands

    @settings(max_examples=30, deadline=None)
    @given(small_instances(max_jobs=6, max_processors=3))
    def test_piecewise_constant_between_thresholds(self, inst):
        """Lemma 5: (L_T, a_i, b_i) is constant strictly between
        consecutive threshold values."""
        tables = build_tables(inst)
        cands = candidate_guesses(tables)
        for lo, hi in zip(cands, cands[1:]):
            if hi - lo < 1e-9 * max(1.0, hi):
                continue  # interval too thin for distinct float probes
            probes = np.linspace(lo, hi, 5)[1:-1]  # interior points
            signatures = set()
            for guess in [float(lo)] + [float(x) for x in probes]:
                sig = (
                    tables.total_large(guess),
                    tuple(p.a_value(guess) for p in tables.processors),
                    tuple(p.b_value(guess) for p in tables.processors),
                )
                signatures.add(sig)
            assert len(signatures) == 1, (
                f"values changed inside ({lo}, {hi}): {signatures}"
            )


@st.composite
def tie_heavy_cases(draw):
    """Instances that stress Lemma M: integer sizes 1-4 (many tied
    thresholds), every job on one processor, ``m = 1`` and ``k = 0``."""
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.one_of(st.just(1), st.integers(min_value=1, max_value=5)))
    sizes = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    if draw(st.booleans()):
        initial = [draw(st.integers(0, m - 1))] * n
    else:
        initial = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    k = draw(st.one_of(st.just(0), st.integers(min_value=0, max_value=n)))
    return make_instance(sizes=sizes, initial=initial, num_processors=m), k


@st.composite
def float_cases(draw):
    """Float sizes whose prefix sums round, with repeated values."""
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=1, max_value=4))
    pool = draw(st.lists(
        st.floats(min_value=1e-3, max_value=1e3, allow_nan=False),
        min_size=1, max_size=4,
    ))
    sizes = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    initial = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    k = draw(st.integers(min_value=0, max_value=n))
    return make_instance(sizes=sizes, initial=initial, num_processors=m), k


def assert_stop_monotone(inst, k):
    """Lemma M over *every* threshold, not only those past the scan
    start: feasibility never turns off again as the guess grows, and
    ``k-hat`` never grows across feasible guesses — so the stop
    predicate is monotone and bisection finds the rescan's stop."""
    tables = build_tables(inst)
    evs = [evaluate_guess(tables, float(g)) for g in candidate_guesses(tables)]
    feasible = [ev.feasible for ev in evs]
    assert feasible == sorted(feasible)
    planned = [ev.planned_moves for ev in evs if ev.feasible]
    assert planned == sorted(planned, reverse=True)
    stops = [ev.feasible and ev.planned_moves <= k for ev in evs]
    assert stops == sorted(stops)


class TestStopMonotone:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_cases())
    def test_monotone_with_ties(self, case):
        assert_stop_monotone(*case)

    @settings(max_examples=150, deadline=None)
    @given(float_cases())
    def test_monotone_with_float_rounding(self, case):
        assert_stop_monotone(*case)
