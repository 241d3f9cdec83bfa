"""Threshold enumeration for M-PARTITION (Section 3.1, Lemma 5).

PARTITION needs to classify jobs as large (size strictly greater than
``OPT/2``) and to compute, per processor ``i``,

* ``a_i`` — the minimum number of small jobs to remove so that the
  remaining small jobs total at most ``OPT/2``;
* ``b_i`` — the minimum number of jobs (including the kept large job,
  if any) to remove so that the remaining jobs total at most ``OPT``.

As the guess ``A`` for ``OPT`` increases, these quantities change only
when ``A`` crosses one of a discrete set of *threshold values*
(Lemma 5):

* ``2 * p_j`` for every job ``j`` — where the large/small status of
  job ``j`` flips (large iff ``p_j > A/2``, i.e. iff ``A < 2 p_j``);
* the prefix sums ``P_{i,l}`` of each processor's jobs sorted in
  increasing size order — where ``b_i`` decrements (keeping the ``l``
  smallest jobs is feasible iff ``P_{i,l} <= A``);
* twice those prefix sums — where ``a_i`` decrements (keeping the
  ``l`` smallest small jobs is feasible iff ``P_{i,l} <= A/2``).

Because the small jobs on a processor are always a *prefix* of its
ascending size order, the prefix sums of the all-jobs ascending order
cover every small-set prefix sum for every classification regime, so
the union above is a complete threshold set.

M-PARTITION stops at the first threshold at or above its starting guess
where the plan is feasible (``L_T <= m``) and needs at most ``k``
moves.  Both conditions are monotone in the guess (DESIGN.md, Lemma M),
so :func:`search_stop` finds that threshold by galloping and bisecting
over guess *values*, evaluating every processor at a batch of guesses
in ``O(m log n)`` (:func:`evaluate_guesses`), and materializes only the
thresholds between the start guess and the final bracket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assignment import InvariantError
from .instance import Instance

__all__ = [
    "GuessBatch",
    "ProcessorTable",
    "ThresholdStop",
    "ThresholdTables",
    "build_tables",
    "candidate_guesses",
    "evaluate_guesses",
    "patch_tables",
    "patch_tables_hint",
    "scan_start",
    "search_stop",
]


@dataclass(frozen=True)
class ProcessorTable:
    """Precomputed per-processor data for guess evaluation.

    Attributes
    ----------
    jobs_asc:
        Job indices on this processor, sorted ascending by
        ``(size, index)``.
    sizes_asc:
        The corresponding sizes (ascending).
    prefix:
        ``prefix[l]`` = total size of the ``l`` smallest jobs
        (``prefix[0] == 0.0``).
    """

    jobs_asc: np.ndarray
    sizes_asc: np.ndarray
    prefix: np.ndarray

    @property
    def num_jobs(self) -> int:
        return int(self.sizes_asc.shape[0])

    def small_count(self, guess: float) -> int:
        """Number of jobs of size at most ``guess / 2`` (the smalls)."""
        return int(np.searchsorted(self.sizes_asc, guess / 2.0, side="right"))

    def a_value(self, guess: float) -> int:
        """``a_i``: removals so the remaining smalls total <= guess/2.

        Removing the largest smalls first is optimal for minimizing the
        removal count, so ``a_i = s_cnt - max{l : P_l <= guess/2}``.
        """
        s_cnt = self.small_count(guess)
        keep = int(
            np.searchsorted(self.prefix[: s_cnt + 1], guess / 2.0, side="right") - 1
        )
        return s_cnt - keep

    def b_value(self, guess: float) -> int:
        """``b_i``: removals so the remaining jobs total <= guess.

        Computed on the *post-Step-1* configuration: all small jobs plus
        the smallest large job (if any) — which is exactly the first
        ``min(s_cnt + 1, n_i)`` jobs in ascending order.
        """
        s_cnt = self.small_count(guess)
        q = self.num_jobs if s_cnt == self.num_jobs else s_cnt + 1
        keep = int(np.searchsorted(self.prefix[: q + 1], guess, side="right") - 1)
        return q - keep

    def has_large(self, guess: float) -> bool:
        """True if the processor initially holds at least one large job."""
        return self.small_count(guess) < self.num_jobs


@dataclass(frozen=True)
class ThresholdTables:
    """All precomputed data needed to evaluate guesses quickly."""

    instance: Instance
    processors: tuple[ProcessorTable, ...]

    def total_large(self, guess: float) -> int:
        """``L_T``: total number of large jobs at this guess, summed
        over the per-processor large counts."""
        return sum(p.num_jobs - p.small_count(guess) for p in self.processors)


def _group(
    instance: Instance, jobs: np.ndarray, procs: np.ndarray
) -> list[ProcessorTable]:
    """Fresh tables for the processors ``procs`` (ascending), built
    from ``jobs``, which must hold every job placed on them.

    One lexsort groups the jobs by ``(processor, size, index)`` and one
    ``searchsorted`` over the processor boundaries cuts the sorted run
    into per-processor slices.  Each prefix is its bucket's own
    ``cumsum``: a global cumsum minus offsets would round differently.
    """
    placed = instance.initial[jobs]
    order = np.lexsort((jobs, instance.sizes[jobs], placed))
    jobs_sorted = jobs[order]
    sizes_sorted = instance.sizes[jobs_sorted]
    starts, ends = np.searchsorted(placed[order], (procs, procs + 1))
    return [
        ProcessorTable(
            jobs_asc=jobs_sorted[lo:hi],
            sizes_asc=sizes_sorted[lo:hi],
            prefix=np.concatenate(([0.0], np.cumsum(sizes_sorted[lo:hi]))),
        )
        for lo, hi in zip(starts.tolist(), ends.tolist())
    ]


def build_tables(instance: Instance) -> ThresholdTables:
    """Sort each processor's jobs and build prefix sums.

    ``O(n log n)`` total, matching the first-run cost in Theorem 3: one
    grouping sort over all jobs (:func:`_group`).
    """
    processors = _group(
        instance,
        np.arange(instance.num_jobs, dtype=np.int64),
        np.arange(instance.num_processors, dtype=np.int64),
    )
    return ThresholdTables(instance=instance, processors=tuple(processors))


def patch_tables(
    tables: ThresholdTables, instance: Instance
) -> tuple[ThresholdTables, int]:
    """Tables valid for ``instance``, reusing unchanged processor buckets.

    Compares ``instance`` against ``tables.instance`` job by job; only
    the processors that gained, lost or resized a job get their
    ascending order and prefix sums rebuilt, by the same grouping sort
    :func:`build_tables` runs over all jobs, here over the affected
    buckets' jobs only — ``O(a log a)`` for ``a`` affected jobs, plus
    ``O(n)`` numpy passes for the diff masks.

    Returns ``(new_tables, buckets_patched)``.  Falls back to a full
    :func:`build_tables` (returning ``buckets_patched == -1``) when the
    job count or processor count differs, since no per-bucket diff is
    meaningful then.
    """
    old = tables.instance
    if (
        old.num_jobs != instance.num_jobs
        or old.num_processors != instance.num_processors
    ):
        return build_tables(instance), -1
    size_changed = old.sizes != instance.sizes
    moved = old.initial != instance.initial
    changed_jobs = size_changed | moved
    if not changed_jobs.any():
        if old is instance:
            return tables, 0
        return ThresholdTables(instance=instance, processors=tables.processors), 0
    changed_procs = np.unique(
        np.concatenate(
            (old.initial[changed_jobs], instance.initial[changed_jobs])
        )
    )
    affected_mask = np.zeros(instance.num_processors, dtype=bool)
    affected_mask[changed_procs] = True
    affected_jobs = np.flatnonzero(affected_mask[instance.initial])
    processors = list(tables.processors)
    for p, table in zip(
        changed_procs.tolist(), _group(instance, affected_jobs, changed_procs)
    ):
        processors[p] = table
    return (
        ThresholdTables(instance=instance, processors=tuple(processors)),
        int(changed_procs.shape[0]),
    )


def patch_tables_hint(
    tables: ThresholdTables,
    instance: Instance,
    idx: np.ndarray,
    old_initial: np.ndarray,
) -> tuple[ThresholdTables, np.ndarray]:
    """Patch tables from an *explicit* churn set, without diffing arrays.

    The O(churn) server path mutates each shard's resident arrays in
    place, so ``tables.instance`` may alias ``instance`` and a value
    diff (:func:`patch_tables`) is meaningless.  Instead the caller
    names the changed jobs: ``idx`` (unique, ascending) are the job
    indices whose size, cost, or placement changed since the tables
    were last valid, and ``old_initial`` their placements *at that
    time*.  New values are read from ``instance``.

    Each affected bucket is rebuilt by a sorted merge — drop the
    changed jobs (O(bucket)), insert the arrivals at their
    ``(size, index)`` positions (O(arrivals · log bucket) plus one
    O(bucket) ``np.insert``), recompute the prefix sums — so the cost is
    ``O(changed_buckets · bucket_size)``, all memcpy-grade numpy passes,
    with no sort over the bucket.  The resulting buckets are
    byte-identical to a :func:`build_tables` rebuild (enforced by
    differential tests).

    Returns ``(new_tables, changed_procs)`` with the affected processor
    indices.
    """
    n = instance.num_jobs
    if idx.shape[0] == 0:
        if tables.instance is instance:
            return tables, idx
        return ThresholdTables(instance=instance, processors=tables.processors), idx
    new_initial = instance.initial[idx]
    changed_procs = np.unique(np.concatenate((old_initial, new_initial)))
    # Arrivals grouped by destination bucket in (size, index) order —
    # the exact per-bucket order build_tables produces.
    sizes_new = instance.sizes[idx]
    order = np.lexsort((idx, sizes_new, new_initial))
    arr_jobs = idx[order]
    arr_sizes = sizes_new[order]
    arr_procs = new_initial[order]
    starts = np.searchsorted(arr_procs, changed_procs, side="left")
    ends = np.searchsorted(arr_procs, changed_procs, side="right")
    changed_flags = np.zeros(n, dtype=bool)
    changed_flags[idx] = True
    processors = list(tables.processors)
    for p, lo, hi in zip(changed_procs, starts, ends):
        old_pt = processors[int(p)]
        if old_pt.num_jobs:
            drop = changed_flags[old_pt.jobs_asc]
            kept_jobs = old_pt.jobs_asc[~drop]
            kept_sizes = old_pt.sizes_asc[~drop]
        else:
            kept_jobs = old_pt.jobs_asc
            kept_sizes = old_pt.sizes_asc
        a_jobs = arr_jobs[lo:hi]
        if a_jobs.size:
            a_sizes = arr_sizes[lo:hi]
            ins = np.searchsorted(kept_sizes, a_sizes, side="left")
            kn = int(kept_jobs.shape[0])
            for t in range(int(a_jobs.shape[0])):
                # Advance within the equal-size run so ties land in
                # (size, index) order against the kept jobs.
                pos = int(ins[t])
                s = a_sizes[t]
                j = a_jobs[t]
                while pos < kn and kept_sizes[pos] == s and kept_jobs[pos] < j:
                    pos += 1
                ins[t] = pos
            jobs_asc = _scatter_insert(kept_jobs, a_jobs, ins)
            sizes_asc = _scatter_insert(kept_sizes, a_sizes, ins)
        else:
            jobs_asc = kept_jobs
            sizes_asc = kept_sizes
        prefix = np.concatenate(([0.0], np.cumsum(sizes_asc)))
        processors[int(p)] = ProcessorTable(
            jobs_asc=jobs_asc, sizes_asc=sizes_asc, prefix=prefix
        )
    return (
        ThresholdTables(instance=instance, processors=tuple(processors)),
        changed_procs,
    )


def _scatter_insert(
    a_jobs: np.ndarray, b_jobs: np.ndarray, ins: np.ndarray
) -> np.ndarray:
    """``np.insert(a, ins, b)`` for sorted position arrays, hand-rolled.

    ``np.insert`` carries enough Python-level overhead (argument
    normalization, index fixups) to dominate the per-bucket patch cost;
    this is the same scatter in four numpy passes.  ``ins`` must be
    non-decreasing positions into ``a``.
    """
    out = np.empty(a_jobs.shape[0] + b_jobs.shape[0], dtype=a_jobs.dtype)
    b_pos = ins + np.arange(b_jobs.shape[0], dtype=np.int64)
    out[b_pos] = b_jobs
    mask = np.ones(out.shape[0], dtype=bool)
    mask[b_pos] = False
    out[mask] = a_jobs
    return out


def scan_start(candidates: np.ndarray, average_load: float) -> int:
    """Index of the largest threshold not exceeding ``average_load``.

    This is M-PARTITION's starting guess (Section 3.1: the average load
    never exceeds ``OPT``).  The result is clamped into
    ``[0, len(candidates) - 1]`` so the scan always starts on a real
    threshold: when every candidate exceeds the average the scan starts
    at the smallest one, and when the average exceeds every candidate
    (only possible through float round-off — the heaviest processor's
    full load is itself a candidate and bounds the average from above)
    the scan starts at the largest one instead of indexing past the end.
    :func:`search_stop` starts from the same threshold, so the rescan
    and the search stop at the same threshold by construction.
    """
    if candidates.shape[0] == 0:
        return 0
    start = int(np.searchsorted(candidates, average_load, side="right")) - 1
    return min(max(start, 0), int(candidates.shape[0]) - 1)


def candidate_guesses(tables: ThresholdTables) -> np.ndarray:
    """All threshold values for the guess ``A``, sorted ascending.

    Per Lemma 5 the tuple ``(L_T, a_1..a_m, b_1..b_m)`` is constant for
    ``A`` between consecutive values of this set, so M-PARTITION only
    ever needs to try these ``O(n)`` guesses.
    """
    parts: list[np.ndarray] = []
    for proc in tables.processors:
        if proc.num_jobs:
            parts.append(2.0 * proc.sizes_asc)
            parts.append(proc.prefix[1:])
            parts.append(2.0 * proc.prefix[1:])
    if not parts:
        return np.empty(0)
    return np.unique(np.concatenate(parts))


def _thresholds_between(tables: ThresholdTables, lo: float, hi: float) -> np.ndarray:
    """The distinct threshold values in ``(lo, hi]``, ascending.

    Doubling and halving are exact in binary floats, so the doubled
    streams slice against the undoubled arrays at the halved bounds and
    the values are bit-identical to :func:`candidate_guesses`'.  Needs
    ``lo >= 0`` (``prefix[0] == 0`` is not a threshold).
    """
    parts = []
    for proc in tables.processors:
        if not proc.num_jobs:
            continue
        pre, sa = proc.prefix, proc.sizes_asc
        l1, h1, l2, h2 = np.searchsorted(pre, (lo, hi, lo / 2.0, hi / 2.0), side="right")
        l3, h3 = np.searchsorted(sa, (lo / 2.0, hi / 2.0), side="right")
        parts.extend((pre[l1:h1], 2.0 * pre[l2:h2], 2.0 * sa[l3:h3]))
    return np.unique(np.concatenate(parts))


@dataclass(frozen=True)
class GuessBatch:
    """PARTITION's per-processor values at a batch of guesses.

    ``a``, ``b`` and ``large`` are ``(m, G)`` arrays: column ``j`` holds
    every processor's ``a_i``, ``b_i`` and large-job count at
    ``guesses[j]``.  ``planned`` is ``k-hat`` per guess (meaningless
    where not ``feasible``), and ``rank[j]`` counts the threshold values
    at most ``guesses[j]`` over all processors, duplicates included.
    """

    a: np.ndarray
    b: np.ndarray
    large: np.ndarray
    feasible: np.ndarray
    planned: np.ndarray
    rank: np.ndarray

    def stops(self, k: int) -> np.ndarray:
        """M-PARTITION's stop predicate per guess."""
        return self.feasible & (self.planned <= k)


def evaluate_guesses(tables: ThresholdTables, guesses: np.ndarray) -> GuessBatch:
    """:func:`repro.core.partition.evaluate_guess`'s ``(a, b, L_T)`` and
    planned move count for every guess of ``guesses`` at once.

    Per processor this is two ``searchsorted`` calls over the whole
    batch: the prefix-slice caps of
    :class:`ProcessorTable`'s accessors become ``np.minimum`` against
    the full-array search, which is equivalent because the prefix sums
    ascend.  ``k-hat = L_E + sum_i b_i + (sum of the L_T smallest c_i)``
    — the Step-3 selection total, which tie-breaking cannot change —
    comes from one sort of the ``(G, m)`` matrix of ``c = a - b``.
    """
    procs = tables.processors
    m = len(procs)
    count = guesses.shape[0]
    half = guesses / 2.0
    half_and_full = np.concatenate((half, guesses))
    # keeps rows default to 1 (-> 0 after the global -1): the correct
    # "keep nothing past P_0" value for empty processors.
    keeps = np.ones((m, 2 * count), dtype=np.int64)
    small = np.zeros((m, count), dtype=np.int64)
    njobs = np.zeros((m, 1), dtype=np.int64)
    for i, proc in enumerate(procs):
        if proc.num_jobs:
            njobs[i, 0] = proc.num_jobs
            keeps[i] = np.searchsorted(proc.prefix, half_and_full, side="right")
            small[i] = np.searchsorted(proc.sizes_asc, half, side="right")
    keeps -= 1
    keep_half, keep_full = keeps[:, :count], keeps[:, count:]
    a = small - np.minimum(keep_half, small)
    q = np.where(small == njobs, njobs, small + 1)
    b = q - np.minimum(keep_full, q)
    large = njobs - small
    total_large = large.sum(axis=0)
    csum = np.cumsum(np.sort((a - b).T, axis=1), axis=1)
    lt = np.minimum(total_large, m)
    smallest = np.where(lt > 0, csum[np.arange(count), np.maximum(lt, 1) - 1], 0)
    return GuessBatch(
        a=a,
        b=b,
        large=large,
        feasible=total_large <= m,
        planned=total_large - (large > 0).sum(axis=0) + b.sum(axis=0) + smallest,
        rank=(keep_half + keep_full + small).sum(axis=0),
    )


@dataclass(frozen=True)
class ThresholdStop:
    """Where M-PARTITION stops: the guess, the rescan's
    ``thresholds_tried`` (distinct thresholds from the start guess up
    to and including the stop), ``k-hat``, and every processor's
    ``a_i``, ``b_i`` and large-job count there."""

    guess: float
    tried: int
    k_hat: int
    a: np.ndarray
    b: np.ndarray
    large: np.ndarray


_PROBES = 64  # guesses evaluated per search round
_WINDOW = _PROBES * _PROBES  # materialize a bracket holding this few thresholds


def _start_guess(tables: ThresholdTables, average_load: float) -> float:
    """:func:`scan_start`'s threshold, found per processor in
    ``O(m log n)``: the largest threshold at most ``average_load``, or
    the smallest threshold (the smallest job) when none is."""
    best = -np.inf
    smallest = np.inf
    half = average_load / 2.0
    for proc in tables.processors:
        if not proc.num_jobs:
            continue
        pre, sa = proc.prefix, proc.sizes_asc
        full_at, half_at = np.searchsorted(pre, (average_load, half), side="right") - 1
        small_at = int(np.searchsorted(sa, half, side="right"))
        if full_at:
            best = max(best, float(pre[full_at]))
        if half_at:
            best = max(best, 2.0 * float(pre[half_at]))
        if small_at:
            best = max(best, 2.0 * float(sa[small_at - 1]))
        smallest = min(smallest, float(sa[0]))
    return best if best > -np.inf else smallest


def search_stop(tables: ThresholdTables, k: int, average_load: float) -> ThresholdStop:
    """The first threshold at or above :func:`scan_start`'s guess where
    the plan is feasible and needs at most ``k`` moves.

    The stop predicate is monotone in the guess (DESIGN.md, Lemma M)
    and constant between consecutive thresholds (Lemma 5), so the
    search evaluates it at non-threshold guesses too.  It gallops up
    from the start guess on a geometric grid, bisects the bracket on
    uniform grids of :data:`_PROBES` guesses until at most
    :data:`_WINDOW` threshold values (counted with duplicates) remain,
    then materializes the distinct thresholds from the start guess to
    the bracket's top and bisects over those inside the bracket to the
    exact stop, whose position there is the rescan's
    ``thresholds_tried``.  Each round is one :func:`evaluate_guesses`
    call, ``O(m log n)``.  The instance must have at least one job.
    """
    start = _start_guess(tables, average_load)
    batch = evaluate_guesses(tables, np.array([start]))
    if batch.stops(k)[0]:
        return _stop_at(batch, 0, start, 1)
    # Invariant: the stop is in (lo, hi]; rank_* count thresholds <= lo/hi.
    # At twice the heaviest load every job is small and nothing moves.
    lo, rank_lo = start, int(batch.rank[0])
    hi = 2.0 * max(float(p.prefix[-1]) for p in tables.processors)
    rank_hi = 3 * tables.instance.num_jobs
    grid = lo + (hi - lo) * np.exp2(-np.arange(_PROBES - 1, -1, -1.0))
    while rank_hi - rank_lo > _WINDOW:
        grid = np.unique(grid[(grid > lo) & (grid < hi)])
        if not grid.shape[0]:
            break  # (lo, hi) holds no float: one threshold value remains
        batch = evaluate_guesses(tables, grid)
        stops = batch.stops(k)
        j = int(np.argmax(stops)) if stops.any() else grid.shape[0]
        if j < grid.shape[0]:
            hi, rank_hi = float(grid[j]), int(batch.rank[j])
        if j:
            lo, rank_lo = float(grid[j - 1]), int(batch.rank[j - 1])
        grid = lo + (hi - lo) * np.arange(1, _PROBES + 1) / (_PROBES + 1)
    # Materialize (start, hi] and bisect over its thresholds past lo,
    # which are known to fail; the last one always stops (it shares
    # its values with ``hi``).  A stop at index i was the (i + 2)-th
    # threshold the rescan tried.
    window = _thresholds_between(tables, start, hi)
    first, end = int(np.searchsorted(window, lo, side="right")), window.shape[0]
    while True:
        picks = np.linspace(first, end - 1, min(_PROBES, end - first))
        picks = picks.round().astype(np.int64)
        batch = evaluate_guesses(tables, window[picks])
        stops = batch.stops(k)
        if not stops[-1]:
            raise InvariantError(f"no stop at threshold {window[picks[-1]]}")
        j = int(np.argmax(stops))
        first = int(picks[j - 1]) + 1 if j else first
        if first == picks[j]:
            return _stop_at(batch, j, float(window[first]), first + 2)
        end = int(picks[j]) + 1


def _stop_at(batch: GuessBatch, j: int, guess: float, tried: int) -> ThresholdStop:
    return ThresholdStop(
        guess=guess,
        tried=tried,
        k_hat=int(batch.planned[j]),
        a=np.ascontiguousarray(batch.a[:, j]),
        b=np.ascontiguousarray(batch.b[:, j]),
        large=np.ascontiguousarray(batch.large[:, j]),
    )
