"""PARTITION and M-PARTITION — the 1.5-approximation (Section 3).

``PARTITION`` (Theorem 2) takes the value of ``OPT`` as input and
produces an assignment with makespan at most ``1.5 * OPT`` using no more
job removals than any optimal algorithm uses relocations.

``M-PARTITION`` (Section 3.1, Theorem 3) removes the ``OPT``-oracle
assumption: the tuple ``(L_T, a_i, b_i)`` changes only at the ``O(n)``
threshold values enumerated by :mod:`repro.core.thresholds`, so it scans
those guesses in increasing order and stops at the first guess whose
planned move count is within the budget ``k``.  Lemma 6 shows the
stopping guess never exceeds the true ``OPT``, which preserves the
``1.5``-approximation.

Terminology (Definition 1 of Section 3, with guess ``A``):

* a job is *large* iff its size is strictly greater than ``A / 2``;
* ``L_T`` = total number of large jobs, ``m_L`` = number of processors
  initially holding at least one large job, ``L_E = L_T - m_L``;
* a processor is *large-free* if it currently holds no large job.

The algorithm's phases:

1. On every processor with several large jobs, keep only the smallest
   large job (``L_E`` removals).
2. Compute ``a_i``, ``b_i``, ``c_i = a_i - b_i`` per processor.
3. Select the ``L_T`` processors of smallest ``c_i`` (ties prefer
   processors holding a large job) and remove their ``a_i`` largest
   small jobs, leaving small load at most ``A / 2``.
4. On every unselected processor remove the ``b_i`` largest jobs
   (largest-first removal takes the kept large job first), leaving load
   at most ``A`` and no large jobs; route the removed large jobs to
   distinct large-free selected processors.
5. Route the Step-1 large jobs to the remaining large-free selected
   processors.
6. Greedily place the removed small jobs, each on the current
   minimum-load processor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .. import telemetry
from .assignment import Assignment, InvariantError
from .instance import Instance
from .result import RebalanceResult
from .thresholds import ThresholdTables, build_tables, candidate_guesses, scan_start

__all__ = [
    "GuessEvaluation",
    "evaluate_guess",
    "partition_rebalance",
    "m_partition_rebalance",
]


@dataclass(frozen=True)
class GuessEvaluation:
    """Everything PARTITION derives from a guess ``A`` before moving jobs."""

    guess: float
    feasible: bool
    total_large: int  # L_T
    large_processors: int  # m_L
    extra_large: int  # L_E
    a_values: np.ndarray
    b_values: np.ndarray
    c_values: np.ndarray
    planned_moves: int  # \hat{k} = L_E + sum(selected a) + sum(unselected b)
    selected: np.ndarray  # processor indices chosen in Step 3


def _finalize_evaluation(
    guess: float,
    total_large: int,
    a: np.ndarray,
    b: np.ndarray,
    has_large: np.ndarray,
) -> GuessEvaluation:
    """Turn per-processor ``(a, b, has_large)`` values into the Step-3
    selection and planned move count.

    Shared by the scalar per-processor path (:func:`evaluate_guess`) and
    the engine, which finalizes the column
    :func:`~repro.core.thresholds.search_stop` returns, so both apply
    the identical tie-breaking rule and produce byte-identical
    evaluations.
    """
    m = int(a.shape[0])
    c = a - b
    large_processors = int(has_large.sum())
    extra_large = total_large - large_processors

    if total_large > m:
        return GuessEvaluation(
            guess=guess,
            feasible=False,
            total_large=total_large,
            large_processors=large_processors,
            extra_large=extra_large,
            a_values=a,
            b_values=b,
            c_values=c,
            planned_moves=np.iinfo(np.int64).max,
            selected=np.empty(0, dtype=np.int64),
        )

    # Step 3 selection: L_T smallest c_i, ties prefer large processors,
    # then lowest index (determinism).
    order = np.lexsort((np.arange(m), ~has_large, c))
    selected = np.sort(order[:total_large])
    sel_mask = np.zeros(m, dtype=bool)
    sel_mask[selected] = True
    planned = extra_large + int(a[sel_mask].sum()) + int(b[~sel_mask].sum())
    return GuessEvaluation(
        guess=guess,
        feasible=True,
        total_large=total_large,
        large_processors=large_processors,
        extra_large=extra_large,
        a_values=a,
        b_values=b,
        c_values=c,
        planned_moves=planned,
        selected=selected,
    )


def evaluate_guess(tables: ThresholdTables, guess: float) -> GuessEvaluation:
    """Compute ``(L_T, a, b, c)``, the Step-3 selection and the planned
    move count for one guess, without constructing the assignment.

    A guess is infeasible when ``L_T > m`` (more large jobs than
    processors; no half-optimal configuration exists at this guess).
    """
    m = len(tables.processors)
    total_large = tables.total_large(guess)
    a = np.empty(m, dtype=np.int64)
    b = np.empty(m, dtype=np.int64)
    has_large = np.empty(m, dtype=bool)
    for i, proc in enumerate(tables.processors):
        a[i] = proc.a_value(guess)
        b[i] = proc.b_value(guess)
        has_large[i] = proc.has_large(guess)
    return _finalize_evaluation(guess, total_large, a, b, has_large)


def _construct(
    instance: Instance, tables: ThresholdTables, ev: GuessEvaluation
) -> Assignment:
    """Execute Steps 1 and 3–6 for an evaluated (feasible) guess."""
    if not ev.feasible:
        raise ValueError(f"guess {ev.guess} is infeasible (L_T > m)")
    guess = ev.guess
    m = instance.num_processors
    mapping = np.array(instance.initial, dtype=np.int64)
    # Per-processor totals already exist as the bucket prefix sums'
    # last entries — O(m), versus the O(n) scatter-add behind
    # ``instance.initial_loads``.
    loads = np.fromiter(
        (float(proc.prefix[-1]) for proc in tables.processors),
        dtype=np.float64, count=m,
    )
    sel_mask = np.zeros(m, dtype=bool)
    sel_mask[ev.selected] = True

    floating_large: list[int] = []  # removed large jobs awaiting a home
    removed_small: list[int] = []  # removed small jobs for Step 6
    selected_has_large = np.zeros(m, dtype=bool)

    for i, proc in enumerate(tables.processors):
        s_cnt = proc.small_count(guess)
        smalls = proc.jobs_asc[:s_cnt]
        larges = proc.jobs_asc[s_cnt:]
        # Step 1: keep only the smallest large job.
        for j in larges[1:]:
            floating_large.append(int(j))
            loads[i] -= instance.sizes[j]
        kept_large = int(larges[0]) if larges.size else None

        if sel_mask[i]:
            # Step 3: shed the a_i largest smalls; the large job stays.
            a_i = int(ev.a_values[i])
            for j in smalls[s_cnt - a_i :]:
                removed_small.append(int(j))
                loads[i] -= instance.sizes[j]
            selected_has_large[i] = kept_large is not None
        else:
            # Step 4: shed the b_i largest jobs of the current
            # configuration (smalls + kept large).  Largest-first
            # removal takes the kept large job first when b_i >= 1.
            b_i = int(ev.b_values[i])
            if kept_large is not None:
                # A large processor with b_i == 0 is always selected
                # (it has a_i == 0 hence c_i == 0, and the tie-break
                # prefers large processors), so here b_i >= 1.
                if b_i < 1:
                    raise InvariantError("unselected large processor with b_i == 0")
                floating_large.append(kept_large)
                loads[i] -= instance.sizes[kept_large]
                b_i -= 1
            for j in smalls[s_cnt - b_i :] if b_i else smalls[:0]:
                removed_small.append(int(j))
                loads[i] -= instance.sizes[j]

    # Steps 4b/5: route floating large jobs to distinct large-free
    # selected processors.  The counting identity L_E + (m_L - s_L) ==
    # L_T - s_L guarantees an exact fit.
    large_free_selected = [int(i) for i in ev.selected if not selected_has_large[i]]
    if len(floating_large) != len(large_free_selected):
        raise InvariantError(
            f"{len(floating_large)} floating large jobs vs "
            f"{len(large_free_selected)} large-free selected processors"
        )
    for j, i in zip(floating_large, large_free_selected):
        mapping[j] = i
        loads[i] += instance.sizes[j]
    touched = list(floating_large)

    # Step 6: greedy min-load placement of removed small jobs.  The
    # paper allows any order; descending size (Graham/LPT style) is the
    # strongest in practice and satisfies the same bound.  Heap entries
    # carry a per-processor version counter so staleness detection does
    # not depend on float round-trip identity.
    removed_small.sort(key=lambda j: (-instance.sizes[j], j))
    version = [0] * m
    heap = [(float(loads[i]), 0, i) for i in range(m)]
    heapq.heapify(heap)
    heap_pops = 0
    for j in removed_small:
        _, ver, i = heapq.heappop(heap)
        heap_pops += 1
        while ver != version[i]:
            _, ver, i = heapq.heappop(heap)  # stale entry
            heap_pops += 1
        mapping[j] = i
        loads[i] += instance.sizes[j]
        version[i] += 1
        heapq.heappush(heap, (float(loads[i]), version[i], i))
    telemetry.count("heap_pops", heap_pops)

    # Only jobs touched above can differ from the initial assignment (a
    # removed job may be placed back on its origin at zero real cost),
    # so the actual-relocation set — and the exact loads maintained all
    # along — are known here in O(moves): hand both to ``Assignment``
    # to skip its O(n) copy/scatter-add accounting.
    touched.extend(removed_small)
    if touched:
        cand = np.unique(np.asarray(touched, dtype=np.int64))
        moved = cand[mapping[cand] != np.asarray(instance.initial)[cand]]
    else:
        moved = np.empty(0, dtype=np.int64)
    return Assignment(
        instance=instance, mapping=mapping, _loads=loads, _moved=moved
    )


def partition_rebalance(
    instance: Instance,
    opt: float,
    k: int | None = None,
    tables: ThresholdTables | None = None,
) -> RebalanceResult:
    """PARTITION with a known (or guessed) value ``opt`` for the optimum.

    Theorem 2: if ``opt`` is the true optimal makespan for budget ``k``,
    the result has makespan at most ``1.5 * opt`` and uses at most as
    many moves as the optimal solution (hence at most ``k``).

    Passing a guess ``opt`` *below* the true optimum is allowed as long
    as it is feasible (``L_T <= m``); the makespan bound then degrades
    gracefully to ``1.5 *`` the true optimum (Section 3.1's analysis),
    while a guess above the optimum weakens the bound to
    ``1.5 * opt``.

    Raises ``ValueError`` on an infeasible guess; raises
    ``ValueError`` when ``k`` is given and the plan needs more moves.
    """
    tmark = telemetry.mark()
    if tables is None:
        with telemetry.span("partition.build_tables"):
            tables = build_tables(instance)
    with telemetry.span("partition.evaluate"):
        ev = evaluate_guess(tables, opt)
    if not ev.feasible:
        raise ValueError(
            f"guess {opt} admits {ev.total_large} large jobs on "
            f"{instance.num_processors} processors; no half-optimal "
            "configuration exists"
        )
    if k is not None and ev.planned_moves > k:
        raise ValueError(
            f"PARTITION at guess {opt} plans {ev.planned_moves} moves, "
            f"exceeding the budget k={k}; raise the guess"
        )
    with telemetry.span("partition.construct"):
        assignment = _construct(instance, tables, ev)
    assignment.validate(max_moves=k)
    return RebalanceResult(
        assignment=assignment,
        algorithm="partition",
        guessed_opt=opt,
        planned_moves=ev.planned_moves,
        meta=telemetry.attach(
            {
                "L_T": ev.total_large,
                "m_L": ev.large_processors,
                "L_E": ev.extra_large,
            },
            tmark,
        ),
    )


def m_partition_rebalance(
    instance: Instance,
    k: int,
    tables: ThresholdTables | None = None,
) -> RebalanceResult:
    """M-PARTITION (Theorem 3): the 1.5-approximation without the oracle.

    Scans the Lemma-5 threshold values in increasing order, starting
    from the largest threshold not exceeding the average load (the
    paper's starting guess — the average load never exceeds ``OPT``),
    and returns the construction at the first feasible guess whose
    planned move count is at most ``k``.

    Lemma 6 guarantees the scan stops no later than the largest
    threshold below the true ``OPT`` (which plans no more moves than the
    optimal solution), so the final guess is at most ``OPT`` and the
    resulting makespan is at most ``1.5 * OPT``.

    ``tables`` may supply prebuilt threshold tables for ``instance``
    (e.g. tables patched across epochs by
    :class:`repro.core.engine.RebalanceEngine`); they must describe the
    same sizes and initial assignment.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    tmark = telemetry.mark()
    if tables is None:
        with telemetry.span("m_partition.build_tables"):
            tables = build_tables(instance)
    if instance.num_jobs == 0:
        return RebalanceResult(
            assignment=Assignment.initial(instance),
            algorithm="m-partition",
            guessed_opt=0.0,
            planned_moves=0,
        )
    candidates = candidate_guesses(tables)
    start = scan_start(candidates, instance.average_load)
    tried = 0
    stop_ev: GuessEvaluation | None = None
    with telemetry.span("m_partition.scan"):
        for idx in range(start, candidates.shape[0]):
            guess = float(candidates[idx])
            ev = evaluate_guess(tables, guess)
            tried += 1
            if ev.feasible and ev.planned_moves <= k:
                stop_ev = ev
                break
    telemetry.count("thresholds_tried", tried)
    if stop_ev is not None:
        ev = stop_ev
        with telemetry.span("m_partition.construct"):
            assignment = _construct(instance, tables, ev)
        assignment.validate(max_moves=k)
        return RebalanceResult(
            assignment=assignment,
            algorithm="m-partition",
            guessed_opt=ev.guess,
            planned_moves=ev.planned_moves,
            meta=telemetry.attach(
                {
                    "L_T": ev.total_large,
                    "m_L": ev.large_processors,
                    "L_E": ev.extra_large,
                    "thresholds_tried": tried,
                },
                tmark,
            ),
        )
    # Unreachable for well-formed instances: the largest threshold is
    # the full load of the heaviest processor, where no moves are
    # planned.  Kept as a safeguard.
    raise RuntimeError("no feasible threshold found")  # pragma: no cover
