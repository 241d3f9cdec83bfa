"""Resident shard arrays: the O(churn) request path of the server.

Before this module the server turned every delta frame back into a full
:class:`~repro.core.instance.Instance` (``apply_delta``'s three O(n)
copies) and re-hashed all three arrays (another O(n)) before a solve
could even be enqueued.  The engine underneath had already gone
O(churn); the service layer in front of it had not.

A :class:`ResidentShard` is the fix: the server keeps, per shard, one
*writable* copy of the snapshot arrays plus the rolling-fingerprint
state of :mod:`repro.core.rollhash`.  A delta frame whose ``base``
names the resident tip is then pure O(changed sites) work on the event
loop — gather the old values, scatter the new ones, roll the
fingerprint — and what travels to the solve side is a small
:class:`Frame`, not an instance.

Two residents exist per shard because the server has two planes:

* the **admission plane** (:class:`ResidentShard`) lives on the event
  loop and owns the tip fingerprint clients rebase on;
* the **solve plane** (:class:`SolveResident`) lives on the solve
  thread, or in the process worker that owns the shard, and replays
  committed frames — in commit order, possibly several per solve when
  earlier requests were answered from the response memo — onto its own
  arrays just before handing the engine a zero-copy
  :meth:`~repro.core.instance.Instance.trusted` view plus the
  accumulated churn hint.

The split means neither plane ever reads arrays the other is writing,
and a frame crossing a worker pipe needs only its sites and new values.
Frames ride the admitted request they were committed for (the
admission queue is FIFO and a batch lane solves in arrival order, so
the solve plane sees frames in exactly commit order); frames whose
request never got admitted — response-memo hits — wait in the shard's
``pending`` list and ride along with the next admitted request.  When
``pending`` would grow past :data:`FRAME_LOG_CAP` the admission plane
collapses it and schedules a full reinstall instead — an O(n) resync
is cheaper than an unbounded log, and the engine would fall back to a
full table rebuild at that churn level anyway.
"""

from __future__ import annotations

import numpy as np

from ..core.instance import Instance
from ..core.rollhash import RollingFingerprint, fingerprint_state

__all__ = ["FRAME_LOG_CAP", "Frame", "ResidentShard", "SolveResident"]

# Pending (committed but never shipped) frames per shard before the
# admission plane gives up on incremental sync and schedules a full
# reinstall of the solve plane.  Only reachable when requests are
# persistently memo-answered while churn keeps arriving.
FRAME_LOG_CAP = 256


class Frame:
    """One committed delta: the changed sites and both value sets.

    ``old_*`` are the values the sites held *before* this frame — the
    exact shape of the engine's churn hint and of one
    :meth:`~repro.core.rollhash.RollingFingerprint.roll` call.  Frames
    rebuilt from the worker pipe carry no ``old_*``:
    :meth:`SolveResident.apply` gathers them itself.
    """

    __slots__ = (
        "idx", "sizes", "costs", "initial",
        "old_sizes", "old_costs", "old_initial",
    )

    def __init__(
        self,
        idx: np.ndarray,
        sizes: np.ndarray,
        costs: np.ndarray,
        initial: np.ndarray,
        old_sizes: np.ndarray | None = None,
        old_costs: np.ndarray | None = None,
        old_initial: np.ndarray | None = None,
    ) -> None:
        self.idx = idx
        self.sizes = sizes
        self.costs = costs
        self.initial = initial
        self.old_sizes = old_sizes
        self.old_costs = old_costs
        self.old_initial = old_initial


def _frame_arrays(
    delta: dict, num_jobs: int, num_processors: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Validate one wire delta body into frame arrays.

    Raises :class:`ValueError` on malformed input (mismatched lengths,
    out-of-range indices, unsorted or repeated sites) — the same
    contract :func:`~repro.core.instance.apply_delta` enforces, plus
    strict ordering, which both the gather/scatter and the fingerprint
    roll rely on.
    """
    idx = np.asarray(delta["idx"], dtype=np.int64)
    sizes = np.asarray(delta["sizes"], dtype=np.float64)
    costs = np.asarray(delta["costs"], dtype=np.float64)
    initial = np.asarray(delta["initial"], dtype=np.int64)
    if not (idx.shape == sizes.shape == costs.shape == initial.shape):
        raise ValueError("delta arrays must have matching lengths")
    if idx.ndim != 1:
        raise ValueError("delta arrays must be one-dimensional")
    if idx.shape[0]:
        if idx[0] < 0 or idx[-1] >= num_jobs:
            raise ValueError("delta index out of range")
        if idx.shape[0] > 1 and not np.all(idx[:-1] < idx[1:]):
            raise ValueError("delta indices must be strictly increasing")
        if initial.min() < 0 or initial.max() >= num_processors:
            raise ValueError("delta initial assignment out of range")
    return idx, sizes, costs, initial


class ResidentShard:
    """Event-loop resident: tip fingerprint, arrays, and frame log."""

    __slots__ = (
        "sizes", "costs", "initial", "num_processors",
        "fp", "fp_hex", "pending", "needs_install",
    )

    def __init__(self, instance: Instance) -> None:
        # Writable copies: the wire decode hands out read-only
        # frombuffer views, and this plane scatters into its arrays.
        self.sizes = np.array(instance.sizes, dtype=np.float64)
        self.costs = np.array(instance.costs, dtype=np.float64)
        self.initial = np.array(instance.initial, dtype=np.int64)
        self.num_processors = int(instance.num_processors)
        self.fp = fingerprint_state(
            self.sizes, self.costs, self.initial, self.num_processors
        )
        self.fp_hex = self.fp.digest().hex()
        self.pending: list[Frame] = []
        # True until the solve plane has been sent a full snapshot; a
        # fresh resident starts stale because the solve plane has
        # never seen these arrays.
        self.needs_install = True

    @property
    def num_jobs(self) -> int:
        return int(self.sizes.shape[0])

    def preview(self, delta: dict) -> tuple[Frame, RollingFingerprint]:
        """Frame + post-frame fingerprint for a delta, without committing.

        O(changed sites).  The caller commits only once the request is
        actually admitted (or memo-answered), so a rejected request
        leaves the tip untouched and the client's retry still lands.
        """
        idx, sizes, costs, initial = _frame_arrays(
            delta, self.num_jobs, self.num_processors
        )
        frame = Frame(
            idx, sizes, costs, initial,
            self.sizes[idx].copy(),
            self.costs[idx].copy(),
            self.initial[idx].copy(),
        )
        fp = self.fp.copy()
        fp.roll(
            idx, frame.old_sizes, frame.old_costs, frame.old_initial,
            sizes, costs, initial,
        )
        return frame, fp

    def delta_to(self, instance: Instance) -> dict | None:
        """The wire delta taking the tip to ``instance``, or ``None``
        when the shapes differ.

        One O(n) vectorized compare.  Sites are compared bit for bit,
        so the rolled fingerprint of the delta equals
        ``instance``'s own.
        """
        if (
            instance.num_jobs != self.num_jobs
            or instance.num_processors != self.num_processors
        ):
            return None
        sizes = np.ascontiguousarray(instance.sizes, dtype=np.float64)
        costs = np.ascontiguousarray(instance.costs, dtype=np.float64)
        initial = np.ascontiguousarray(instance.initial, dtype=np.int64)
        idx = np.flatnonzero(
            (self.sizes.view(np.int64) != sizes.view(np.int64))
            | (self.costs.view(np.int64) != costs.view(np.int64))
            | (self.initial != initial)
        )
        return {
            "base": self.fp_hex, "idx": idx, "sizes": sizes[idx],
            "costs": costs[idx], "initial": initial[idx],
        }

    def commit(self, frame: Frame, fp: RollingFingerprint) -> None:
        """Advance the tip: scatter the frame and adopt its fingerprint."""
        self.sizes[frame.idx] = frame.sizes
        self.costs[frame.idx] = frame.costs
        self.initial[frame.idx] = frame.initial
        self.fp = fp
        self.fp_hex = fp.digest().hex()

    def defer(self, frame: Frame) -> None:
        """Park a committed frame whose request was answered from the
        response memo; it rides along with the next admitted request."""
        self.pending.append(frame)
        if len(self.pending) > FRAME_LOG_CAP:
            self.collapse()

    def claim_frames(self, frame: Frame) -> list[Frame]:
        """Frames an admitted request must carry: everything parked
        plus its own, oldest first."""
        if not self.pending:
            return [frame]
        claimed = self.pending + [frame]
        self.pending = []
        return claimed

    def collapse(self) -> None:
        """Drop parked frames and schedule a full solve-plane resync."""
        self.pending.clear()
        self.needs_install = True

    def export_instance(self) -> Instance:
        """Validating snapshot of the tip (failover/migration export)."""
        return Instance(
            sizes=self.sizes.copy(),
            costs=self.costs.copy(),
            num_processors=self.num_processors,
            initial=self.initial.copy(),
        )

    def install_instance(self) -> Instance:
        """Trusted copy of the tip for a solve-plane reinstall."""
        return Instance.trusted(
            self.sizes.copy(), self.costs.copy(),
            self.num_processors, self.initial.copy(),
        )


class SolveResident:
    """Solve-plane resident: replays frames, serves trusted views."""

    __slots__ = ("sizes", "costs", "initial", "num_processors")

    def __init__(self, instance: Instance) -> None:
        self.sizes = np.array(instance.sizes, dtype=np.float64)
        self.costs = np.array(instance.costs, dtype=np.float64)
        self.initial = np.array(instance.initial, dtype=np.int64)
        self.num_processors = int(instance.num_processors)

    def apply(self, frames: list[Frame]) -> tuple | None:
        """Scatter ``frames`` in order; return the merged churn hint.

        Old values are gathered from *these* arrays immediately before
        each scatter — by construction equal to the frame's own
        ``old_*`` (both planes replay the identical sequence), but
        self-gathering keeps the hint consistent with the tables this
        plane's engine actually holds.  ``None`` when there is nothing
        to apply.
        """
        if not frames:
            return None
        idx_parts: list[np.ndarray] = []
        olds_parts: list[np.ndarray] = []
        oldc_parts: list[np.ndarray] = []
        oldi_parts: list[np.ndarray] = []
        for frame in frames:
            idx = frame.idx
            idx_parts.append(idx)
            olds_parts.append(self.sizes[idx].copy())
            oldc_parts.append(self.costs[idx].copy())
            oldi_parts.append(self.initial[idx].copy())
            self.sizes[idx] = frame.sizes
            self.costs[idx] = frame.costs
            self.initial[idx] = frame.initial
        if len(idx_parts) == 1:
            return (idx_parts[0], olds_parts[0], oldc_parts[0], oldi_parts[0])
        # Oldest first: the engine's hint normalization keeps the first
        # occurrence per site, i.e. the value its tables still describe.
        return (
            np.concatenate(idx_parts),
            np.concatenate(olds_parts),
            np.concatenate(oldc_parts),
            np.concatenate(oldi_parts),
        )

    def view(self) -> Instance:
        """Zero-copy trusted view of the current arrays.

        The engine's hint contract explicitly supports instances that
        alias its own tables' snapshot, so no copies are taken; the
        arrays must not be mutated until the solve completes (a solve
        plane runs one batch at a time, which guarantees it).
        """
        return Instance.trusted(
            self.sizes, self.costs, self.num_processors, self.initial
        )
