"""Dynamic micro-batching for the rebalancing service.

Dispatch on idle: the batcher waits only for the first request, then
takes whatever else is already queued (up to ``max_batch``) without
waiting, and the whole batch is solved in one executor hop.  No request
ever waits for company: an idle server dispatches at once, and requests
that arrive while a batch is solving collect in the admission queue and
form the next batch.  Under load, batching wins twice:

* **Fingerprint dedupe** — many frontends observing one cluster epoch
  submit byte-identical snapshots within milliseconds of each other.
  Inside a batch, requests with equal ``(shard, k, fingerprint)`` keys
  collapse into one solve whose result fans back out to every caller
  (:func:`repro.core.engine.snapshot_fingerprint` guarantees equal
  fingerprints mean byte-identical instances).
* **Amortized dispatch** — one event-loop → executor round-trip and
  one :func:`repro.parallel.run_sweep` fan-out per batch instead of
  per request, so the event loop stays responsive while the solver
  pool chews.

A batch is *planned* into per-shard lanes: shards are independent (one
warm engine each), so the server fans lanes out across worker threads,
while solves within a lane stay serial and in arrival order — each
shard's engine sees the same snapshot sequence it would have seen
unbatched, which is what keeps its table-patching effective and its
decisions reproducible.

Counters: ``service.batches``, ``service.deduped``; histogram
``service.batch_size``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import telemetry
from ..core.instance import Instance
from .admission import AdmissionQueue, PendingRequest

__all__ = ["BatchConfig", "MicroBatcher", "ShardLane", "UniqueSolve"]


@dataclass(frozen=True)
class BatchConfig:
    """Knobs of the micro-batcher.

    ``max_batch`` bounds how many queued requests one solve pass may
    serve (there is no wait: a batch is what queued up while the
    previous one solved); ``dedupe=False`` disables snapshot collapsing
    (every request gets its own solve — the naive baseline).
    """

    max_batch: int = 16
    dedupe: bool = True

    def __post_init__(self) -> None:
        if self.max_batch <= 0:
            raise ValueError("max_batch must be positive")


@dataclass
class UniqueSolve:
    """One distinct snapshot within a batch and everyone awaiting it.

    Also the unit a :class:`~repro.service.server.SolvePlane` solves;
    a process worker rebuilds it from the worker-pipe form with no
    ``requests``.
    """

    shard: str
    k: int
    instance: Instance | None
    requests: list[PendingRequest] = field(default_factory=list)
    fingerprint: bytes = b""
    # Resident-path plumbing, inherited from the first request of the
    # group (see PendingRequest).
    install: bool = False
    moves_only: bool = False
    frames: list = field(default_factory=list)
    apply_only: bool = False


@dataclass
class ShardLane:
    """A batch's slice for one shard: solves in arrival order."""

    shard: str
    solves: list[UniqueSolve] = field(default_factory=list)


class MicroBatcher:
    """Drains the admission queue into deduped per-shard lanes."""

    def __init__(
        self,
        queue: AdmissionQueue,
        config: BatchConfig,
        metrics: telemetry.Collector,
    ) -> None:
        self.queue = queue
        self.config = config
        self.metrics = metrics

    async def next_batch(self) -> list[PendingRequest]:
        """Wait for the first request, then add whatever is already
        queued, up to ``max_batch``, without waiting."""
        batch = [await self.queue.get()]
        while len(batch) < self.config.max_batch:
            request = self.queue.get_nowait()
            if request is None:
                break
            batch.append(request)
        return batch

    def plan(self, batch: list[PendingRequest]) -> list[ShardLane]:
        """Group a (already shed) batch into deduped per-shard lanes."""
        lanes: dict[str, ShardLane] = {}
        index: dict[tuple[str, int, bytes, bool, bool], UniqueSolve] = {}
        deduped = 0
        for request in batch:
            # moves_only is part of the key: the two response shapes
            # for one snapshot cannot share a response object.  So is
            # apply_only: a live request must never collapse into an
            # expired one's decide-less solve.
            key = (
                request.shard, request.k, request.fingerprint,
                request.moves_only, request.apply_only,
            )
            # A request that advances the shard's resident state (frames
            # or an install) never folds into an earlier solve: a state
            # stream can revisit a fingerprint (A -> B -> A), and
            # dropping the later transition would leave the solve plane
            # behind the admission tip.
            mergeable = self.config.dedupe and not (
                request.frames or request.install
            )
            solve = index.get(key) if mergeable else None
            if solve is not None:
                solve.requests.append(request)
                deduped += 1
                continue
            solve = UniqueSolve(
                shard=request.shard, k=request.k, instance=request.instance,
                requests=[request], fingerprint=request.fingerprint,
                install=request.install, moves_only=request.moves_only,
                frames=request.frames, apply_only=request.apply_only,
            )
            index[key] = solve
            lane = lanes.get(request.shard)
            if lane is None:
                lane = lanes[request.shard] = ShardLane(shard=request.shard)
            lane.solves.append(solve)
        self.metrics.add("service.batches")
        self.metrics.observe("service.batch_size", float(len(batch)))
        if deduped:
            self.metrics.add("service.deduped", deduped)
        return list(lanes.values())
