"""The asyncio rebalancing server.

``queue → batcher → solve plane``: connections are parsed on the event
loop, admitted into the bounded :class:`~repro.service.admission.AdmissionQueue`,
drained by the :class:`~repro.service.batching.MicroBatcher`, and solved
by a :class:`SolvePlane` of per-shard warm
:class:`~repro.core.engine.RebalanceEngine` instances, so every shard's
epoch stream hits the threshold-table and fingerprint caches exactly as
an in-process engine would.  The event loop never blocks on a solve:
each batch is one ``run_in_executor`` hop.

Each shard's state lives twice, split by who touches it:

* the **admission plane** on the event loop — per shard a writable
  :class:`~repro.service.resident.ResidentShard` (the tip clients
  rebase on) plus a response memo.  A delta frame whose base is the
  resident tip is applied in O(changed sites) and travels on as a
  :class:`~repro.service.resident.Frame`; a full snapshot reseeds the
  tip and is installed on the solve plane once.
* the **solve plane** — per shard the warm engine and a
  :class:`~repro.service.resident.SolveResident` that replays the
  frames, so every decide gets a churn hint.

Two shard executors (``ServerConfig.executor``) differ only in where
the solve plane runs; both run the same :class:`SolvePlane` code:

* ``"thread"`` (default) — one plane in this process, on the solve
  thread; independent shard lanes fan out via
  :func:`repro.parallel.run_sweep` worker threads.  Zero setup cost,
  but all lanes share the GIL.
* ``"process"`` — one plane in each of ``process_workers`` long-lived
  worker processes (:class:`repro.parallel.PersistentWorkerPool`);
  every shard is pinned to one worker by a stable hash, so its warm
  engine and resident arrays survive across batches, and independent
  shards use real cores instead of threads contending on the GIL.
  Lanes cross the pipe in the v2 binary codec
  (:func:`repro.service.protocol.pack_payload` — raw buffers, no JSON
  arrays, no pickle): full arrays once per install, O(churn) frames
  after that.

The server speaks both wire formats of :mod:`repro.service.protocol`
(v1 length-prefixed JSON and v2 binary with delta frames) on one port
and answers each request in the format it arrived in.  A delta whose
base lags the resident tip resolves against a per-shard LRU of recent
snapshots keyed by fingerprint and reaches the solve plane as a frame
against the tip.

Decisions are byte-identical to in-process
:func:`repro.core.partition.m_partition_rebalance` calls on the same
snapshots (the engine's transparent-acceleration contract, plus the
batcher's dedupe only collapsing byte-identical snapshots); the
end-to-end websim differential test pins this across v1-JSON,
v2-binary, and v2-delta transports and both executors.

:class:`ServerConfig.naive` is the control: batch size 1, no dedupe,
no warm engine — the one-request-per-solve server benchmark E14
measures against.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import os
import threading
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Any
from zlib import crc32

import numpy as np

from .. import telemetry
from ..core.engine import RebalanceEngine, snapshot_fingerprint
from ..core.instance import Instance, apply_delta
from ..core.partition import m_partition_rebalance
from ..core.result import RebalanceResult
from ..core.rollhash import RollingFingerprint
from ..parallel import PersistentWorkerPool, run_sweep
from .admission import AdmissionQueue, PendingRequest
from .batching import BatchConfig, MicroBatcher, ShardLane, UniqueSolve
from .resident import Frame, ResidentShard, SolveResident
from .protocol import (
    ProtocolError,
    encode_frame,
    error_response,
    ok_response,
    pack_payload,
    read_frame_versioned,
    unpack_payload,
)

__all__ = [
    "RebalanceServer",
    "ServerConfig",
    "ServerHandle",
    "ShardState",
    "SolvePlane",
    "start_background",
]


@dataclass(frozen=True)
class ServerConfig:
    """Everything the service's behavior depends on."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the OS pick; read it back from Server.port
    max_batch: int = 16
    dedupe: bool = True
    use_engine: bool = True
    max_queue: int = 128
    solver_workers: int = 4
    engine_cache_size: int = 64
    executor: str = "thread"  # "thread" | "process"
    process_workers: int = 2
    # Delta base snapshots kept per shard.  With the warm engine on, a
    # positive value also turns on the resident admission plane (the
    # O(churn) delta path); 0 solves every request from its snapshot.
    base_cache_size: int = 32
    # Event-loop response memo: repeated ``(shard, k, fingerprint,
    # moves_only)`` decides on the resident path answer without a
    # batch, a solve-thread hop or a worker-pipe round trip — the
    # steady-state fast path that keeps p50 at loop latency when the
    # cluster barely changes.  0 disables (the engine's own decision
    # cache still applies).
    decision_cache_size: int = 128
    # Synthetic per-solve service-time floor (thread executor only):
    # each solve sleeps this long on the solve thread after computing.
    # Sleeping releases the GIL and the core, so a node's capacity
    # becomes ~1/(solve + floor) regardless of host CPU — the knob
    # capacity-pinned benchmarks (E17) use to measure *cluster* scale-
    # out on machines with fewer cores than backend processes.
    solve_delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.executor not in ("thread", "process"):
            raise ValueError(f"unknown executor {self.executor!r}")
        if self.executor == "process" and self.process_workers <= 0:
            raise ValueError("process_workers must be positive")
        if self.base_cache_size < 0:
            raise ValueError("base_cache_size must be non-negative")
        if self.decision_cache_size < 0:
            raise ValueError("decision_cache_size must be non-negative")
        if self.solve_delay_s < 0:
            raise ValueError("solve_delay_s must be non-negative")
        if self.solve_delay_s and self.executor == "process":
            raise ValueError("solve_delay_s requires the thread executor")

    @classmethod
    def naive(cls, **overrides: Any) -> "ServerConfig":
        """The one-request-per-solve control server: no batching, no
        dedupe, no warm engine — every request is a from-scratch
        ``m_partition_rebalance`` call."""
        return replace(
            cls(
                max_batch=1, dedupe=False, use_engine=False,
                decision_cache_size=0,
            ),
            **overrides,
        )

    def as_dict(self) -> dict[str, Any]:
        return {
            "max_batch": self.max_batch,
            "dedupe": self.dedupe,
            "use_engine": self.use_engine,
            "max_queue": self.max_queue,
            "solver_workers": self.solver_workers,
            "engine_cache_size": self.engine_cache_size,
            "executor": self.executor,
            "process_workers": self.process_workers,
            "base_cache_size": self.base_cache_size,
            "decision_cache_size": self.decision_cache_size,
            "solve_delay_s": self.solve_delay_s,
        }


@dataclass
class ShardState:
    """One named shard: a move budget and (optionally) a warm engine."""

    name: str
    k: int
    engine: RebalanceEngine | None
    decisions: int = 0

    def stats(self) -> dict[str, Any]:
        return {
            "k": self.k,
            "decisions": self.decisions,
            "engine": self.engine.stats.as_dict() if self.engine else None,
        }


def _response(
    state: ShardState, result: RebalanceResult, moves_only: bool
) -> dict[str, Any]:
    """A decision's ok response: the full mapping, or the compact form.

    The compact (``moves_only``) form lists the moved sites instead of
    the mapping — O(moves) on the wire instead of O(n); at a million
    sites the full mapping is the response's dominant cost.  The client
    reconstructs ``mapping = initial.copy(); mapping[moves_idx] = moves_to``.
    """
    common = {
        "guessed_opt": float(result.guessed_opt),
        "planned_moves": int(result.planned_moves),
        "algorithm": result.algorithm,
        "shard": state.name,
    }
    mapping = result.assignment.mapping
    if not moves_only:
        return ok_response(mapping=mapping, **common)
    # O(moves) when the solver cached its relocation set; identical to
    # the flatnonzero diff (ascending actual relocations) either way.
    moved = result.assignment.moved_jobs
    return ok_response(
        moves_idx=moved,
        moves_to=mapping[moved],
        num_jobs=int(mapping.shape[0]),
        **common,
    )


class SolvePlane:
    """Every shard's solve-side state and the one decide path over it.

    Per shard: the warm engine (:class:`ShardState`) and the solve-side
    resident arrays (:class:`SolveResident`).  The thread executor runs
    one plane on its solve thread; the process executor runs one in each
    worker process, holding the shards pinned to that worker.  Either
    way the plane sees each shard's solves in admission order and one
    batch at a time, so nothing here locks.

    A solve arrives in one of three forms (see :class:`UniqueSolve`):
    ``install`` reseeds the shard's resident arrays from ``instance``;
    ``frames`` replay committed deltas onto them (``instance`` is
    ``None``); and a bare ``instance`` without ``install`` is solved
    from scratch (the no-engine path).  The first two decide on a
    zero-copy view of the resident arrays with the accumulated churn
    hint.
    """

    def __init__(
        self,
        *,
        use_engine: bool,
        engine_cache_size: int,
        solve_delay_s: float = 0.0,
        metrics: telemetry.Collector | None = None,
    ) -> None:
        self.use_engine = use_engine
        self.engine_cache_size = engine_cache_size
        self.solve_delay_s = solve_delay_s
        self.metrics = metrics if metrics is not None else telemetry.Collector()
        self.shards: dict[str, ShardState] = {}
        self.residents: dict[str, SolveResident] = {}

    def _engine(self, k: int) -> RebalanceEngine | None:
        if not self.use_engine:
            return None
        return RebalanceEngine(k=k, cache_size=self.engine_cache_size)

    def _state(self, name: str, k: int) -> ShardState:
        """The shard's state, (re)building its engine on a ``k`` change.

        An engine is pinned to one move budget; a request that switches
        a shard's ``k`` retires the warm engine and starts cold (counted
        in ``service.shard_rebuilds`` — keep per-``k`` streams on
        separate shards to avoid the churn).
        """
        state = self.shards.get(name)
        if state is None:
            state = self.shards[name] = ShardState(
                name=name, k=k, engine=self._engine(k)
            )
        elif state.k != k:
            self.metrics.add("service.shard_rebuilds")
            state.k = k
            state.engine = self._engine(k)
        return state

    def solve_lane(
        self, shard: str, solves: list[UniqueSolve]
    ) -> list[dict[str, Any] | None]:
        """One shard's solves in order; one response per solve
        (``None`` for an apply-only solve).  Never raises."""
        responses: list[dict[str, Any] | None] = []
        for solve in solves:
            state = self._state(shard, solve.k)
            if solve.install or solve.instance is None:
                responses.append(self._solve_resident(state, solve))
            else:
                responses.append(self._solve_inline(state, solve))
            if self.solve_delay_s:
                time.sleep(self.solve_delay_s)
        return responses

    def _solve_inline(
        self, state: ShardState, solve: UniqueSolve
    ) -> dict[str, Any]:
        """Solve a shipped snapshot (a failed solve must not take the
        batch loop — or a worker process — down with it)."""
        try:
            if state.engine is not None:
                result = state.engine.rebalance(
                    solve.instance, fingerprint=solve.fingerprint
                )
            else:
                result = m_partition_rebalance(solve.instance, solve.k)
            state.decisions += 1
            return _response(state, result, solve.moves_only)
        except Exception as exc:
            return error_response(
                "solve failed", message=f"{type(exc).__name__}: {exc}"
            )

    def _solve_resident(
        self, state: ShardState, solve: UniqueSolve
    ) -> dict[str, Any] | None:
        """Apply the solve's frames — or reinstall from its snapshot —
        onto the shard's resident arrays, then decide with the
        accumulated churn hint."""
        engine = state.engine
        try:
            sres = self.residents.get(state.name)
            if solve.install:
                sres = self.residents[state.name] = SolveResident(solve.instance)
                hint = None
                if engine is not None and (
                    solve.apply_only or engine.has_pending_churn
                ):
                    # An arbitrary replacement snapshot invalidates the
                    # warm tables: pending churn only describes the
                    # sites it names, and an apply-only install leaves
                    # no decide to re-anchor them.  Start cold.
                    engine.reset()
            else:
                if sres is None:
                    return error_response(
                        "solve failed", shard=state.name,
                        message="resident solve without installed state",
                    )
                hint = sres.apply(solve.frames)
            if solve.apply_only:
                if hint is not None and engine is not None:
                    engine.note_churn(*hint)
                return None
            instance = sres.view()
            result = engine.rebalance(
                instance, fingerprint=solve.fingerprint, changed=hint
            )
            state.decisions += 1
            return _response(state, result, solve.moves_only)
        except Exception as exc:
            # The engine may be mid-patch: drop its state so the next
            # decide rebuilds from the resident arrays.
            if engine is not None:
                engine.reset()
            return error_response(
                "solve failed", message=f"{type(exc).__name__}: {exc}"
            )

    def reset(self, names: list[str] | None) -> list[str]:
        """Reset the named shards' engines and drop their resident
        arrays (every shard when ``names`` is ``None``)."""
        reset = []
        for name in (list(self.shards) if names is None else names):
            state = self.shards.get(name)
            if state is None:
                continue
            if state.engine is not None:
                state.engine.reset()
            state.decisions = 0
            self.residents.pop(name, None)
            reset.append(name)
        return reset

    def stats(self) -> dict[str, Any]:
        return {name: state.stats() for name, state in self.shards.items()}


# ----------------------------------------------------------------------
# The worker-pipe form of a solve lane (process executor)
# ----------------------------------------------------------------------
def _wire_solve(solve: UniqueSolve) -> dict[str, Any]:
    """One solve as the worker pipe carries it: the flags, plus full
    arrays for an install or an inline snapshot, or the O(churn)
    frames (``idx`` and new values; the worker gathers old values)."""
    entry: dict[str, Any] = {
        "k": solve.k,
        "fp": solve.fingerprint.hex(),
        "install": solve.install,
        "moves_only": solve.moves_only,
        "apply_only": solve.apply_only,
    }
    if solve.instance is not None:
        entry["instance"] = solve.instance.to_wire()
    if solve.frames:
        entry["frames"] = [
            {
                "idx": frame.idx, "sizes": frame.sizes,
                "costs": frame.costs, "initial": frame.initial,
            }
            for frame in solve.frames
        ]
    return entry


def _solve_from_wire(shard: str, entry: dict[str, Any]) -> UniqueSolve:
    """Inverse of :func:`_wire_solve`.  The event loop validated every
    array before admission, so the snapshot is rebuilt without the
    O(n) validation pass."""
    instance = None
    wire = entry.get("instance")
    if wire is not None:
        instance = Instance.trusted(
            wire["sizes"], wire["costs"],
            int(wire["num_processors"]), wire["initial"],
        )
    return UniqueSolve(
        shard=shard,
        k=int(entry["k"]),
        instance=instance,
        fingerprint=bytes.fromhex(entry["fp"]),
        install=bool(entry["install"]),
        moves_only=bool(entry["moves_only"]),
        frames=[
            Frame(f["idx"], f["sizes"], f["costs"], f["initial"])
            for f in entry.get("frames", ())
        ],
        apply_only=bool(entry["apply_only"]),
    )


# ----------------------------------------------------------------------
# Process-executor worker side (runs in spawned worker processes)
# ----------------------------------------------------------------------
_WORKER: dict[str, Any] = {}


def _process_worker_init(config: dict[str, Any]) -> None:
    """Per-worker initializer: an empty solve plane for the shards
    pinned to this worker."""
    _WORKER["plane"] = SolvePlane(
        use_engine=config["use_engine"],
        engine_cache_size=config["engine_cache_size"],
    )


def _process_worker_handle(payload: bytes) -> bytes:
    """Worker request loop body: binary codec in, binary codec out."""
    message = unpack_payload(payload)
    op = message.get("op")
    plane: SolvePlane = _WORKER["plane"]
    if op == "solve":
        return pack_payload({"lanes": [
            plane.solve_lane(
                str(lane["shard"]),
                [_solve_from_wire(str(lane["shard"]), s) for s in lane["solves"]],
            )
            for lane in message["lanes"]
        ]})
    if op == "reset":
        names = message.get("shards")
        names = None if names is None else [str(n) for n in names]
        return pack_payload({"result": plane.reset(names)})
    if op == "stats":
        return pack_payload({"result": plane.stats()})
    raise ValueError(f"unknown worker op {op!r}")


class RebalanceServer:
    """Dual-protocol TCP server around a pool of shard engines."""

    def __init__(self, config: ServerConfig | None = None) -> None:
        self.config = config or ServerConfig()
        self.metrics = telemetry.Collector()
        self.queue = AdmissionQueue(self.config.max_queue, self.metrics)
        self.batcher = MicroBatcher(
            self.queue,
            BatchConfig(
                max_batch=self.config.max_batch,
                dedupe=self.config.dedupe,
            ),
            self.metrics,
        )
        # The thread executor's solve plane (the process executor's
        # planes live in its workers).  Touched on the solve thread only.
        self.solve_plane: SolvePlane | None = None
        if self.config.executor == "thread":
            self.solve_plane = SolvePlane(
                use_engine=self.config.use_engine,
                engine_cache_size=self.config.engine_cache_size,
                solve_delay_s=self.config.solve_delay_s,
                metrics=self.metrics,
            )
        # Delta bases: per shard, the last few snapshots by fingerprint
        # hex.  Lives in the serving process (deltas must materialize
        # before admission/batching), regardless of the executor.
        self._bases: dict[str, OrderedDict[str, Instance]] = {}
        # Delta-transition memo: per shard, (base fp, delta digest) ->
        # resulting fp.  A steady epoch stream cycles through the same
        # transitions, so a hit skips apply_delta *and* the full-array
        # fingerprint hash — the request decodes in O(changed sites).
        self._transitions: dict[str, OrderedDict[tuple[str, bytes], str]] = {}
        self._transitions_cap = max(64, 4 * self.config.base_cache_size)
        # Resident admission plane: per-shard writable arrays + rolling
        # fingerprint on the event loop, and a response memo keyed by
        # ``(shard, k, fingerprint hex, moves_only)``.
        self._resident_enabled = (
            self.config.use_engine and self.config.base_cache_size > 0
        )
        self._residents: dict[str, ResidentShard] = {}
        self._responses: OrderedDict[
            tuple[str, int, str, bool], dict[str, Any]
        ] = OrderedDict()
        self._server: asyncio.AbstractServer | None = None
        self._batch_task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._pool: PersistentWorkerPool | None = None
        self._stop_event: asyncio.Event | None = None
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound TCP port (only meaningful after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not listening")
        return self._server.sockets[0].getsockname()[1]

    def _solve_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            raise RuntimeError("server is not started")
        return self._executor

    async def start(self) -> None:
        """Bind, start accepting connections, and start the batch loop."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._stop_event = asyncio.Event()
        if self.config.executor == "process":
            # Spawned workers import the package fresh; blocking here
            # until every ready handshake lands keeps `start` returning
            # a genuinely warm server.
            self._pool = PersistentWorkerPool(
                _process_worker_handle,
                self.config.process_workers,
                initializer=_process_worker_init,
                initargs=({
                    "use_engine": self.config.use_engine,
                    "engine_cache_size": self.config.engine_cache_size,
                },),
            )
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-solve"
        )
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self._started_at = time.monotonic()
        self._batch_task = asyncio.create_task(self._batch_loop())

    def request_stop(self) -> None:
        """Ask :meth:`serve_forever` to return (same-loop callers)."""
        if self._stop_event is not None:
            self._stop_event.set()

    async def serve_forever(self) -> None:
        """Block until :meth:`request_stop`, then shut down cleanly."""
        if self._server is None:
            await self.start()
        if self._stop_event is None:
            raise RuntimeError("server is not started")
        try:
            await self._stop_event.wait()
        finally:
            await self.stop()

    async def stop(self) -> None:
        """Stop accepting, fail queued work, and release the executor."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._batch_task is not None:
            self._batch_task.cancel()
            try:
                await self._batch_task
            except asyncio.CancelledError:
                pass
            self._batch_task = None
        # Fail anything still queued so no handler awaits forever.
        for request in self.queue.drain_nowait():
            if not request.future.done():
                request.future.set_result(error_response("shutting down"))
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.metrics.add("service.connections")
        try:
            while True:
                try:
                    frame = await read_frame_versioned(reader)
                except ProtocolError as exc:
                    self.metrics.add("service.protocol_errors")
                    writer.write(encode_frame(error_response(
                        "protocol error", message=str(exc))))
                    await writer.drain()
                    break
                if frame is None:
                    break
                message, version = frame
                response = await self._dispatch(message)
                # Answer in the format the request arrived in: implicit
                # per-frame negotiation, old JSON clients never see v2.
                writer.write(encode_frame(response, version=version))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def _dispatch(self, message: dict[str, Any]) -> dict[str, Any]:
        op = message.get("op")
        if op == "rebalance":
            return await self._op_rebalance(message)
        if op == "status":
            return await self._op_status()
        if op == "reset":
            return await self._op_reset(message)
        if op == "ping":
            return ok_response(op="ping")
        if op == "health":
            return self._op_health()
        if op == "replicate":
            return self._op_replicate(message)
        if op == "migrate":
            return self._op_migrate(message)
        self.metrics.add("service.protocol_errors")
        return error_response("unknown op", op=op)

    # ------------------------------------------------------------------
    # Delta bases
    # ------------------------------------------------------------------
    def _remember_base(self, shard: str, fp_hex: str, instance: Instance) -> None:
        if self.config.base_cache_size == 0:
            return
        bases = self._bases.get(shard)
        if bases is None:
            bases = self._bases[shard] = OrderedDict()
        bases[fp_hex] = instance
        bases.move_to_end(fp_hex)
        while len(bases) > self.config.base_cache_size:
            bases.popitem(last=False)

    def _base_for(self, shard: str, fp_hex: str) -> Instance | None:
        bases = self._bases.get(shard)
        if bases is None:
            return None
        instance = bases.get(fp_hex)
        if instance is not None:
            bases.move_to_end(fp_hex)
        return instance

    def _materialize_delta(
        self, shard: str, base_hex: str, base: Instance, delta: dict[str, Any]
    ) -> tuple[Instance, bytes]:
        """Snapshot + fingerprint for a delta frame, memoized.

        A steady client cycles through a fixed set of epoch
        transitions; hashing the (small) delta arrays identifies a
        repeat, and when the resulting snapshot is still in the base
        LRU the whole decode — ``apply_delta``'s three O(n) copies and
        the O(n) fingerprint hash — collapses to the digest of the
        changed sites.  Raises like ``apply_delta`` on malformed deltas.
        """
        idx = np.asarray(delta["idx"], dtype=np.int64)
        sizes = np.asarray(delta["sizes"], dtype=np.float64)
        costs = np.asarray(delta["costs"], dtype=np.float64)
        initial = np.asarray(delta["initial"], dtype=np.int64)
        h = hashlib.blake2b(digest_size=16)
        for arr in (idx, sizes, costs, initial):
            h.update(arr.tobytes())
        memo = self._transitions.setdefault(shard, OrderedDict())
        key = (base_hex, h.digest())
        known_hex = memo.get(key)
        if known_hex is not None:
            memo.move_to_end(key)
            known = self._base_for(shard, known_hex)
            if known is not None:
                self.metrics.add("service.delta_applied")
                self.metrics.add("service.delta_memo_hits")
                return known, bytes.fromhex(known_hex)
        instance = apply_delta(
            base, {"idx": idx, "sizes": sizes, "costs": costs, "initial": initial}
        )
        self.metrics.add("service.delta_applied")
        fingerprint = snapshot_fingerprint(instance)
        memo[key] = fingerprint.hex()
        while len(memo) > self._transitions_cap:
            memo.popitem(last=False)
        return instance, fingerprint

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    async def _op_rebalance(self, message: dict[str, Any]) -> dict[str, Any]:
        self.metrics.add("service.requests")
        loop = asyncio.get_running_loop()
        try:
            shard = str(message.get("shard", "default"))
            k = int(message.get("k", 2))
            if k < 0:
                raise ValueError("k must be non-negative")
            # Deadline parsing lives inside the guarded block: a
            # non-numeric deadline is a bad request, not a connection-
            # killing TypeError.
            deadline_ms = message.get("deadline_ms")
            if deadline_ms is not None:
                if isinstance(deadline_ms, bool) or not isinstance(
                    deadline_ms, (int, float)
                ):
                    raise ValueError("deadline_ms must be a number")
                deadline_ms = float(deadline_ms)
                if not math.isfinite(deadline_ms):
                    raise ValueError("deadline_ms must be finite")
            moves_only = bool(message.get("moves_only", False))
            delta = message.get("delta")
            res = self._residents.get(shard)
            if delta is not None:
                base_hex = str(delta.get("base", ""))
                if res is not None and base_hex == res.fp_hex:
                    # The O(churn) path: the delta lands on the resident
                    # tip — no Instance is ever built.
                    frame, fp = res.preview(delta)
                    # Counted like a materialized delta: a wire delta
                    # was decoded into the shard's next state.
                    self.metrics.add("service.delta_applied")
                    return await self._resident_delta(
                        shard, k, deadline_ms, moves_only, res, frame, fp
                    )
                base = self._base_for(shard, base_hex)
                if base is None:
                    # Not an error in the protocol sense: the client
                    # holds a fingerprint this server no longer (or
                    # never) had, and falls back to a full snapshot.
                    self.metrics.add("service.delta_misses")
                    return error_response("unknown base", shard=shard)
                instance, fingerprint = self._materialize_delta(
                    shard, base_hex, base, delta
                )
                rebased = None if res is None else res.delta_to(instance)
                if rebased is not None:
                    # A client whose base lags the tip (requests in
                    # flight together) is rebased: the target leaves a
                    # frame against the tip instead of reseeding the
                    # solve plane with O(n) arrays.
                    frame, fp = res.preview(rebased)
                    self._remember_base(shard, fingerprint.hex(), instance)
                    self.metrics.add("service.delta_rebases")
                    return await self._resident_delta(
                        shard, k, deadline_ms, moves_only, res, frame, fp
                    )
            else:
                instance = Instance.from_dict(message["instance"])
                fingerprint = snapshot_fingerprint(instance)
        except (KeyError, TypeError, ValueError) as exc:
            self.metrics.add("service.bad_requests")
            return error_response("bad request", message=str(exc))

        if self._resident_enabled:
            return await self._resident_full(
                shard, k, deadline_ms, moves_only, instance, fingerprint
            )
        fp_hex = fingerprint.hex()
        self._remember_base(shard, fp_hex, instance)
        now = loop.time()
        request = PendingRequest(
            shard=shard,
            k=k,
            instance=instance,
            fingerprint=fingerprint,
            enqueued_at=now,
            deadline=None if deadline_ms is None else now + deadline_ms / 1e3,
            future=loop.create_future(),
            moves_only=moves_only,
        )
        if not self.queue.try_submit(request):
            return error_response(
                "overloaded", retry_after_ms=self.queue.retry_after_ms()
            )
        return await self._await_response(request, fp_hex)

    # ------------------------------------------------------------------
    # Resident request paths
    # ------------------------------------------------------------------
    def _memo_hit(
        self,
        key: tuple[str, int, str, bool],
        started: float,
        loop: asyncio.AbstractEventLoop,
    ) -> dict[str, Any] | None:
        """Event-loop response-memo lookup; annotates a hit in place."""
        if not self.config.decision_cache_size:
            return None
        cached = self._responses.get(key)
        if cached is None:
            return None
        self._responses.move_to_end(key)
        self.metrics.add("service.decision_hits")
        self.metrics.add("service.ok")
        self.metrics.observe("service.latency_ms", 1e3 * (loop.time() - started))
        response = dict(cached)
        response["fingerprint"] = key[2]
        return response

    async def _await_response(
        self, request: PendingRequest, fp_hex: str
    ) -> dict[str, Any]:
        loop = asyncio.get_running_loop()
        response = await request.future
        self.metrics.observe(
            "service.latency_ms", 1e3 * (loop.time() - request.enqueued_at)
        )
        if response.get("ok"):
            self.metrics.add("service.ok")
            # The fingerprint names this snapshot as a future delta
            # base.  Copy before annotating: deduped requests share one
            # response object.
            response = dict(response)
            response["fingerprint"] = fp_hex
        return response

    async def _resident_delta(
        self,
        shard: str,
        k: int,
        deadline_ms: float | None,
        moves_only: bool,
        res: ResidentShard,
        frame: Frame,
        fp: RollingFingerprint,
    ) -> dict[str, Any]:
        """Advance the shard's resident arrays by one previewed frame.

        O(changed sites) on the event loop: the frame — never an
        Instance — travels on to the solve plane.  The commit happens
        only after admission (or a memo hit), so a rejected request
        leaves the tip unchanged and the client's retry of the same
        delta still resolves.
        """
        loop = asyncio.get_running_loop()
        now = loop.time()
        fingerprint = fp.digest()
        fp_hex = fingerprint.hex()
        self.metrics.add("service.resident_deltas")
        hit = self._memo_hit((shard, k, fp_hex, moves_only), now, loop)
        if hit is not None:
            # The decision is known but the state still advanced: commit
            # the frame and park it for the next admitted request.
            res.commit(frame, fp)
            res.defer(frame)
            return hit
        request = PendingRequest(
            shard=shard,
            k=k,
            instance=None,
            fingerprint=fingerprint,
            enqueued_at=now,
            deadline=None if deadline_ms is None else now + deadline_ms / 1e3,
            future=loop.create_future(),
            moves_only=moves_only,
        )
        if not self.queue.try_submit(request):
            return error_response(
                "overloaded", retry_after_ms=self.queue.retry_after_ms()
            )
        # No await separates the submit from the commit, so the batch
        # loop can never observe a submitted-but-uncommitted frame.
        res.commit(frame, fp)
        if res.needs_install:
            # The solve plane has never seen (or gave up tracking) this
            # shard: ship a full copy of the tip instead of frames.
            request.install = True
            request.instance = res.install_instance()
            res.pending.clear()
            res.needs_install = False
            self.metrics.add("service.resident_installs")
        else:
            request.frames = res.claim_frames(frame)
        return await self._await_response(request, fp_hex)

    async def _resident_full(
        self,
        shard: str,
        k: int,
        deadline_ms: float | None,
        moves_only: bool,
        instance: Instance,
        fingerprint: bytes,
    ) -> dict[str, Any]:
        """Full-snapshot request on the resident path: (re)seed the tip."""
        loop = asyncio.get_running_loop()
        now = loop.time()
        fp_hex = fingerprint.hex()
        # Keep the delta-base LRU warm for migrate/replicate exports and
        # for deltas that race a tip change.
        self._remember_base(shard, fp_hex, instance)
        res = self._residents.get(shard)
        in_sync = (
            res is not None
            and res.fp_hex == fp_hex
            and not res.needs_install
            and not res.pending
        )
        if res is None or res.fp_hex != fp_hex:
            res = ResidentShard(instance)
            self._residents[shard] = res
        hit = self._memo_hit((shard, k, fp_hex, moves_only), now, loop)
        if hit is not None:
            # needs_install stays as-is: the next miss ships the state.
            return hit
        request = PendingRequest(
            shard=shard,
            k=k,
            # A duplicate of an in-sync tip decides on the solve plane's
            # resident arrays (the engine will almost surely answer from
            # its decision cache); anything else reseeds the plane.
            instance=None if in_sync else instance,
            fingerprint=fingerprint,
            enqueued_at=now,
            deadline=None if deadline_ms is None else now + deadline_ms / 1e3,
            future=loop.create_future(),
            moves_only=moves_only,
            install=not in_sync,
        )
        if not self.queue.try_submit(request):
            return error_response(
                "overloaded", retry_after_ms=self.queue.retry_after_ms()
            )
        if request.install:
            res.pending.clear()
            res.needs_install = False
            self.metrics.add("service.resident_installs")
        return await self._await_response(request, fp_hex)

    def _op_health(self) -> dict[str, Any]:
        """Liveness probe for the cluster router's health loop.

        Unlike ``status`` this never hops to the solve thread or the
        worker pipes, so it answers at event-loop latency even while a
        batch is solving — a health check must not queue behind the
        work it is checking.
        """
        return ok_response(
            op="health",
            uptime_s=time.monotonic() - self._started_at,
            queue_depth=self.queue.depth,
            executor=self.config.executor,
        )

    def _op_replicate(self, message: dict[str, Any]) -> dict[str, Any]:
        """Install a snapshot into the delta-base LRU without solving.

        This is the standby half of cluster replication: the router
        replays a shard's fingerprinted delta frames here (the delta
        log *is* the replication log), so on promotion the standby
        already holds warm bases and the first failover request can go
        out as a delta.  Same decode path as ``rebalance`` — including
        the ``unknown base`` degradation to one full snapshot — minus
        admission, batching, and the solve.
        """
        self.metrics.add("service.replicate_requests")
        try:
            shard = str(message.get("shard", "default"))
            delta = message.get("delta")
            if delta is not None:
                base_hex = str(delta.get("base", ""))
                if self._resident_enabled:
                    res = self._residents.get(shard)
                    if res is not None and base_hex == res.fp_hex:
                        # Standby O(churn) path: advance the resident tip
                        # in place.  A standby's solve plane is never
                        # installed (it does not decide), so the frame
                        # only needs deferring when a solve plane is
                        # actually tracking this shard.
                        frame, fp = res.preview(delta)
                        res.commit(frame, fp)
                        if not res.needs_install:
                            res.defer(frame)
                        self.metrics.add("service.delta_applied")
                        self.metrics.add("service.resident_deltas")
                        self.metrics.add("service.replicated")
                        return ok_response(
                            op="replicate", shard=shard, fingerprint=res.fp_hex
                        )
                base = self._base_for(shard, base_hex)
                if base is None:
                    self.metrics.add("service.delta_misses")
                    return error_response("unknown base", shard=shard)
                instance, fingerprint = self._materialize_delta(
                    shard, base_hex, base, delta
                )
            else:
                instance = Instance.from_dict(message["instance"])
                fingerprint = snapshot_fingerprint(instance)
        except (KeyError, TypeError, ValueError) as exc:
            self.metrics.add("service.bad_requests")
            return error_response("bad request", message=str(exc))
        fp_hex = fingerprint.hex()
        self._remember_base(shard, fp_hex, instance)
        if self._resident_enabled:
            res = self._residents.get(shard)
            if res is None or res.fp_hex != fp_hex:
                # Seed the resident so later replicate deltas (and the
                # first post-promotion client delta) land on the
                # O(churn) path.  ``needs_install`` stays True: the
                # solve plane only learns the state once a real decide
                # asks for it.
                self._residents[shard] = ResidentShard(instance)
        self.metrics.add("service.replicated")
        return ok_response(op="replicate", shard=shard, fingerprint=fp_hex)

    def _op_migrate(self, message: dict[str, Any]) -> dict[str, Any]:
        """Export a shard's latest snapshot for live migration.

        The router drains the shard's lane, pulls the newest delta base
        from the current owner here, ships it to the new owner as a
        ``replicate`` frame, and flips routing.  ``found: false`` (not
        an error) when this node never saw the shard — the router then
        falls back to its own copy of the snapshot.
        """
        shard = str(message.get("shard", "default"))
        res = self._residents.get(shard)
        if res is not None:
            # The resident tip is by construction the newest state —
            # the delta-base LRU only sees full-snapshot requests.
            self.metrics.add("service.migrations")
            return ok_response(
                op="migrate",
                shard=shard,
                found=True,
                fingerprint=res.fp_hex,
                instance=res.export_instance().to_wire(),
            )
        bases = self._bases.get(shard)
        if not bases:
            return ok_response(op="migrate", shard=shard, found=False)
        fp_hex = next(reversed(bases))
        instance = bases[fp_hex]
        self.metrics.add("service.migrations")
        return ok_response(
            op="migrate",
            shard=shard,
            found=True,
            fingerprint=fp_hex,
            instance=instance.to_wire(),
        )

    async def _op_status(self) -> dict[str, Any]:
        shards: dict[str, Any] = {}
        for plane_shards in await self._on_planes("stats"):
            shards.update(plane_shards)
        residents = None
        if self._resident_enabled:
            residents = {
                name: {
                    "fingerprint": res.fp_hex,
                    "pending_frames": len(res.pending),
                    "needs_install": res.needs_install,
                    "num_jobs": res.num_jobs,
                }
                for name, res in self._residents.items()
            }
        return ok_response(
            uptime_s=time.monotonic() - self._started_at,
            config=self.config.as_dict(),
            queue=self.queue.stats(),
            shards=shards,
            residents=residents,
            metrics=self.metrics.as_dict(),
        )

    async def _op_reset(self, message: dict[str, Any]) -> dict[str, Any]:
        shard = message.get("shard")
        names = [str(shard)] if shard is not None else None
        if names is None:
            self._bases.clear()
            self._transitions.clear()
            self._responses.clear()
            self._residents.clear()
        else:
            for name in names:
                self._bases.pop(name, None)
                self._transitions.pop(name, None)
                self._residents.pop(name, None)
            for key in [k for k in self._responses if k[0] in names]:
                del self._responses[key]
        reset: list[str] = []
        for plane_reset in await self._on_planes("reset", names):
            reset.extend(plane_reset)
        self.metrics.add("service.resets")
        return ok_response(reset=sorted(set(reset)))

    async def _on_planes(self, op: str, names: list[str] | None = None) -> list[Any]:
        """Run ``stats`` or ``reset`` on every solve plane.

        Always from the solve thread: that serializes the op with any
        in-flight batch (the thread plane inserts shards mid-batch, and
        the worker pipes are only ever driven from that thread).
        """
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._solve_executor(), self._planes_sync, op, names
        )

    def _planes_sync(self, op: str, names: list[str] | None) -> list[Any]:
        if self._pool is None:
            plane = self.solve_plane
            if plane is None:
                raise RuntimeError("no solve plane")
            return [plane.stats() if op == "stats" else plane.reset(names)]
        payload = pack_payload({"op": op, "shards": names})
        return [
            unpack_payload(reply)["result"]
            for reply in self._pool.broadcast(payload).values()
        ]

    # ------------------------------------------------------------------
    # Batch loop and solving
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self.batcher.next_batch()
            try:
                await self._serve_batch(batch, loop)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # must never strand awaiting
                # handlers: fail the whole batch and keep serving.
                self.metrics.add("service.solve_errors")
                failure = error_response(
                    "internal error", message=f"{type(exc).__name__}: {exc}"
                )
                for request in batch:
                    if not request.future.done():
                        request.future.set_result(failure)
                    # The batch's frames or installs may never have
                    # reached the solve plane: resync its shards.
                    res = self._residents.get(request.shard)
                    if res is not None:
                        res.collapse()

    async def _serve_batch(
        self, batch: list[PendingRequest], loop: asyncio.AbstractEventLoop
    ) -> None:
        batch = self.queue.shed_expired(batch, loop.time())
        if not batch:
            return
        lanes = self.batcher.plan(batch)
        start = loop.time()
        outcomes = await loop.run_in_executor(
            self._solve_executor(), self._solve_lanes, lanes
        )
        elapsed = loop.time() - start
        self.metrics.record_span("service.solve", elapsed)
        self.queue.note_service_time(elapsed / len(batch))
        batch_info = {
            "size": len(batch),
            "unique": sum(len(lane.solves) for lane in lanes),
            "solve_ms": 1e3 * elapsed,
        }
        memo = (
            self.config.decision_cache_size if self._resident_enabled else 0
        )
        for lane, lane_outcomes in zip(lanes, outcomes):
            for solve, outcome in zip(lane.solves, lane_outcomes):
                if outcome is None:
                    # Apply-only solve: every requester already got its
                    # "deadline exceeded"; there is nothing to fan out.
                    continue
                if isinstance(outcome, dict) and outcome.get("ok"):
                    if memo:
                        # Memo before the batch annotation: a replayed
                        # response describes no batch it was part of.
                        key = (
                            lane.shard, solve.k, solve.fingerprint.hex(),
                            solve.moves_only,
                        )
                        self._responses[key] = dict(outcome)
                        while len(self._responses) > memo:
                            self._responses.popitem(last=False)
                    outcome["batch"] = batch_info
                else:
                    self.metrics.add("service.solve_errors")
                for request in solve.requests:
                    if not request.future.done():
                        request.future.set_result(outcome)

    def _solve_lanes(
        self, lanes: list[ShardLane]
    ) -> list[list[dict[str, Any] | None]]:
        """Executor-side: solve every lane on its solve plane.

        Returns, per lane, one response per unique solve (in lane
        order).  Runs on the dedicated solve thread, one batch at a
        time, so no plane needs locking.
        """
        if self._pool is not None:
            return self._solve_lanes_process(lanes)
        plane = self.solve_plane
        if plane is None:
            raise RuntimeError("no solve plane")
        workers = min(self.config.solver_workers, max(1, len(lanes)))
        if not self.config.solve_delay_s:
            # Real CPU-bound solves past the core count add no
            # throughput — they only interleave O(n)-footprint passes
            # and thrash caches/GIL (measured ~2x per-solve CPU at
            # 167k sites with 4 threads on 1 core).  A synthetic
            # service-time floor sleeps off-GIL, so that mode keeps
            # the configured fan-out.
            workers = min(workers, max(1, os.cpu_count() or 1))
        return run_sweep(
            lambda lane: plane.solve_lane(lane.shard, lane.solves),
            lanes,
            workers=workers,
            executor="thread",
        )

    def _worker_for(self, shard: str) -> int:
        """Stable shard → worker affinity (``hash()`` is per-process
        seeded, so crc32 it is)."""
        return crc32(shard.encode("utf-8")) % self.config.process_workers

    def _solve_lanes_process(
        self, lanes: list[ShardLane]
    ) -> list[list[dict[str, Any] | None]]:
        """Route lanes to their affine workers over the binary codec."""
        pool = self._pool
        if pool is None:
            raise RuntimeError("server is not started")
        groups: dict[int, list[int]] = {}
        for i, lane in enumerate(lanes):
            groups.setdefault(self._worker_for(lane.shard), []).append(i)
        assignments: dict[int, bytes] = {}
        for worker, lane_indices in groups.items():
            payload = pack_payload({
                "op": "solve",
                "lanes": [
                    {
                        "shard": lanes[i].shard,
                        "solves": [_wire_solve(s) for s in lanes[i].solves],
                    }
                    for i in lane_indices
                ],
            })
            self.metrics.add("service.ipc_bytes_out", len(payload))
            assignments[worker] = payload
        replies = pool.request(assignments)
        results: list[list[dict[str, Any] | None]] = [[] for _ in lanes]
        for worker, lane_indices in groups.items():
            reply = replies[worker]
            self.metrics.add("service.ipc_bytes_in", len(reply))
            for i, lane_out in zip(lane_indices, unpack_payload(reply)["lanes"]):
                results[i] = lane_out
        return results


# ----------------------------------------------------------------------
# Background-thread embedding (tests, benchmarks, loadgen --spawn)
# ----------------------------------------------------------------------
class ServerHandle:
    """A server running on a private event loop in a daemon thread."""

    def __init__(
        self,
        server: RebalanceServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        self.host = server.config.host
        self.port = server.port

    def stop(self, timeout: float = 10.0) -> None:
        """Shut the server down and join its thread."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self.server.request_stop)
            self._thread.join(timeout)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def start_background(config: ServerConfig | None = None) -> ServerHandle:
    """Start a :class:`RebalanceServer` on a daemon thread.

    Blocks until the listener is bound (so ``handle.port`` is valid the
    moment this returns) and re-raises any startup failure in the
    caller.  Use as a context manager for scoped teardown.
    """
    started = threading.Event()
    box: dict[str, Any] = {}

    def runner() -> None:
        async def main() -> None:
            server = RebalanceServer(config)
            try:
                await server.start()
            except Exception as exc:
                box["error"] = exc
                started.set()
                return
            box["server"] = server
            box["loop"] = asyncio.get_running_loop()
            started.set()
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(
        target=runner, name="repro-serve", daemon=True
    )
    thread.start()
    if not started.wait(timeout=60.0):  # pragma: no cover
        raise RuntimeError("server failed to start within 60s")
    if "error" in box:
        raise box["error"]
    return ServerHandle(box["server"], box["loop"], thread)
