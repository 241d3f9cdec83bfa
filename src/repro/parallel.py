"""Deterministic process-pool sweep runner.

The experiments, benchmarks, and outer guess searches in this repo are
all *embarrassingly parallel sweeps*: apply one picklable function to a
list of independent items.  This module gives them a single fan-out API
with the three properties the reproduction needs:

* **Deterministic ordering** — results come back indexed by input
  position regardless of worker scheduling, so a parallel run is
  byte-identical to a serial one.
* **Telemetry merge** — when the parent has a telemetry collector
  installed, each worker collects its own spans/counters and the parent
  folds them back in (:meth:`repro.telemetry.Collector.merge`), so
  ``--profile`` still accounts for work done in workers.
* **Serial fallback** — ``workers <= 1`` (or a single item) runs inline
  on the calling thread with zero pool overhead, which keeps the
  parallel path an opt-in strictly-faster variant of the serial one.

:func:`run_until` layers an early-exit scan on top: items are evaluated
in chunks, in order, and the first item (by input position) whose
result satisfies the predicate wins.  Later items may be evaluated
speculatively — wasted work, never a different answer — which is
exactly the contract the PTAS outer guess search needs to parallelize
while returning the identical threshold to the serial scan.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Iterable, Sequence

from . import telemetry

__all__ = [
    "PersistentWorkerPool",
    "default_workers",
    "run_sweep",
    "run_until",
    "spawn_piped_process",
]


def default_workers() -> int:
    """Worker count to use when the caller says "all": the CPU count."""
    return max(1, os.cpu_count() or 1)


def _call_collected(payload: tuple) -> tuple[int, Any, dict | None]:
    """Worker-side shim: run one item, optionally under a collector."""
    fn, idx, item, with_telemetry = payload
    if with_telemetry:
        with telemetry.collect() as collector:
            out = fn(item)
        return idx, out, collector.as_dict()
    return idx, fn(item), None


def _merge_worker_telemetry(data: dict | None) -> None:
    collector = telemetry.current()
    if collector is not None and data is not None:
        collector.merge(data)


def run_sweep(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    *,
    workers: int | None = None,
    chunksize: int = 1,
    executor: str = "process",
) -> list[Any]:
    """Apply ``fn`` to every item, returning results in input order.

    ``fn`` and the items must be picklable when ``workers > 1`` with
    the default ``executor="process"`` (``fn`` is typically a
    module-level function taking one payload tuple).  ``workers=None``
    means :func:`default_workers`.

    ``executor="thread"`` fans out over a thread pool instead: nothing
    is pickled, so stateful unpicklable objects (e.g. the service
    layer's per-shard :class:`~repro.core.engine.RebalanceEngine`
    pools) can be mutated in place by the workers.  Threads share the
    GIL, so this pays off for numpy-heavy work and for keeping an
    asyncio event loop responsive, not for pure-Python loops.
    Telemetry merging works identically in both modes (each worker
    thread gets its own thread-local collector).
    """
    if executor not in ("process", "thread"):
        raise ValueError(f"unknown executor {executor!r}")
    items = list(items)
    if workers is None:
        workers = default_workers()
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]

    with_tel = telemetry.enabled()
    payloads = [(fn, idx, item, with_tel) for idx, item in enumerate(items)]
    results: list[Any] = [None] * len(items)
    pool_cls = ProcessPoolExecutor if executor == "process" else ThreadPoolExecutor
    with pool_cls(max_workers=min(workers, len(items))) as pool:
        for idx, out, tel in pool.map(
            _call_collected, payloads, chunksize=chunksize
        ):
            results[idx] = out
            _merge_worker_telemetry(tel)
    return results


# ----------------------------------------------------------------------
# Persistent workers: long-lived processes with addressable state
# ----------------------------------------------------------------------
_OK = b"\x00"
_ERR = b"\x01"


def spawn_piped_process(target, *args, daemon: bool = True):
    """Start a ``spawn``-context process wired to a duplex pipe.

    ``target(child_conn, *args)`` runs in the child; the parent gets
    ``(process, parent_conn)``.  The child's end is closed in the
    parent so EOF propagates when the child exits — the idiom both
    :class:`PersistentWorkerPool` and the sharded-router control plane
    build their pipe protocols on.  ``spawn`` (never fork): forking a
    process that already runs an asyncio loop plus solver threads is
    undefined behavior.
    """
    ctx = multiprocessing.get_context("spawn")
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=target, args=(child, *args), daemon=daemon)
    proc.start()
    child.close()
    return proc, parent


def _persistent_worker_loop(conn, handler, initializer, initargs) -> None:
    """Worker-process main: init once, then serve requests until EOF.

    The reply wire format is one status byte (0 = ok payload follows,
    1 = utf-8 error text follows) so a handler bug surfaces as a
    :class:`RuntimeError` in the parent instead of a hung pipe.
    """
    try:
        if initializer is not None:
            initializer(*initargs)
    except BaseException as exc:  # report init failure, then exit
        try:
            conn.send_bytes(_ERR + f"{type(exc).__name__}: {exc}".encode())
        finally:
            conn.close()
        return
    conn.send_bytes(_OK)  # ready handshake
    while True:
        try:
            payload = conn.recv_bytes()
        except (EOFError, OSError):
            break
        if not payload:  # empty request = orderly shutdown
            break
        try:
            reply = handler(payload)
        except BaseException as exc:
            conn.send_bytes(_ERR + f"{type(exc).__name__}: {exc}".encode())
            continue
        conn.send_bytes(_OK + reply)
    conn.close()


class PersistentWorkerPool:
    """N long-lived worker processes, each owning process-local state.

    :class:`~concurrent.futures.ProcessPoolExecutor` (and
    :func:`run_sweep` over it) treats workers as interchangeable —
    right for stateless sweeps, wrong for stateful servers: the service
    layer's multi-process shard executor needs every request for one
    shard to land in the *same* process, where that shard's warm
    :class:`~repro.core.engine.RebalanceEngine` lives.  This pool keeps
    the workers addressable: the caller picks the worker index, so
    affinity is the caller's (deterministic) routing function.

    Messages are raw ``bytes`` both ways (``Connection.send_bytes`` —
    no pickling; the service marshals arrays with its binary wire
    codec).  ``handler`` must be a picklable module-level function
    ``bytes -> bytes``; ``initializer(*initargs)`` runs once per worker
    before the ready handshake.  Workers are started with the ``spawn``
    context: forking a process that already runs an asyncio loop plus
    solver threads is undefined behavior, and spawn keeps the workers'
    import state explicit.

    Concurrency contract: ``request`` is not thread-safe; exactly one
    thread drives the pool (the service's single solve-executor
    thread).  A worker that dies mid-request surfaces as
    :class:`RuntimeError` from ``request``.
    """

    def __init__(
        self,
        handler: Callable[[bytes], bytes],
        workers: int,
        *,
        initializer: Callable[..., None] | None = None,
        initargs: tuple = (),
    ) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self._procs = []
        self._conns = []
        for _ in range(workers):
            proc, parent = spawn_piped_process(
                _persistent_worker_loop, handler, initializer, initargs
            )
            self._procs.append(proc)
            self._conns.append(parent)
        for index, conn in enumerate(self._conns):
            try:
                ready = conn.recv_bytes()
            except (EOFError, OSError) as exc:
                self.close()
                raise RuntimeError(f"worker {index} died during startup") from exc
            if ready[:1] == _ERR:
                message = ready[1:].decode("utf-8", "replace")
                self.close()
                raise RuntimeError(f"worker {index} failed to initialize: {message}")

    @property
    def workers(self) -> int:
        return len(self._procs)

    def request(self, assignments: dict[int, bytes]) -> dict[int, bytes]:
        """One round: send each worker its payload, gather every reply.

        ``assignments`` maps worker index -> request bytes.  All sends
        complete before the first receive, so the addressed workers run
        concurrently; the reply dict has the same keys.

        Every addressed worker's reply is drained before any error is
        raised — raising on the first ``_ERR`` would leave the other
        workers' replies sitting in their pipes, and the next round
        would read those stale bytes as its own answers.  A dead worker
        still raises (its pipe has nothing left to drain), reported
        after the remaining replies are consumed.
        """
        for index, payload in assignments.items():
            if not payload:
                raise ValueError("empty payloads are reserved for shutdown")
            self._conns[index].send_bytes(payload)
        replies: dict[int, bytes] = {}
        dead: list[int] = []
        failed: list[tuple[int, str]] = []
        for index in assignments:
            try:
                reply = self._conns[index].recv_bytes()
            except (EOFError, OSError):
                dead.append(index)
                continue
            if reply[:1] == _ERR:
                failed.append((index, reply[1:].decode("utf-8", "replace")))
            else:
                replies[index] = reply[1:]
        if dead:
            raise RuntimeError(f"worker {dead[0]} died mid-request")
        if failed:
            index, message = failed[0]
            raise RuntimeError(f"worker {index} failed: {message}")
        return replies

    def broadcast(self, payload: bytes) -> dict[int, bytes]:
        """``request`` to every worker at once (stats, resets)."""
        return self.request({index: payload for index in range(self.workers)})

    def close(self, timeout: float = 5.0) -> None:
        """Orderly shutdown: EOF every pipe, join, terminate stragglers."""
        for conn in self._conns:
            try:
                conn.send_bytes(b"")
            except (OSError, ValueError):
                pass
            try:
                conn.close()
            except OSError:
                pass
        for proc in self._procs:
            proc.join(timeout)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout)
        self._procs = []
        self._conns = []

    def __enter__(self) -> "PersistentWorkerPool":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def run_until(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    accept: Callable[[Any], bool],
    *,
    workers: int | None = None,
    chunk: int | None = None,
) -> tuple[int, Any] | None:
    """Ordered early-exit scan: first item whose result is accepted.

    Evaluates ``items`` in chunks of ``chunk`` (default: one chunk per
    worker batch), in input order within and across chunks, and returns
    ``(index, result)`` for the smallest index whose result satisfies
    ``accept`` — the same pair a serial left-to-right scan would return
    — or ``None`` when nothing is accepted.  With ``workers <= 1`` the
    scan degrades to exactly that serial loop, evaluating nothing past
    the hit.
    """
    items = list(items)
    if workers is None:
        workers = default_workers()
    if workers <= 1:
        for idx, item in enumerate(items):
            result = fn(item)
            if accept(result):
                return idx, result
        return None

    if chunk is None:
        chunk = 2 * workers
    with_tel = telemetry.enabled()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for start in range(0, len(items), chunk):
            batch = items[start : start + chunk]
            payloads = [
                (fn, start + j, item, with_tel) for j, item in enumerate(batch)
            ]
            outs: list[Any] = [None] * len(batch)
            for idx, out, tel in pool.map(_call_collected, payloads):
                outs[idx - start] = out
                _merge_worker_telemetry(tel)
            for j, result in enumerate(outs):
                if accept(result):
                    return start + j, result
    return None
