"""Span recorders wrapped around the program's layer entry points.

The traced launcher (``launcher.py``) calls :func:`install` in every
system-under-test process before the normal ``serve``/``router`` main
runs; process-executor workers install the same recorders through
:func:`traced_worker_init`.  Each wrapper patches a name where its
caller looks it up (for example ``repro.core.engine.build_tables``),
appends ``(name, start, end, thread)`` to an in-memory list, and
:func:`dump` writes the list to ``$PERFBENCH_SPANS_DIR`` when the
process shuts down.  Times are ``time.perf_counter`` readings, which
on Linux share one monotonic clock across processes.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import threading
import time
from pathlib import Path

SPANS_ENV = "PERFBENCH_SPANS_DIR"

_spans: list[tuple[str, float, float, int]] = []
_role = ""


def _record(name: str, start: float) -> None:
    _spans.append((name, start, time.perf_counter(), threading.get_ident()))


def _wrap(owner: object, attr: str, name: str) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            _record(name, start)

    setattr(owner, attr, wrapper)


def _wrap_async(owner: object, attr: str, name: str) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    async def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return await original(*args, **kwargs)
        finally:
            _record(name, start)

    setattr(owner, attr, wrapper)


def _install_engine() -> None:
    from repro.core import engine

    _wrap(engine.RebalanceEngine, "rebalance", "engine.decide")
    _wrap(engine, "build_tables", "thresholds.build")
    _wrap(engine, "patch_tables", "thresholds.patch")
    _wrap(engine, "patch_tables_hint", "thresholds.patch")
    _wrap(engine, "scan_incremental", "partition_incremental.scan")
    _wrap(engine, "_construct", "partition.construct")


def _install_protocol() -> None:
    from repro.service import client, cluster, protocol, server

    # Decode: every frame read on an event loop goes through the
    # protocol module's own ``unpack_payload``.
    _wrap(protocol, "unpack_payload", "protocol.decode")
    for module in (server, cluster, client):
        _wrap(module, "encode_frame", "protocol.encode")


def _install_serve() -> None:
    from repro.parallel import PersistentWorkerPool
    from repro.service import admission, batching, resident, server

    _wrap_async(server.RebalanceServer, "_op_rebalance", "server.request")
    _wrap(resident.ResidentShard, "preview", "resident.apply")
    _wrap(resident.ResidentShard, "commit", "resident.apply")
    _wrap(resident.SolveResident, "apply", "resident.apply")
    _wrap(PersistentWorkerPool, "request", "parallel.request")
    server._process_worker_init = traced_worker_init

    # Admission wait runs from enqueue until the batcher takes the
    # first request of a batch; the batch window from then until the
    # batch closes.
    get = admission.AdmissionQueue.get

    async def traced_get(self):
        request = await get(self)
        self._perfbench_taken = time.perf_counter()
        return request

    next_batch = batching.MicroBatcher.next_batch

    async def traced_next_batch(self):
        batch = await next_batch(self)
        closed = time.perf_counter()
        taken = getattr(self.queue, "_perfbench_taken", closed)
        ident = threading.get_ident()
        _spans.append(("admission.wait", batch[0].enqueued_at, taken, ident))
        _spans.append(("batching.window", taken, closed, ident))
        return batch

    admission.AdmissionQueue.get = traced_get
    batching.MicroBatcher.next_batch = traced_next_batch


def _install_router() -> None:
    from repro.service import cluster

    _wrap_async(cluster.ClusterRouter, "_op_rebalance", "router.request")
    call = cluster.BackendLink.call

    async def traced_call(self, message):
        start = time.perf_counter()
        try:
            return await call(self, message)
        finally:
            op = message.get("op")
            _record(
                "router.replication" if op == "replicate" else
                "router.backend" if op == "rebalance" else "router.other",
                start,
            )

    cluster.BackendLink.call = traced_call


def install(role: str) -> None:
    """Wrap the entry points of a ``serve``, ``router`` or ``worker``."""
    global _role
    _role = role
    _install_engine()
    if role == "worker":
        return
    _install_protocol()
    if role == "serve":
        _install_serve()
    elif role == "router":
        _install_router()
    else:
        raise ValueError(f"unknown role {role!r}")


def dump() -> None:
    """Write this process's spans to the spans directory."""
    directory = os.environ.get(SPANS_ENV)
    if not directory:
        return
    path = Path(directory) / f"spans-{os.getpid()}.json"
    path.write_text(json.dumps({
        "pid": os.getpid(), "role": _role, "spans": _spans,
    }))


def traced_worker_init(config: dict) -> None:
    """Process-executor worker initializer: recorders, then the normal
    initializer.  Spans are written when the worker exits.

    A spawned worker imports the program afresh, so ``server`` names
    the program's own initializer here; only the serve process holds
    the replacement that points at this function."""
    from repro.service import server

    install("worker")
    atexit.register(dump)
    server._process_worker_init(config)

