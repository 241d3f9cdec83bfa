"""Sync and async clients for the rebalancing service.

Both speak the two wire formats of :mod:`repro.service.protocol` —
``protocol="json"`` (v1 length-prefixed JSON, the default) or
``protocol="binary"`` (v2 frames whose numeric arrays travel as raw
little-endian buffers) — reconnect on transport failure with jittered
exponential backoff (capped at ``timeout``; a dead server is probed,
not hammered), honor the server's ``overloaded`` backpressure (sleep
``retry_after_ms``, then retry, up to ``retries`` times; the
:class:`Overloaded` raised when the final attempt is still overloaded
carries that final response's ``retry_after_ms`` hint so callers can
keep honoring it), and rebuild a full
:class:`~repro.core.result.RebalanceResult` from the response — the
returned object is interchangeable with an in-process solver call,
which is what lets :class:`~repro.websim.policies.ServicePolicy` drive
the simulator through the wire unchanged.

``delta=True`` (binary protocol only) turns on **delta snapshots**: the
client remembers, per shard, the last snapshot the server acknowledged
(by the ``fingerprint`` in its response) and ships only the changed
sites of the next one (:func:`repro.core.instance.compute_delta`).  A
server that no longer holds the base answers ``unknown base`` and the
client transparently resends the full snapshot — delta mode is a pure
bytes-on-wire optimization, never a different answer.  The
``deltas_sent`` / ``fulls_sent`` counters expose how often each path
ran.

:class:`ServiceClient` is the blocking client (tests, simulator
policies, scripts); :class:`AsyncServiceClient` is the asyncio client
the load generator fans out with.
"""

from __future__ import annotations

import asyncio
import json
import random
import socket
import time
from typing import Any

import numpy as np

from ..core.assignment import Assignment
from ..core.instance import Instance, compute_delta
from ..core.result import RebalanceResult
from .protocol import (
    PROTOCOL_V1,
    PROTOCOL_V2,
    ProtocolError,
    encode_frame,
    frame_header,
    peek_meta,
    read_frame,
    read_frame_raw,
    read_frame_sync,
    write_frame_sync,
)

__all__ = [
    "AsyncServiceClient",
    "ConnectionClosed",
    "Overloaded",
    "ServiceClient",
    "ServiceError",
]


class ServiceError(Exception):
    """The server answered ``ok: false`` (or the transport failed)."""

    def __init__(self, error: str, response: dict[str, Any] | None = None):
        super().__init__(error)
        self.error = error
        self.response = response or {}


class ConnectionClosed(ServiceError, ConnectionError):
    """The server closed the connection mid-request.

    Inherits :class:`ConnectionError` too so transport-level handlers
    (``except OSError``) see it as the transport failure it is — the
    cluster router fails over on transport errors only, never on
    well-formed error *responses* from a live backend.
    """


class Overloaded(ServiceError):
    """Admission control rejected the request; retry after the hint."""

    @property
    def retry_after_ms(self) -> float:
        return float(self.response.get("retry_after_ms", 5.0))


def _result_from_response(
    instance: Instance, response: dict[str, Any], latency_s: float
) -> RebalanceResult:
    if "mapping" in response:
        mapping = np.asarray(response["mapping"], dtype=np.int64)
    else:
        # Compact (moves_only) response: the mapping is the request's
        # own initial assignment plus the moved sites.
        mapping = np.array(instance.initial, dtype=np.int64)
        moves_idx = np.asarray(response["moves_idx"], dtype=np.int64)
        if moves_idx.shape[0]:
            mapping[moves_idx] = np.asarray(
                response["moves_to"], dtype=np.int64
            )
    assignment = Assignment(instance=instance, mapping=mapping)
    meta: dict[str, Any] = {"service": {"latency_s": latency_s}}
    if "batch" in response:
        meta["service"]["batch"] = response["batch"]
    return RebalanceResult(
        assignment=assignment,
        algorithm=response.get("algorithm", "service"),
        guessed_opt=response.get("guessed_opt"),
        planned_moves=response.get("planned_moves"),
        meta=meta,
    )


def _raise_for(response: dict[str, Any]) -> None:
    error = response.get("error", "unknown error")
    if error == "overloaded":
        raise Overloaded(error, response)
    raise ServiceError(error, response)


# Transport-retry backoff: first retry waits ~50ms, doubling per
# attempt, jittered into [0.5, 1.0] of the nominal delay so a fleet of
# clients losing one server does not reconnect in lockstep.  The cap is
# the client's own timeout — waiting longer than we would wait for a
# response makes no sense.
_BACKOFF_BASE_S = 0.05

# A ``moved`` redirect chain longer than this is a routing loop (e.g.
# two workers each claiming the other owns the shard), not a topology
# to follow.
_MAX_REDIRECTS = 8


def _transport_backoff_s(attempt: int, timeout: float) -> float:
    """Jittered exponential backoff before transport-failure retry
    number ``attempt`` (0-based), capped at ``timeout`` seconds."""
    nominal = min(max(0.0, timeout), _BACKOFF_BASE_S * (2.0 ** attempt))
    return nominal * random.uniform(0.5, 1.0)


class _WireState:
    """Shared protocol/delta bookkeeping of both client flavors.

    One instance may be shared by several :class:`AsyncServiceClient`
    connections (see ``wire_state=``): the delta base is a property of
    the *frontend* that observed the snapshot, not of any single TCP
    connection, and the server resolves bases per shard regardless of
    which connection named them.  With concurrent in-flight requests
    the base can update out of order; a delta against a slightly stale
    base is still correct (the server retains a window of recent
    bases, and "unknown base" falls back to a full snapshot).
    """

    def __init__(self, protocol: str, delta: bool) -> None:
        if protocol not in ("json", "binary"):
            raise ValueError(f"unknown protocol {protocol!r}")
        if delta and protocol != "binary":
            raise ValueError("delta snapshots require the binary protocol")
        self.protocol = protocol
        self.delta = delta
        self.version = PROTOCOL_V2 if protocol == "binary" else PROTOCOL_V1
        # Per shard: (fingerprint hex, instance) of the last snapshot
        # the server acknowledged — the delta base.
        self.bases: dict[str, tuple[str, Instance]] = {}
        # Per shard: the direct port of the sharded-router worker that
        # owns it, learned from ``moved`` redirects.  Empty against a
        # single-process server/router (nothing ever answers ``moved``).
        self.ports: dict[str, int] = {}
        self.deltas_sent = 0
        self.fulls_sent = 0
        self.moved_redirects = 0

    def rebalance_message(
        self,
        instance: Instance,
        k: int,
        shard: str,
        deadline_ms: float | None,
        *,
        full: bool = False,
        op: str = "rebalance",
        moves_only: bool = False,
    ) -> tuple[dict[str, Any], bool]:
        """The request body and whether it carries a delta.

        A delta is only worth sending when it is actually smaller on the
        wire: a full snapshot ships ``3n`` array values, a delta ``4c``
        (the index array rides along), so ``4c < 3n`` is the cutover.
        ``op`` lets the cluster router reuse the same delta machinery
        for node-to-node ``replicate`` frames.  ``moves_only`` asks the
        server for the compact response (moved sites instead of the
        full mapping) — symmetric with deltas, it takes the *response*
        from O(n) to O(moves); servers that do not support it ignore
        the flag and answer with a mapping.
        """
        message: dict[str, Any] = {"op": op, "shard": shard, "k": k}
        if deadline_ms is not None:
            message["deadline_ms"] = deadline_ms
        if moves_only:
            message["moves_only"] = True
        sent_delta = False
        if self.delta and not full:
            base = self.bases.get(shard)
            if base is not None:
                fp_hex, base_instance = base
                delta = compute_delta(base_instance, instance)
                if delta is not None and 4 * len(delta["idx"]) < 3 * instance.num_jobs:
                    message["delta"] = {"base": fp_hex, **delta}
                    sent_delta = True
        if not sent_delta:
            message["instance"] = (
                instance.to_wire() if self.protocol == "binary"
                else instance.to_dict()
            )
        if sent_delta:
            self.deltas_sent += 1
        else:
            self.fulls_sent += 1
        return message, sent_delta

    def note_response(
        self, shard: str, instance: Instance, response: dict[str, Any]
    ) -> None:
        if not self.delta:
            return
        fp_hex = response.get("fingerprint")
        if isinstance(fp_hex, str):
            self.bases[shard] = (fp_hex, instance)

    def note_moved(self, shard: str, port: int) -> None:
        self.ports[shard] = int(port)
        self.moved_redirects += 1

    def forget_port(self, shard: str) -> None:
        """Drop a cached redirect — the worker behind it died or was
        respawned on a fresh port; the shared port re-redirects."""
        self.ports.pop(shard, None)

    def forget(self, shard: str | None) -> None:
        if shard is None:
            self.bases.clear()
        else:
            self.bases.pop(shard, None)


class ServiceClient:
    """Blocking client over lazily (re)connected TCP sockets.

    One request is in flight per client at a time (the protocol is
    request/response per connection); use several clients — or the
    async client — for concurrency.  Against a sharded router the
    client keeps one socket per *port* it has been redirected to
    (shared port plus the direct ports of the workers owning its
    shards); against a plain server only the primary socket exists.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        retries: int = 3,
        protocol: str = "json",
        delta: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        self._wire = _WireState(protocol, delta)
        self._socks: dict[int, socket.socket] = {}
        # Observability for retry behavior (tests pin the no-spin fix).
        self.transport_retries = 0
        self.backoff_slept_s = 0.0

    @property
    def deltas_sent(self) -> int:
        """Rebalance requests that went out as delta frames."""
        return self._wire.deltas_sent

    @property
    def fulls_sent(self) -> int:
        """Rebalance requests that went out as full snapshots."""
        return self._wire.fulls_sent

    @property
    def moved_redirects(self) -> int:
        """``moved`` redirects followed (sharded router only)."""
        return self._wire.moved_redirects

    # -- connection management ----------------------------------------
    def _connection(self, port: int) -> socket.socket:
        sock = self._socks.get(port)
        if sock is None:
            sock = socket.create_connection(
                (self.host, port), timeout=self.timeout
            )
            self._socks[port] = sock
        return sock

    def _drop(self, port: int) -> None:
        sock = self._socks.pop(port, None)
        if sock is not None:
            try:
                sock.close()
            except OSError:  # pragma: no cover - close never blocks us
                pass

    def close(self) -> None:
        for port in list(self._socks):
            self._drop(port)

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- raw request/response -----------------------------------------
    def call(
        self,
        message: dict[str, Any],
        *,
        shard: str | None = None,
        encoded: bytes | bytearray | memoryview | None = None,
    ) -> dict[str, Any]:
        """One round-trip, with reconnect-and-retry on transport
        failure (jittered exponential backoff, capped at ``timeout``),
        overload backoff, and ``moved`` redirect following (a redirect
        is routing, not a failure — it does not consume the retry
        budget).  ``encoded`` sends a pre-encoded frame verbatim
        instead of encoding ``message`` (see
        :class:`~repro.service.protocol.RebalanceEncoder`); the bytes
        must stay valid for the duration of the call.  Returns the raw
        response."""
        if shard is None:
            maybe = message.get("shard")
            shard = maybe if isinstance(maybe, str) else None
        last_error: Exception | None = None
        attempt = 0
        redirects = 0
        while attempt <= self.retries:
            port = (
                self._wire.ports.get(shard, self.port)
                if shard is not None else self.port
            )
            try:
                sock = self._connection(port)
                if encoded is not None:
                    sock.sendall(encoded)
                else:
                    write_frame_sync(sock, message, version=self._wire.version)
                response = read_frame_sync(sock)
                if response is None:
                    raise ConnectionClosed("server closed the connection")
            except (OSError, ProtocolError, ServiceError) as exc:
                # Dead or poisoned connection: drop it and retry fresh —
                # after a backoff, so a dead server sees a probe per
                # backoff window instead of a tight reconnect spin.
                self._drop(port)
                if shard is not None and port != self.port:
                    # The cached redirect may outlive its worker (a
                    # respawn listens on a fresh port): fall back to
                    # the shared port, which knows the new owner.
                    self._wire.forget_port(shard)
                last_error = exc
                attempt += 1
                if attempt <= self.retries:
                    self.transport_retries += 1
                    delay = _transport_backoff_s(attempt - 1, self.timeout)
                    self.backoff_slept_s += delay
                    time.sleep(delay)
                continue
            if not response.get("ok") and response.get("error") == "moved":
                target = response.get("port")
                if (
                    shard is not None
                    and isinstance(target, int)
                    and target > 0
                    and redirects < _MAX_REDIRECTS
                ):
                    redirects += 1
                    self._wire.note_moved(shard, target)
                    continue
                last_error = ServiceError("moved", response)
                attempt += 1
                continue
            if not response.get("ok") and response.get("error") == "overloaded":
                # The raised Overloaded (below, after the last attempt)
                # carries this response, so its retry_after_ms hint
                # survives to the caller even when every attempt was
                # rejected.
                last_error = Overloaded("overloaded", response)
                attempt += 1
                if attempt <= self.retries:
                    time.sleep(
                        float(response.get("retry_after_ms", 5.0)) / 1e3
                    )
                continue
            return response
        if last_error is None:
            # Only a negative budget skips every attempt.
            raise ValueError(f"retries must be non-negative, got {self.retries}")
        raise last_error

    def call_encoded(
        self,
        frame: bytes | bytearray | memoryview,
        *,
        shard: str | None = None,
    ) -> dict[str, Any]:
        """Round-trip a pre-encoded frame with the full retry/redirect
        machinery of :meth:`call`."""
        return self.call({}, shard=shard, encoded=frame)

    # -- operations ----------------------------------------------------
    def rebalance(
        self,
        instance: Instance,
        k: int,
        *,
        shard: str = "default",
        deadline_ms: float | None = None,
        moves_only: bool = False,
    ) -> RebalanceResult:
        """Solve one snapshot remotely; raises :class:`ServiceError` on
        a non-ok response that outlives the retry budget."""
        message, sent_delta = self._wire.rebalance_message(
            instance, k, shard, deadline_ms, moves_only=moves_only
        )
        start = time.perf_counter()
        response = self.call(message)
        if sent_delta and response.get("error") == "unknown base":
            # The server evicted (or restarted past) our base: fall
            # back to a full snapshot, once, and rebase from there.
            self._wire.forget(shard)
            message, _ = self._wire.rebalance_message(
                instance, k, shard, deadline_ms, full=True,
                moves_only=moves_only,
            )
            response = self.call(message)
        if not response.get("ok"):
            _raise_for(response)
        self._wire.note_response(shard, instance, response)
        return _result_from_response(
            instance, response, time.perf_counter() - start
        )

    def status(self) -> dict[str, Any]:
        response = self.call({"op": "status"})
        if not response.get("ok"):
            _raise_for(response)  # pragma: no cover - status cannot fail
        return response

    def reset(self, shard: str | None = None) -> list[str]:
        message: dict[str, Any] = {"op": "reset"}
        if shard is not None:
            message["shard"] = shard
        response = self.call(message)
        if not response.get("ok"):
            _raise_for(response)  # pragma: no cover - reset cannot fail
        self._wire.forget(shard)
        return list(response.get("reset", []))

    def ping(self) -> bool:
        return bool(self.call({"op": "ping"}).get("ok"))


class AsyncServiceClient:
    """Asyncio client over one stream pair; same retry semantics."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        timeout: float = 30.0,
        retries: int = 3,
        protocol: str = "json",
        delta: bool = False,
        wire_state: _WireState | None = None,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.retries = retries
        # A caller-supplied wire state shares the delta-base registry
        # (and delta/full counters and the moved-port cache) across a
        # pool of connections.
        self._wire = wire_state if wire_state is not None else _WireState(protocol, delta)
        self._streams: dict[int, tuple[asyncio.StreamReader, asyncio.StreamWriter]] = {}
        # Observability for retry behavior (tests pin the no-spin fix).
        self.transport_retries = 0
        self.backoff_slept_s = 0.0

    @property
    def deltas_sent(self) -> int:
        """Rebalance requests that went out as delta frames."""
        return self._wire.deltas_sent

    @property
    def fulls_sent(self) -> int:
        """Rebalance requests that went out as full snapshots."""
        return self._wire.fulls_sent

    @property
    def moved_redirects(self) -> int:
        """``moved`` redirects followed (sharded router only)."""
        return self._wire.moved_redirects

    async def _connection(
        self, port: int
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        streams = self._streams.get(port)
        if streams is None:
            streams = await asyncio.wait_for(
                asyncio.open_connection(self.host, port), self.timeout
            )
            self._streams[port] = streams
        return streams

    async def _drop(self, port: int) -> None:
        streams = self._streams.pop(port, None)
        if streams is not None:
            _, writer = streams
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover
                pass

    async def close(self) -> None:
        for port in list(self._streams):
            await self._drop(port)

    async def __aenter__(self) -> "AsyncServiceClient":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()

    async def call(
        self,
        message: dict[str, Any],
        *,
        shard: str | None = None,
        encoded: bytes | bytearray | memoryview | None = None,
    ) -> dict[str, Any]:
        """One round-trip with reconnect/overload retry (async).

        Same semantics as :meth:`ServiceClient.call`: transport
        failures back off exponentially with jitter (capped at
        ``timeout``) before the reconnect, overloaded responses sleep
        the server's ``retry_after_ms`` hint, ``moved`` redirects are
        followed without consuming the retry budget, and the final
        attempt's failure is what the caller sees.
        """
        if shard is None:
            maybe = message.get("shard")
            shard = maybe if isinstance(maybe, str) else None
        last_error: Exception | None = None
        attempt = 0
        redirects = 0
        while attempt <= self.retries:
            port = (
                self._wire.ports.get(shard, self.port)
                if shard is not None else self.port
            )
            try:
                reader, writer = await self._connection(port)
                if encoded is not None:
                    writer.write(encoded)
                else:
                    writer.write(
                        encode_frame(message, version=self._wire.version)
                    )
                await writer.drain()
                response = await asyncio.wait_for(
                    read_frame(reader), self.timeout
                )
                if response is None:
                    raise ConnectionClosed("server closed the connection")
            except (OSError, ProtocolError, asyncio.TimeoutError, ServiceError) as exc:
                # Dead or poisoned connection: drop it and retry fresh —
                # after a backoff, so a dead server sees a probe per
                # backoff window instead of a tight reconnect spin.
                await self._drop(port)
                if shard is not None and port != self.port:
                    # The cached redirect may outlive its worker (a
                    # respawn listens on a fresh port): fall back to
                    # the shared port, which knows the new owner.
                    self._wire.forget_port(shard)
                last_error = exc
                attempt += 1
                if attempt <= self.retries:
                    self.transport_retries += 1
                    delay = _transport_backoff_s(attempt - 1, self.timeout)
                    self.backoff_slept_s += delay
                    await asyncio.sleep(delay)
                continue
            if not response.get("ok") and response.get("error") == "moved":
                target = response.get("port")
                if (
                    shard is not None
                    and isinstance(target, int)
                    and target > 0
                    and redirects < _MAX_REDIRECTS
                ):
                    redirects += 1
                    self._wire.note_moved(shard, target)
                    continue
                last_error = ServiceError("moved", response)
                attempt += 1
                continue
            if not response.get("ok") and response.get("error") == "overloaded":
                # The raised Overloaded (below, after the last attempt)
                # carries this response, so its retry_after_ms hint
                # survives to the caller even when every attempt was
                # rejected.
                last_error = Overloaded("overloaded", response)
                attempt += 1
                if attempt <= self.retries:
                    await asyncio.sleep(
                        float(response.get("retry_after_ms", 5.0)) / 1e3
                    )
                continue
            return response
        if last_error is None:
            # Only a negative budget skips every attempt.
            raise ValueError(f"retries must be non-negative, got {self.retries}")
        raise last_error

    async def call_encoded(
        self,
        frame: bytes | bytearray | memoryview,
        *,
        shard: str | None = None,
    ) -> dict[str, Any]:
        """Round-trip a pre-encoded frame with the full retry/redirect
        machinery of :meth:`call`."""
        return await self.call({}, shard=shard, encoded=frame)

    async def relay(
        self, body: bytes | bytearray | memoryview, version: int
    ) -> tuple[dict[str, Any], bytes, int]:
        """Round-trip a raw frame *body* verbatim — the
        zero-materialization path of the sharded-router data plane.

        Sends ``frame_header + body``, reads the response frame without
        decoding its arrays, and returns ``(response_meta, raw_response
        body, response_version)`` — the meta (via
        :func:`~repro.service.protocol.peek_meta`) is enough to decide
        ok/fingerprint/error, and the raw body can be relayed onward
        byte-for-byte.  No retries: a transport failure is routing
        signal for the caller, which replays on another node.
        """
        port = self.port
        try:
            reader, writer = await self._connection(port)
            writer.write(frame_header(len(body), version=version))
            writer.write(body)
            await writer.drain()
            raw = await asyncio.wait_for(read_frame_raw(reader), self.timeout)
            if raw is None:
                raise ConnectionClosed("server closed the connection")
        except BaseException:
            # Also covers cancellation mid-frame: a half-read
            # connection must not be reused.
            await self._drop(port)
            raise
        resp_body, resp_version = raw
        if resp_version == PROTOCOL_V2:
            meta = peek_meta(resp_body)
        else:
            meta = json.loads(bytes(resp_body).decode("utf-8"))
        return meta, resp_body, resp_version

    async def rebalance(
        self,
        instance: Instance,
        k: int,
        *,
        shard: str = "default",
        deadline_ms: float | None = None,
        moves_only: bool = False,
    ) -> RebalanceResult:
        message, sent_delta = self._wire.rebalance_message(
            instance, k, shard, deadline_ms, moves_only=moves_only
        )
        start = time.perf_counter()
        response = await self.call(message)
        if sent_delta and response.get("error") == "unknown base":
            self._wire.forget(shard)
            message, _ = self._wire.rebalance_message(
                instance, k, shard, deadline_ms, full=True,
                moves_only=moves_only,
            )
            response = await self.call(message)
        if not response.get("ok"):
            _raise_for(response)
        self._wire.note_response(shard, instance, response)
        return _result_from_response(
            instance, response, time.perf_counter() - start
        )

    async def status(self) -> dict[str, Any]:
        response = await self.call({"op": "status"})
        if not response.get("ok"):
            _raise_for(response)  # pragma: no cover - status cannot fail
        return response

    async def reset(self, shard: str | None = None) -> list[str]:
        """Reset server shard state; mirrors :meth:`ServiceClient.reset`
        (including dropping the local delta base, so the next snapshot
        goes out full instead of naming a base the server forgot)."""
        message: dict[str, Any] = {"op": "reset"}
        if shard is not None:
            message["shard"] = shard
        response = await self.call(message)
        if not response.get("ok"):
            _raise_for(response)  # pragma: no cover - reset cannot fail
        self._wire.forget(shard)
        return list(response.get("reset", []))

    async def ping(self) -> bool:
        return bool((await self.call({"op": "ping"})).get("ok"))
