"""Client retry behavior: transport backoff, overload hints, reset.

Pins the retry bugfixes: transport failures back off with jittered
exponential delays (capped at the client timeout) instead of spinning
through reconnect attempts, the :class:`Overloaded` raised after the
final attempt carries *that* attempt's ``retry_after_ms`` hint, and
the async client's ``reset`` exists and drops the local delta base.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import numpy as np
import pytest

from repro.core import make_instance
from repro.service import (
    AsyncServiceClient,
    Overloaded,
    ServerConfig,
    ServiceClient,
    error_response,
    read_frame_sync,
    start_background,
    write_frame_sync,
)
from repro.service.client import _BACKOFF_BASE_S, _transport_backoff_s


def _dead_port() -> int:
    """A port that was just bound and released: connecting is refused."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _instance(seed: int = 3):
    rng = np.random.default_rng(seed)
    return make_instance(
        sizes=rng.uniform(1.0, 9.0, 16),
        initial=rng.integers(0, 4, 16),
        num_processors=4,
    )


class _OverloadedServer:
    """A server whose every answer is ``overloaded``, with a scripted
    ``retry_after_ms`` per response — exposes which attempt's hint the
    client ends up raising."""

    def __init__(self, hints: list[float]) -> None:
        self.hints = list(hints)
        self._sock = socket.create_server(("127.0.0.1", 0))
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        try:
            conn, _ = self._sock.accept()
            with conn:
                for hint in self.hints:
                    if read_frame_sync(conn) is None:
                        return
                    write_frame_sync(
                        conn,
                        error_response("overloaded", retry_after_ms=hint),
                    )
        except OSError:  # pragma: no cover - teardown race
            pass

    def close(self) -> None:
        self._sock.close()
        self._thread.join(timeout=5.0)


class TestTransportBackoff:
    def test_delay_grows_and_jitters_within_bounds(self):
        for attempt in range(8):
            nominal = _BACKOFF_BASE_S * (2.0 ** attempt)
            for _ in range(20):
                delay = _transport_backoff_s(attempt, timeout=30.0)
                assert 0.5 * nominal <= delay <= nominal

    def test_delay_capped_at_timeout(self):
        for attempt in range(12):
            assert _transport_backoff_s(attempt, timeout=0.2) <= 0.2

    def test_negative_timeout_never_sleeps_backwards(self):
        assert _transport_backoff_s(5, timeout=-1.0) == 0.0

    def test_sync_client_backs_off_instead_of_spinning(self):
        client = ServiceClient("127.0.0.1", _dead_port(), retries=3)
        start = time.perf_counter()
        with pytest.raises(OSError):
            client.ping()
        elapsed = time.perf_counter() - start
        assert client.transport_retries == 3
        # Minimum jitter is half the nominal 50/100/200ms ladder.
        assert client.backoff_slept_s >= 0.5 * (0.05 + 0.10 + 0.20)
        assert client.backoff_slept_s <= 0.05 + 0.10 + 0.20
        assert elapsed >= client.backoff_slept_s

    def test_async_client_backs_off_instead_of_spinning(self):
        async def go():
            client = AsyncServiceClient("127.0.0.1", _dead_port(), retries=3)
            start = time.perf_counter()
            with pytest.raises(OSError):
                await client.ping()
            elapsed = time.perf_counter() - start
            assert client.transport_retries == 3
            assert client.backoff_slept_s >= 0.5 * (0.05 + 0.10 + 0.20)
            assert elapsed >= client.backoff_slept_s
            await client.close()

        asyncio.run(go())

    def test_backoff_capped_by_small_timeout(self):
        client = ServiceClient(
            "127.0.0.1", _dead_port(), retries=3, timeout=0.02
        )
        with pytest.raises(OSError):
            client.ping()
        assert client.transport_retries == 3
        assert client.backoff_slept_s <= 3 * 0.02


class TestOverloadedHint:
    def test_sync_final_raise_carries_last_hint(self):
        server = _OverloadedServer([7.0, 11.0, 2.5])
        try:
            client = ServiceClient("127.0.0.1", server.port, retries=2)
            with pytest.raises(Overloaded) as excinfo:
                client.call({"op": "ping"})
            assert excinfo.value.retry_after_ms == 2.5
            client.close()
        finally:
            server.close()

    def test_async_final_raise_carries_last_hint(self):
        server = _OverloadedServer([7.0, 11.0, 2.5])

        async def go():
            client = AsyncServiceClient("127.0.0.1", server.port, retries=2)
            with pytest.raises(Overloaded) as excinfo:
                await client.call({"op": "ping"})
            assert excinfo.value.retry_after_ms == 2.5
            await client.close()

        try:
            asyncio.run(go())
        finally:
            server.close()

    def test_zero_retries_still_raises_with_hint(self):
        server = _OverloadedServer([42.0])
        try:
            client = ServiceClient("127.0.0.1", server.port, retries=0)
            with pytest.raises(Overloaded) as excinfo:
                client.call({"op": "ping"})
            assert excinfo.value.retry_after_ms == 42.0
            client.close()
        finally:
            server.close()

    def test_negative_retries_raise_value_error(self):
        """A negative budget makes no attempt: an explicit error, not
        an ``assert`` that ``python -O`` strips."""
        port = _dead_port()
        with pytest.raises(ValueError, match="retries"):
            ServiceClient("127.0.0.1", port, retries=-1).call({"op": "ping"})

        async def go():
            client = AsyncServiceClient("127.0.0.1", port, retries=-1)
            with pytest.raises(ValueError, match="retries"):
                await client.call({"op": "ping"})

        asyncio.run(go())


class TestAsyncReset:
    def test_reset_clears_server_shard_and_local_base(self):
        async def go(host, port):
            async with AsyncServiceClient(
                host, port, protocol="binary", delta=True
            ) as client:
                await client.rebalance(_instance(), 2, shard="ar")
                assert "ar" in client._wire.bases
                reset = await client.reset("ar")
                assert reset == ["ar"]
                assert "ar" not in client._wire.bases
                status = await client.status()
                assert status["shards"]["ar"]["decisions"] == 0
                # The next solve must go out full, not name a base the
                # server forgot.
                await client.rebalance(_instance(), 2, shard="ar")
                assert client.fulls_sent == 2

        with start_background(ServerConfig()) as handle:
            asyncio.run(go(handle.host, handle.port))
