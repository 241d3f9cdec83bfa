"""The process executor's solve plane: server-level behavior.

Process workers own each shard's resident arrays and warm engine, so a
full snapshot crosses the worker pipe once per install and every later
delta crosses as O(churn) frames.  Every test pins the decision stream
against the from-scratch solver while checking those mechanics: one
install per distinct tip, delta solves whose pipe bytes do not scale
with the snapshot, and the inline path of an engine-less server.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import m_partition_rebalance, make_instance
from repro.service import ServerConfig, ServiceClient, start_background
from repro.service.resident import ResidentShard


def _instance(seed: int = 0, n: int = 30, m: int = 4):
    rng = np.random.default_rng(seed)
    return make_instance(
        sizes=rng.uniform(1.0, 9.0, n),
        initial=rng.integers(0, m, n),
        num_processors=m,
    )


def _same_decision(result, scratch):
    assert np.array_equal(
        result.assignment.mapping, scratch.assignment.mapping
    )
    assert result.guessed_opt == scratch.guessed_opt
    assert result.planned_moves == scratch.planned_moves


def _ipc_bytes(counters) -> int:
    return counters.get("service.ipc_bytes_out", 0) + counters.get(
        "service.ipc_bytes_in", 0
    )


@pytest.fixture(scope="class")
def process_server():
    """One process-executor server shared by the class (spawn is slow)."""
    config = ServerConfig(executor="process", process_workers=2)
    with start_background(config) as handle:
        yield handle


class TestShmPlane:
    def test_decisions_match_scratch_and_plane_engages(self, process_server):
        insts = [_instance(seed=s, n=60) for s in (1, 2, 3)]
        with ServiceClient(process_server.host, process_server.port) as client:
            before = client.status()["metrics"]["counters"].get(
                "service.resident_installs", 0
            )
            for i, inst in enumerate(insts):
                result = client.rebalance(inst, 3, shard=f"plane-{i}")
                _same_decision(result, m_partition_rebalance(inst, 3))
            status = client.status()
        assert status["metrics"]["counters"]["service.resident_installs"] >= before + 3
        for i in range(3):
            assert status["residents"][f"plane-{i}"]["needs_install"] is False

    def test_solve_request_bytes_independent_of_n(self, process_server):
        """After one install, a steady delta solve crosses the worker
        pipe as frames: its bytes (request and moves-only reply) stay
        under ``8n`` — the inline sizes array alone — and flat across
        n."""
        per_solve = {}
        for n in (2_000, 8_000):
            res = ResidentShard(_instance(seed=10, n=n))
            rng = np.random.default_rng(n)
            with ServiceClient(
                process_server.host, process_server.port, protocol="binary"
            ) as client:
                shard = f"bytes-{n}"
                assert client.call({
                    "op": "rebalance", "shard": shard, "k": 3,
                    "moves_only": True,
                    "instance": res.export_instance().to_wire(),
                })["ok"]
                idx = np.sort(rng.choice(n, size=8, replace=False))
                delta = {
                    "base": res.fp_hex, "idx": idx,
                    "sizes": res.sizes[idx] * 1.5,
                    "costs": res.costs[idx].copy(),
                    "initial": res.initial[idx].copy(),
                }
                frame, fp = res.preview(delta)
                res.commit(frame, fp)
                before = _ipc_bytes(client.status()["metrics"]["counters"])
                response = client.call({
                    "op": "rebalance", "shard": shard, "k": 3,
                    "moves_only": True, "delta": delta,
                })
                after = _ipc_bytes(client.status()["metrics"]["counters"])
            assert response["ok"]
            assert response["fingerprint"] == res.fp_hex
            mapping = res.initial.copy()
            mapping[np.asarray(response["moves_idx"], dtype=np.int64)] = (
                np.asarray(response["moves_to"], dtype=np.int64)
            )
            want = m_partition_rebalance(res.export_instance(), 3)
            np.testing.assert_array_equal(mapping, want.assignment.mapping)
            per_solve[n] = after - before
        assert per_solve[8_000] < 8 * 8_000
        assert per_solve[8_000] <= 1.5 * per_solve[2_000]

    def test_repeated_snapshot_written_once(self, process_server):
        inst = _instance(seed=11, n=50)
        with ServiceClient(process_server.host, process_server.port) as client:
            counters = client.status()["metrics"]["counters"]
            before = counters.get("service.resident_installs", 0)
            client.rebalance(inst, 2, shard="once-a")
            client.rebalance(inst, 2, shard="once-b")
            client.rebalance(inst, 2, shard="once-a")
            counters = client.status()["metrics"]["counters"]
        # Three requests, two shards: one install per shard.
        assert counters["service.resident_installs"] == before + 2

    def test_status_reports_plane_accounting(self, process_server):
        inst = _instance(seed=12, n=40)
        with ServiceClient(
            process_server.host, process_server.port, protocol="binary"
        ) as client:
            response = client.call({
                "op": "rebalance", "shard": "acct", "k": 2,
                "instance": inst.to_wire(),
            })
            status = client.status()
        resident = status["residents"]["acct"]
        assert resident["fingerprint"] == response["fingerprint"]
        assert resident["num_jobs"] == 40
        assert resident["pending_frames"] == 0   # nothing parked
        assert resident["needs_install"] is False  # the worker holds it
        assert status["shards"]["acct"]["decisions"] >= 1


class TestShmFallbacks:
    def test_disabled_plane_serves_inline(self):
        """Without the warm engine there is no resident plane: every
        solve ships its snapshot inline, and decides from scratch."""
        config = ServerConfig(
            executor="process", process_workers=2, use_engine=False
        )
        inst = _instance(seed=13, n=50)
        with start_background(config) as handle:
            with ServiceClient(handle.host, handle.port) as client:
                result = client.rebalance(inst, 3)
                status = client.status()
        _same_decision(result, m_partition_rebalance(inst, 3))
        counters = status["metrics"]["counters"]
        assert status["residents"] is None
        assert "service.resident_installs" not in counters
        assert counters["service.ipc_bytes_out"] >= 8 * inst.num_jobs

    def test_reset_releases_base_holds(self):
        """``reset`` drops a shard's delta bases and resident tip on the
        event loop and its solve state in the worker: a delta against
        the old fingerprint then bounces, and a full resend installs
        afresh."""
        config = ServerConfig(executor="process", process_workers=1)
        inst = _instance(seed=19, n=40)
        with start_background(config) as handle:
            with ServiceClient(
                handle.host, handle.port, protocol="binary"
            ) as client:
                first = client.call({
                    "op": "rebalance", "shard": "rel", "k": 2,
                    "instance": inst.to_wire(),
                })
                assert "rel" in client.status()["residents"]
                assert client.reset() == ["rel"]
                status = client.status()
                assert "rel" not in status["residents"]
                assert status["shards"]["rel"]["decisions"] == 0
                bounced = client.call({
                    "op": "rebalance", "shard": "rel", "k": 2,
                    "delta": {
                        "base": first["fingerprint"], "idx": np.array([1]),
                        "sizes": np.array([4.0]), "costs": np.array([1.0]),
                        "initial": np.array([0]),
                    },
                })
                again = client.rebalance(inst, 2, shard="rel")
        assert bounced["error"] == "unknown base"
        _same_decision(again, m_partition_rebalance(inst, 2))
