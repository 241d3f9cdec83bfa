"""End-to-end differential: the simulator driven through the wire.

The PR's acceptance test: a websim trajectory whose decisions travel
client -> server -> shard engine must be byte-identical to the same
trajectory decided in-process by :class:`EngineMPartitionPolicy` —
serialization, batching, admission and the shard engine together add
exactly nothing to the decision stream.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.service import ServerConfig, ServiceClient, start_background
from repro.websim import (
    ComposedTraffic,
    DiurnalTraffic,
    EngineMPartitionPolicy,
    FlashCrowdTraffic,
    ServicePolicy,
    Simulation,
    build_cluster,
)

EPOCHS = 12
K = 3


def _simulation(policy, seed: int = 21):
    rng = np.random.default_rng(seed)
    cluster = build_cluster(80, 6, rng)
    traffic = ComposedTraffic(
        (DiurnalTraffic(), FlashCrowdTraffic(probability=0.2))
    )
    return Simulation(cluster=cluster, traffic=traffic, policy=policy,
                      seed=seed)


@pytest.fixture()
def server():
    with start_background(ServerConfig()) as handle:
        yield handle


class TestServicePolicyDifferential:
    def test_trajectory_identical_to_in_process_engine(self, server):
        remote = _simulation(
            ServicePolicy(server.host, server.port, k=K)
        ).run(EPOCHS)
        local = _simulation(EngineMPartitionPolicy(k=K)).run(EPOCHS)
        assert len(remote.records) == len(local.records) == EPOCHS
        for ours, theirs in zip(remote.records, local.records):
            assert ours.makespan == theirs.makespan
            assert ours.migrations == theirs.migrations
            assert ours.migration_cost == theirs.migration_cost
            assert ours.imbalance == theirs.imbalance

    def test_repeated_runs_identical_through_warm_shard(self, server):
        """The second run hits a server shard warmed by the first; the
        engine contract keeps the trajectory byte-identical anyway."""
        sim = _simulation(ServicePolicy(server.host, server.port, k=K))
        first = sim.run(EPOCHS)
        second = sim.run(EPOCHS)
        for a, b in zip(first.records, second.records):
            assert a.makespan == b.makespan
            assert a.migrations == b.migrations

    def test_two_shards_interleaved_match_isolated(self, server):
        """Two simulations multiplexed over one server on separate
        shards each match their isolated in-process trajectory."""
        remote_a = _simulation(
            ServicePolicy(server.host, server.port, k=K, shard="a"),
            seed=5,
        )
        remote_b = _simulation(
            ServicePolicy(server.host, server.port, k=K, shard="b"),
            seed=6,
        )
        # Interleave epoch decisions by running both sims' epochs in
        # lockstep: run() itself is serial per sim, so interleaving
        # happens at shard granularity via alternating short runs.
        for sim in (remote_a, remote_b, remote_a, remote_b):
            sim.run(EPOCHS // 2)
        got_a = remote_a.run(EPOCHS)
        got_b = remote_b.run(EPOCHS)
        want_a = _simulation(EngineMPartitionPolicy(k=K), seed=5).run(EPOCHS)
        want_b = _simulation(EngineMPartitionPolicy(k=K), seed=6).run(EPOCHS)
        for got, want in ((got_a, want_a), (got_b, want_b)):
            for ours, theirs in zip(got.records, want.records):
                assert ours.makespan == theirs.makespan
                assert ours.migrations == theirs.migrations


class TestTransportDifferential:
    """The PR's acceptance test: the same simulation driven over
    v1-JSON, v2-binary, and v2-delta transports — and through the
    multi-process shard executor — produces byte-identical
    trajectories.  The wire format and the executor are pure transport;
    the decision stream never changes."""

    TRANSPORTS = (
        {"protocol": "json"},
        {"protocol": "binary"},
        {"protocol": "binary", "delta": True},
    )

    @staticmethod
    def _trajectory(host, port, seed, **kwargs):
        policy = ServicePolicy(host, port, k=K, **kwargs)
        try:
            return _simulation(policy, seed=seed).run(EPOCHS)
        finally:
            policy.close()

    @staticmethod
    def _assert_identical(got, want):
        assert len(got.records) == len(want.records) == EPOCHS
        for ours, theirs in zip(got.records, want.records):
            assert ours.makespan == theirs.makespan
            assert ours.migrations == theirs.migrations
            assert ours.migration_cost == theirs.migration_cost
            assert ours.imbalance == theirs.imbalance

    def test_all_transports_identical_to_in_process(self, server):
        want = _simulation(EngineMPartitionPolicy(k=K), seed=33).run(EPOCHS)
        for index, kwargs in enumerate(self.TRANSPORTS):
            got = self._trajectory(
                server.host, server.port, 33,
                shard=f"transport-{index}", **kwargs,
            )
            self._assert_identical(got, want)

    def test_delta_transport_actually_sent_deltas(self, server):
        # Flash crowds only: the diurnal term would move every site
        # every epoch, making full snapshots the (correctly) cheaper
        # choice.  Sparse churn is the regime deltas exist for.
        rng = np.random.default_rng(34)
        policy = ServicePolicy(
            server.host, server.port, k=K,
            shard="delta-count", protocol="binary", delta=True,
        )
        sim = Simulation(
            cluster=build_cluster(80, 6, rng),
            # probability=1: one spiking site every epoch — churn is
            # guaranteed yet sparse, so every epoch after the first
            # clears the client's delta-vs-full size cutover.
            traffic=FlashCrowdTraffic(probability=1.0),
            policy=policy,
            seed=34,
        )
        try:
            sim.run(EPOCHS)
            # Simulation.run deep-copies the policy, so the counters
            # live on the copy's client; the server's metric is the
            # observable ground truth that deltas arrived and applied.
            with ServiceClient(server.host, server.port) as probe:
                counters = probe.status()["metrics"]["counters"]
            assert counters.get("service.delta_applied", 0) > 0
        finally:
            policy.close()

    def test_process_executor_trajectory_identical(self):
        """Byte-identical through the process executor, whose workers
        own the resident arrays and take deltas as frames — the worker
        pipe is pure transport, never a different decision."""
        config = ServerConfig(executor="process", process_workers=2)
        want = _simulation(EngineMPartitionPolicy(k=K), seed=35).run(EPOCHS)
        with start_background(config) as handle:
            got = self._trajectory(
                handle.host, handle.port, 35,
                shard="proc", protocol="binary", delta=True,
            )
            with ServiceClient(handle.host, handle.port) as probe:
                status = probe.status()
        self._assert_identical(got, want)
        assert status["metrics"]["counters"].get(
            "service.resident_deltas", 0
        ) > 0


class TestServicePolicyMechanics:
    def test_deepcopy_detaches_client(self, server):
        policy = ServicePolicy(server.host, server.port, k=K)
        assert policy.client.ping()
        clone = copy.deepcopy(policy)
        assert clone._client is None
        assert clone.host == policy.host and clone.port == policy.port
        assert clone.client.ping()
        policy.close()
        clone.close()

    def test_reset_clears_server_shard(self, server):
        policy = ServicePolicy(server.host, server.port, k=K, shard="r")
        sim = _simulation(policy)
        sim.run(3)
        policy.reset()
        with ServiceClient(server.host, server.port) as probe:
            status = probe.status()
        assert status["shards"]["r"]["decisions"] == 0
        policy.close()

    def test_close_is_idempotent(self, server):
        policy = ServicePolicy(server.host, server.port)
        policy.close()
        policy.close()
