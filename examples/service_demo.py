#!/usr/bin/env python
"""The rebalancing service, end to end in one process.

`repro.service` puts the paper's online setting on the wire: a
stdlib-asyncio TCP server holds one warm `RebalanceEngine` per named
shard behind an admission queue and a fingerprint-deduping
micro-batcher.  This demo walks the whole loop:

1. start a server in a background thread,
2. solve one snapshot remotely and check it matches the in-process
   solver byte for byte (the service's core contract),
3. fan out duplicate submissions of a snapshot the server has not
   answered yet with the async client, while a solve on another shard
   is in flight, and watch the batcher collapse them into a single
   solve,
4. read the server's own account of all that from ``status``,
5. run a short open-loop load-generation burst and print the report.

Run:  python examples/service_demo.py
"""

import asyncio

import numpy as np

from repro import make_instance
from repro.core import m_partition_rebalance
from repro.service import (
    AsyncServiceClient,
    LoadGenConfig,
    ServerConfig,
    ServiceClient,
    run_loadgen,
    start_background,
)

K = 4
rng = np.random.default_rng(11)
instance = make_instance(
    sizes=rng.integers(1, 50, 200).astype(float),
    initial=rng.integers(0, 8, 200),
    num_processors=8,
)

# Every solve sleeps 0.3 s on the solve thread (a synthetic service-time
# floor), so the storm of step 2 queues behind a solve on another shard
# and the batcher takes it as one batch; a straggler would be answered
# from the response memo, which carries no batch annotation.
with start_background(ServerConfig(solve_delay_s=0.3)) as server:
    print(f"-- server listening on {server.host}:{server.port}\n")

    # 1. one remote solve, checked against the in-process solver ------
    with ServiceClient(server.host, server.port) as client:
        remote = client.rebalance(instance, K, shard="demo")
        local = m_partition_rebalance(instance, K)
        assert np.array_equal(
            remote.assignment.mapping, local.assignment.mapping
        ), "wire changed the decision!"
        svc = remote.meta["service"]
        print(
            f"remote makespan {remote.makespan:.0f} == local "
            f"{local.makespan:.0f}  (round trip "
            f"{svc['latency_s'] * 1e3:.1f} ms, batch {svc['batch']})"
        )

        # 2. duplicate submissions collapse into one solve ------------
        # A fresh snapshot: one step 1 already answered would come back
        # from the response memo without reaching the batcher.
        fresh = make_instance(
            sizes=instance.sizes * 1.5,
            initial=remote.assignment.mapping,
            num_processors=8,
        )

        async def storm(copies: int = 6):
            blocker = AsyncServiceClient(server.host, server.port)
            clients = [
                AsyncServiceClient(server.host, server.port)
                for _ in range(copies)
            ]
            try:
                # Occupy the solve plane with another shard's solve;
                # the duplicates arrive while it runs.
                blocking = asyncio.ensure_future(
                    blocker.rebalance(instance, K, shard="blocker")
                )
                await asyncio.sleep(0.1)
                results = await asyncio.gather(
                    *(c.rebalance(fresh, K, shard="demo") for c in clients)
                )
                await blocking
                return results
            finally:
                for c in (blocker, *clients):
                    await c.close()

        results = asyncio.run(storm())
        batches = [r.meta["service"]["batch"] for r in results]
        print(f"6 concurrent identical requests -> batches {batches[0]} ...")
        assert any(b["unique"] < b["size"] for b in batches), "no dedupe?"

        # 3. the server's own view ------------------------------------
        status = client.status()
        shard = status["shards"]["demo"]
        print(
            f"shard 'demo': {shard['decisions']} decisions, engine stats "
            f"{shard['engine']}"
        )
        print(f"queue: {status['queue']}\n")

# 4. a short open-loop burst against a fresh server -------------------
with start_background(ServerConfig()) as server:
    config = LoadGenConfig(
        rate=40.0, duration_s=1.5, duplicates=4,
        num_sites=300, num_servers=8, k=K, deadline_ms=500.0, seed=3,
    )
    report = run_loadgen(server.host, server.port, config)
    print("-- loadgen (open loop, 40 req/s for 1.5 s, 4x duplicates)")
    print(report.render())
    assert report.errors == 0
