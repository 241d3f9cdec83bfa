"""E16 — the process executor's resident solve plane.

The acceptance configuration — process workers own each shard's
resident arrays, so a delta stream sustains a churn load the same
server collapses under when fed full snapshots (>= 5x goodput via a
hunted rate window), a steady delta solve's worker-pipe bytes do not
scale with the snapshot, and the steady-state response memo answers at
sub-ms p50 — lives in the scenario catalog (``repro.scenarios``,
scenario E16, bench runner ``e16-shm``); the acceptance test here is a
thin shim over ``run_scenario``, which also refreshes the
``BENCH_e16.json`` working copy.  The single-solve ipc smoke remains
local for fast feedback.
"""

import numpy as np

from repro.analysis import experiment_e16_shm
from repro.core import make_instance
from repro.scenarios import run_scenario
from repro.service import ServerConfig, ServiceClient, start_background


def test_e16_table(benchmark, show_report):
    report = benchmark.pedantic(experiment_e16_shm, rounds=1, iterations=1)
    show_report(report)
    alive_col = report.columns.index("alive")
    err_col = report.columns.index("err")
    assert len(report.rows) == 3
    assert all(row[alive_col] for row in report.rows)
    assert all(row[err_col] == 0 for row in report.rows)


def test_solve_ipc_bytes_independent_of_n():
    """The tentpole wire property, pinned across a 4x snapshot growth:
    after one install, a delta solve pushes only the changed sites over
    the worker pipe, so quadrupling the snapshot must not move its
    bytes (the inline sizes array alone would grow by 8n)."""
    per_solve = {}
    for n in (6_000, 24_000):
        rng = np.random.default_rng(n)
        inst = make_instance(
            sizes=rng.uniform(1.0, 9.0, n),
            initial=rng.integers(0, 12, n),
            num_processors=12,
        )
        sizes = inst.sizes.copy()
        sizes[rng.choice(n, size=16, replace=False)] *= 1.5
        changed = make_instance(
            sizes=sizes, initial=inst.initial, num_processors=12
        )
        config = ServerConfig(executor="process", process_workers=1)
        with start_background(config) as handle:
            with ServiceClient(
                handle.host, handle.port, protocol="binary", delta=True
            ) as client:
                client.rebalance(inst, 8, shard="ipc", moves_only=True)
                before = client.status()["metrics"]["counters"]
                client.rebalance(changed, 8, shard="ipc", moves_only=True)
                after = client.status()["metrics"]["counters"]
                assert client.deltas_sent == 1
        assert after["service.resident_installs"] == 1
        per_solve[n] = sum(
            after[key] - before[key]
            for key in ("service.ipc_bytes_out", "service.ipc_bytes_in")
        )
    small, big = per_solve[6_000], per_solve[24_000]
    print(f"\n[E16 ipc] delta solve pipe bytes: n=6000 -> {small}B, "
          f"n=24000 -> {big}B (ratio {big / small:.2f})")
    assert big < 8 * 24_000          # nowhere near one inline array
    assert big <= 1.5 * small        # flat across 4x snapshot growth


def test_shm_goodput_acceptance():
    """Delta frames sustain a churn load the same process-executor
    server collapses under when fed full snapshots, with the memo
    steady leg at sub-ms p50 (catalog scenario E16)."""
    result = run_scenario("E16")
    assert result.acceptance_ok, result.failure_summary()
