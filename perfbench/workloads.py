"""The three workloads: what each one sends, and how it is set up.

All are closed loops: every connection waits for a decision before it
sends the next request, because a shard's next epoch is a delta
against the fingerprint the last decision returned and carries that
decision's moves.  No workload uses a sleep floor.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "steady" | "cold" | "router"
    num_sites: int            # per shard
    num_servers: int = 64
    k: int = 8
    churn: int = 16           # sites whose load changes per epoch
    shards: int = 1           # shard streams seeded at set-up
    connections: int = 1      # each drives shards // connections streams
    setup_repeats: int = 1    # set-ups per run; setup_s is their median
    warmup: int = 3           # untimed decides after set-up
    rss_after: int = 50       # server_rss_mb is read after this many decides
    trace_decides: int = 300  # fixed work of each traced-run phase
    why: str = ""

    def serve_args(self) -> tuple[str, ...]:
        """Arguments of each ``serve`` process (program defaults else)."""
        if self.kind == "router":
            return ("--executor", "process", "--process-workers", "1")
        return ()

    @property
    def backends(self) -> int:
        return 2 if self.kind == "router" else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="steady-2e5", kind="steady", num_sites=200_000,
            # One set-up is one ~8 s cold seed install; a second would
            # not fit the benchmark's time budget.
            setup_repeats=1, rss_after=100, trace_decides=300,
            why="one 2e5-site shard streaming O(churn) deltas to one serve "
                "process: the warm engine's incremental scan at scale",
        ),
        Workload(
            name="cold-2e4", kind="cold", num_sites=20_000,
            setup_repeats=5, rss_after=40, trace_decides=100,
            why="every decide installs a new 2e4-site shard from a full "
                "snapshot: codec, resident install and the cold threshold scan",
        ),
        Workload(
            name="router-2e4", kind="router", num_sites=20_000, shards=8,
            connections=2, setup_repeats=2, rss_after=200, trace_decides=600,
            why="8 shards over 2 connections through a router to two "
                "process-executor backends with standby replication",
        ),
    )
}
