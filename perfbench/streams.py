"""Seeded shard streams: the inputs of every workload, and their replay.

A shard stream is the loadgen churn-stream model: Zipf site loads with
unit migration costs, ``churn`` sites whose load changes each epoch,
and the moves of each decision folded into the next epoch's delta.
The stream is a pure function of ``(seed, index)`` and the decisions
it receives, so replaying it through an in-process
:class:`~repro.core.engine.RebalanceEngine` reproduces the trajectory
digest a correct service must produce.
"""

from __future__ import annotations

import hashlib
import json
import sys
from functools import lru_cache

import numpy as np

from repro.core.engine import RebalanceEngine
from repro.core.instance import Instance
from repro.service.protocol import RebalanceEncoder
from repro.service.resident import ResidentShard
from repro.websim.traffic import zipf_popularities


@lru_cache(maxsize=4)
def _zipf_sizes(num_sites: int) -> np.ndarray:
    sizes = np.maximum(zipf_popularities(num_sites, exponent=0.9), 1e-9)
    sizes.setflags(write=False)
    return sizes


def seed_instance(
    num_sites: int, num_servers: int, rng: np.random.Generator | None = None
) -> Instance:
    """Zipf loads on ``num_servers``: round-robin placement, or a random
    one drawn from ``rng``."""
    if rng is None:
        initial = np.arange(num_sites, dtype=np.int64) % num_servers
    else:
        initial = rng.integers(0, num_servers, num_sites, dtype=np.int64)
    return Instance(
        sizes=_zipf_sizes(num_sites).copy(),
        costs=np.ones(num_sites, dtype=np.float64),
        num_processors=num_servers,
        initial=initial,
    )


class ShardStream:
    """One shard's epochs, its client-side tip and its trajectory digest."""

    def __init__(
        self,
        name: str,
        *,
        seed: int,
        index: int,
        num_sites: int,
        num_servers: int,
        k: int,
        churn: int,
        random_placement: bool = False,
    ) -> None:
        self.name = name
        self.index = index
        self.k = k
        self.churn = churn
        self.rng = np.random.default_rng([seed, index])
        self.tip = ResidentShard(seed_instance(
            num_sites, num_servers, self.rng if random_placement else None
        ))
        self.moves_idx = np.empty(0, dtype=np.int64)
        self.moves_to = np.empty(0, dtype=np.int64)
        self.epochs = 0
        self._digest = hashlib.sha256()
        self.encoder = RebalanceEncoder({
            "op": "rebalance", "shard": name, "k": k, "moves_only": True,
        })

    @property
    def num_sites(self) -> int:
        return self.tip.num_jobs

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def full_message(self) -> dict:
        """The tip as one full snapshot request."""
        return {
            "op": "rebalance", "shard": self.name, "k": self.k,
            "moves_only": True,
            "instance": self.tip.export_instance().to_wire(),
        }

    def draw_delta(self) -> dict:
        """Next epoch's delta against the tip: ``churn`` new site loads
        plus the last decision's moves.  Does not advance the tip."""
        n = self.num_sites
        c_idx = np.sort(self.rng.choice(n, size=self.churn, replace=False))
        c_sizes = np.maximum(
            self.tip.sizes[c_idx] * self.rng.uniform(0.6, 1.8, self.churn),
            1e-9,
        )
        idx = np.union1d(c_idx, self.moves_idx)
        sizes = self.tip.sizes[idx].copy()
        initial = self.tip.initial[idx].copy()
        sizes[np.searchsorted(idx, c_idx)] = c_sizes
        if self.moves_idx.shape[0]:
            initial[np.searchsorted(idx, self.moves_idx)] = self.moves_to
        return {
            "base": self.tip.fp_hex, "idx": idx, "sizes": sizes,
            "costs": self.tip.costs[idx].copy(), "initial": initial,
        }

    def advance(self, delta: dict):
        """Apply a delta to the tip; returns the frame (old values)."""
        frame, fp = self.tip.preview(delta)
        self.tip.commit(frame, fp)
        return frame

    def check(self, response: dict) -> str | None:
        """The correctness gate for one response to this stream's tip.

        On success the decision's moves are kept for the next delta and
        folded into the trajectory digest; otherwise the reason is
        returned and the stream drops the moves.
        """
        moves, problem = _moves(response, self.tip, self.k)
        if problem is not None:
            self.moves_idx = np.empty(0, dtype=np.int64)
            self.moves_to = np.empty(0, dtype=np.int64)
            return problem
        self.record(*moves)
        return None

    def record(self, moves_idx: np.ndarray, moves_to: np.ndarray) -> None:
        self.moves_idx = moves_idx
        self.moves_to = moves_to
        self.epochs += 1
        self._digest.update(bytes.fromhex(self.tip.fp_hex))
        self._digest.update(moves_idx.tobytes())
        self._digest.update(moves_to.tobytes())


def _moves(response: dict, tip: ResidentShard, k: int):
    """``((moves_idx, moves_to), None)`` for a response that passes the
    gate, else ``(None, reason)``.  A server that answers with the full
    mapping instead of the moves is reduced to the moves against the
    tip's placement."""
    if not response.get("ok"):
        return None, f"error response: {response.get('error')}"
    if response.get("fingerprint") != tip.fp_hex:
        return None, "fingerprint differs from the client tip"
    if "moves_idx" in response:
        moves_idx = np.asarray(response["moves_idx"], dtype=np.int64)
        moves_to = np.asarray(response.get("moves_to", ()), dtype=np.int64)
        if moves_idx.shape != moves_to.shape:
            return None, "moves_idx and moves_to differ in length"
        if moves_idx.shape[0] and (
            moves_idx.min() < 0 or moves_idx.max() >= tip.num_jobs
        ):
            return None, "a move names a site outside the shard"
    elif "mapping" in response:
        mapping = np.asarray(response["mapping"], dtype=np.int64)
        if mapping.shape != tip.initial.shape:
            return None, "mapping length differs from the shard"
        moves_idx = np.flatnonzero(mapping != tip.initial)
        moves_to = mapping[moves_idx]
    else:
        return None, "response carries no decision"
    if moves_idx.shape[0] > k:
        return None, f"{moves_idx.shape[0]} moves exceed the budget {k}"
    if moves_to.shape[0] and (
        moves_to.min() < 0 or moves_to.max() >= tip.num_processors
    ):
        return None, "a move targets a server outside [0, m)"
    return (moves_idx, moves_to), None


def replay(stream: ShardStream, epochs: int) -> list[str]:
    """Drive a fresh copy of ``stream`` for ``epochs`` epochs through an
    in-process engine; the trajectory digest after each epoch."""
    engine = RebalanceEngine(k=stream.k)
    digests: list[str] = []
    changed = None
    for epoch in range(epochs):
        if epoch:
            frame = stream.advance(stream.draw_delta())
            changed = (
                frame.idx, frame.old_sizes, frame.old_costs, frame.old_initial
            )
        tip = stream.tip
        view = Instance.trusted(
            tip.sizes, tip.costs, tip.num_processors, tip.initial
        )
        result = engine.rebalance(
            view, fingerprint=bytes.fromhex(tip.fp_hex), changed=changed
        )
        moved = result.assignment.moved_jobs
        stream.record(
            np.asarray(moved, dtype=np.int64),
            np.asarray(result.assignment.mapping[moved], dtype=np.int64),
        )
        digests.append(stream.digest)
    return digests


def replay_tasks(tasks: list[dict]) -> dict[int, list[str]]:
    """:func:`replay` for each task: ``ShardStream`` keyword arguments
    plus ``epochs``."""
    digests = {}
    for task in tasks:
        spec = dict(task)
        epochs = spec.pop("epochs")
        digests[spec["index"]] = replay(ShardStream(**spec), epochs)
    return digests


def replay_main() -> None:
    """Replay worker: tasks as JSON on stdin, digests as JSON on stdout."""
    json.dump(replay_tasks(json.load(sys.stdin)), sys.stdout)


if __name__ == "__main__":
    replay_main()
