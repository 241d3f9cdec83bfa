"""One benchmark run: set up, drive, check, tear down, replay.

A run drives the system under test from one event loop over at most
two connections.  Untraced runs (``trace=False``) measure for a fixed
time and report the end-to-end metrics.  Traced runs measure a fixed
number of decides twice on the same seeded inputs, once against plain
processes and once against processes started through the traced
launcher, and report the per-layer metrics plus the tracing overhead.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.service.client import AsyncServiceClient, Overloaded, ServiceError
from repro.service.protocol import PROTOCOL_V2, ProtocolError, encode_frame

from . import layers
from .stats import Outcomes, beyond, min_samples, quantile
from .streams import ShardStream, replay_tasks
from .sut import HOST, System, host_fingerprint, steal_s
from .workloads import Workload

P90 = 0.9
TAIL = 10                        # samples that must lie beyond the p90
MIN_SAMPLES = min_samples(P90, TAIL)
HARD_LIMIT_FACTOR = 3.0          # a short-sampled run extends up to this
REPLICATION_TIMEOUT_S = 60.0
CALL_TIMEOUT_S = 120.0
REPLAY_WORKERS = 2


def stream_spec(workload: Workload, seed: int, index: int) -> dict:
    """Keyword arguments of the ``index``-th shard stream of a run."""
    return {
        "name": f"{workload.kind}-{index}", "seed": seed, "index": index,
        "num_sites": workload.num_sites, "num_servers": workload.num_servers,
        "k": workload.k, "churn": workload.churn,
        "random_placement": workload.kind == "cold",
    }


def make_stream(workload: Workload, seed: int, index: int) -> ShardStream:
    return ShardStream(**stream_spec(workload, seed, index))


@dataclass
class Phase:
    """What one measured phase saw, in ``time.perf_counter`` seconds."""

    outcomes: Outcomes = field(default_factory=Outcomes)
    latencies_ms: list[float] = field(default_factory=list)
    # Per measured decide: (prepare, tip done, send, reply).
    marks: list[tuple[float, float, float, float]] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    input_s: float = 0.0         # building cold streams inside the loop
    cpu_s: float = 0.0           # CPU time of the system under test
    request_bytes: int = 0
    response_bytes: int = 0
    fulls_sent: int = 0
    retries: int = 0
    rss_mb: float = 0.0
    problems: list[str] = field(default_factory=list)

    @property
    def decides(self) -> int:
        return len(self.latencies_ms)

    @property
    def wall_s(self) -> float:
        """Measured time, less the time spent making the workload's
        inputs (they are not the system's work)."""
        return self.end - self.start - self.input_s


class Driver:
    """Drives one set-up of the system under test."""

    def __init__(
        self, workload: Workload, seed: int, system: System, *, count_bytes: bool
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.system = system
        self.count_bytes = count_bytes
        self.streams: list[ShardStream] = []   # every stream used, in order
        self.clients: list[AsyncServiceClient] = []
        self.setup = Phase()                   # installs and warm-up
        self._next_cold = 0

    # -- set-up ----------------------------------------------------------
    async def set_up(self) -> float:
        """Spawn, wait until ready, seed every shard; seconds taken.

        Streams are generated before the clock starts: they are the
        workload's inputs, not the system's work.
        """
        w = self.workload
        if w.kind != "cold":
            self.streams = [make_stream(w, self.seed, i) for i in range(w.shards)]
        start = time.perf_counter()
        backends = [
            self.system.spawn("serve", *w.serve_args()) for _ in range(w.backends)
        ]
        self.system.wait_ready(*backends)
        target = backends[0]
        if w.kind == "router":
            spec = ",".join(
                f"backend-{i}={HOST}:{proc.port}" for i, proc in enumerate(backends)
            )
            target = self.system.spawn("router", "--backends", spec)
            self.system.wait_ready(target)
        self.clients = [
            AsyncServiceClient(
                HOST, target.port, protocol="binary", timeout=CALL_TIMEOUT_S
            )
            for _ in range(w.connections)
        ]
        await asyncio.gather(*(
            self._install_lane(c) for c in range(len(self.clients))
        ))
        if w.kind == "router":
            await self._await_replication(w.shards)
        return time.perf_counter() - start

    async def _install_lane(self, connection: int) -> None:
        for stream in self.lane(connection):
            await self.full_decide(self.clients[connection], stream, self.setup)

    async def _await_replication(self, count: int) -> None:
        """Ready means every standby holds its shard's seed snapshot.
        A failed replication is a set-up problem, not progress."""
        deadline = time.perf_counter() + REPLICATION_TIMEOUT_S
        while True:
            status = await self.clients[0].status()
            counters = status["router"]["metrics"]["counters"]
            problem = replication_problem(counters, "during set-up")
            if problem is not None:
                self.setup.problems.append(problem)
                return
            if counters.get("router.replicated", 0) >= count:
                return
            if time.perf_counter() > deadline:
                raise RuntimeError("standby seed replication did not finish")
            await asyncio.sleep(0.02)

    async def close(self) -> None:
        for client in self.clients:
            await client.close()

    # -- decides ---------------------------------------------------------
    def lane(self, connection: int) -> list[ShardStream]:
        return self.streams[connection :: len(self.clients)]

    def new_cold_stream(self, phase: Phase) -> ShardStream:
        """The next first-time shard; its build time (placement draw,
        loads, fingerprint) is charged to ``phase.input_s``."""
        made = time.perf_counter()
        stream = make_stream(self.workload, self.seed, self._next_cold)
        self._next_cold += 1
        self.streams.append(stream)
        phase.input_s += time.perf_counter() - made
        return stream

    async def full_decide(
        self, client: AsyncServiceClient, stream: ShardStream, phase: Phase
    ) -> None:
        """One decide that sends the stream's tip as a full snapshot."""
        prepare = time.perf_counter()
        frame = encode_frame(stream.full_message(), version=PROTOCOL_V2)
        send = time.perf_counter()
        await self._call(client, stream, frame, phase, (prepare, prepare, send))

    async def delta_decide(
        self, client: AsyncServiceClient, stream: ShardStream, phase: Phase
    ) -> None:
        """One steady epoch: churn plus last moves, sent as a delta."""
        delta = stream.draw_delta()
        prepare = time.perf_counter()
        stream.advance(delta)
        tipped = time.perf_counter()
        frame = stream.encoder.encode(delta)
        send = time.perf_counter()
        await self._call(client, stream, frame, phase, (prepare, tipped, send))

    async def _call(self, client, stream, frame, phase, marks) -> None:
        phase.outcomes.attempted += 1
        phase.request_bytes += len(frame)
        try:
            response = await client.call_encoded(frame, shard=stream.name)
            if response.get("error") == "unknown base":
                # The server lost the base: resync from the full tip.
                phase.fulls_sent += 1
                resync = encode_frame(stream.full_message(), version=PROTOCOL_V2)
                phase.request_bytes += len(resync)
                response = await client.call_encoded(resync, shard=stream.name)
        except Overloaded:
            phase.outcomes.refused += 1
            phase.problems.append(f"{stream.name}: refused")
            return
        except (ServiceError, ProtocolError, OSError, asyncio.TimeoutError) as exc:
            phase.outcomes.errors += 1
            phase.problems.append(f"{stream.name}: {type(exc).__name__}: {exc}")
            return
        done = time.perf_counter()
        problem = stream.check(response)
        if problem is not None:
            if response.get("ok"):
                phase.outcomes.check_failures += 1
            else:
                phase.outcomes.errors += 1
            phase.problems.append(f"{stream.name}: {problem}")
            return
        if self.count_bytes:
            phase.response_bytes += len(encode_frame(response, version=PROTOCOL_V2))
        phase.latencies_ms.append(1e3 * (done - marks[0]))
        phase.marks.append((*marks, done))

    async def decide(self, connection: int, turn: int, phase: Phase) -> None:
        client = self.clients[connection]
        if self.workload.kind == "cold":
            await self.full_decide(client, self.new_cold_stream(phase), phase)
        else:
            lane = self.lane(connection)
            await self.delta_decide(client, lane[turn % len(lane)], phase)

    async def warm_up(self) -> None:
        for turn in range(self.workload.warmup):
            await asyncio.gather(*(
                self.decide(c, turn, self.setup) for c in range(len(self.clients))
            ))

    async def measure(
        self, *, seconds: float | None = None, decides: int | None = None
    ) -> Phase:
        """Closed loops on every connection, until ``seconds`` have
        passed (and at least ``MIN_SAMPLES`` decides were measured) or
        until ``decides`` decides were started."""
        phase = Phase()
        turns = [self.workload.warmup] * len(self.clients)
        started = 0

        def more() -> bool:
            if decides is not None:
                return started < decides
            now = time.perf_counter()
            if now >= hard_end:
                return False
            return now < soft_end or phase.decides < MIN_SAMPLES

        async def loop(connection: int) -> None:
            nonlocal started
            while more():
                started += 1
                await self.decide(connection, turns[connection], phase)
                turns[connection] += 1
                if not phase.rss_mb and phase.decides >= self.workload.rss_after:
                    phase.rss_mb = self.system.rss_mb()

        retries = sum(client.transport_retries for client in self.clients)
        cpu = self.system.cpu_s()
        phase.start = time.perf_counter()
        soft_end = phase.start + (seconds or 0.0)
        hard_end = phase.start + HARD_LIMIT_FACTOR * (seconds or 0.0)
        await asyncio.gather(*(loop(c) for c in range(len(self.clients))))
        phase.end = time.perf_counter()
        phase.cpu_s = self.system.cpu_s() - cpu
        phase.retries = (
            sum(client.transport_retries for client in self.clients) - retries
        )
        if not phase.rss_mb:
            phase.rss_mb = self.system.rss_mb()
        return phase


@dataclass
class Session:
    """One set-up of the system plus the phase measured on it."""

    phase: Phase
    setup_s: list[float]
    streams: list[ShardStream]
    outcomes: Outcomes
    problems: list[str]
    status_before: dict
    status_after: dict
    roles: dict[int, str]
    spans: list[dict]


def _merge_outcomes(*parts: Outcomes) -> Outcomes:
    total = Outcomes()
    for part in parts:
        total.attempted += part.attempted
        total.errors += part.errors
        total.refused += part.refused
        total.check_failures += part.check_failures
    return total


def run_session(
    workload: Workload,
    seed: int,
    root: Path,
    run_dir: Path,
    *,
    traced: bool,
    seconds: float | None = None,
    decides: int | None = None,
    setups: int = 1,
) -> Session:
    """Set up ``setups`` times (keeping the last), warm up, measure."""
    setup_s: list[float] = []
    problems: list[str] = []
    for attempt in range(setups):
        last = attempt == setups - 1
        with System(root, run_dir, traced=traced) as system:
            driver = Driver(workload, seed, system, count_bytes=traced)

            async def go():
                try:
                    setup_s.append(await driver.set_up())
                    if not last:
                        return None
                    await driver.warm_up()
                    before = system.status()
                    phase = await driver.measure(seconds=seconds, decides=decides)
                    return phase, before, system.status()
                finally:
                    await driver.close()

            measured = asyncio.run(go())
            roles = {proc.pid: proc.role for proc in system.procs}
        problems += [f"leaked shared memory {name}" for name in system.leaked_shm]
        problems += [f"process {pid} outlived teardown" for pid in system.stray_pids]
        problems += driver.setup.problems
        if not last:
            if driver.setup.outcomes.failed:
                break
            continue
        phase, before, after = measured
        problems += phase.problems
        # Replication runs beside the decides and never reaches the
        # client, so a standby that rejects its frames shows only here.
        problem = replication_problem(
            layers.counters(after, roles), "during the session"
        )
        if problem is not None:
            problems.append(problem)
        spans = []
        if traced:
            for path in sorted(run_dir.glob("spans-*.json")):
                spans.append(json.loads(path.read_text()))
                path.unlink()
            dumped = {dump["pid"] for dump in spans}
            problems += [
                f"no spans from {role} {pid}"
                for pid, role in roles.items() if pid not in dumped
            ]
        return Session(
            phase=phase, setup_s=setup_s, streams=driver.streams,
            outcomes=_merge_outcomes(driver.setup.outcomes, phase.outcomes),
            problems=problems, status_before=before, status_after=after,
            roles=roles, spans=spans,
        )
    raise RuntimeError("; ".join(problems) or "set-up failed")


def replication_problem(counters: dict, when: str) -> str | None:
    """A problem when the router counted failed standby replications."""
    errors = counters.get("router.replication_errors", 0)
    if errors:
        return f"{errors:g} standby replication errors {when}"
    return None


def replay_all(tasks: list[dict], root: Path) -> dict[int, list[str]]:
    """Trajectory digests of every task (stream arguments plus
    ``epochs``).  Streams are independent, so several go to
    ``REPLAY_WORKERS`` worker processes, longest first."""
    if len(tasks) < 2:
        return replay_tasks(tasks)
    tasks = sorted(tasks, key=lambda task: -task["epochs"])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    procs = []
    try:
        for group in range(REPLAY_WORKERS):
            proc = subprocess.Popen(
                [sys.executable, "-m", "perfbench.streams"], cwd=root, env=env,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            procs.append(proc)
            proc.stdin.write(json.dumps(tasks[group::REPLAY_WORKERS]))
            proc.stdin.close()
        digests: dict[int, list[str]] = {}
        for proc in procs:
            out = proc.stdout.read()
            if proc.wait() != 0:
                raise RuntimeError(f"replay worker exited with {proc.returncode}")
            digests.update({int(k): v for k, v in json.loads(out).items()})
        return digests
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()


def check_replay(
    workload: Workload, seed: int, sessions: list[Session], root: Path
) -> list[str]:
    """Replay every stream the sessions used through an in-process
    engine and compare trajectory digests; one problem per mismatch."""
    epochs: dict[int, int] = {}
    for session in sessions:
        for stream in session.streams:
            epochs[stream.index] = max(epochs.get(stream.index, 0), stream.epochs)
    reference = replay_all([
        {**stream_spec(workload, seed, index), "epochs": count}
        for index, count in epochs.items() if count
    ], root)
    problems = []
    for session in sessions:
        for stream in session.streams:
            if stream.epochs and reference[stream.index][stream.epochs - 1] != stream.digest:
                problems.append(
                    f"{stream.name}: trajectory digest differs from the "
                    f"in-process replay after {stream.epochs} epochs"
                )
    return problems


def timing(phase: Phase) -> dict[str, float]:
    """Decide times and throughput of a phase; they read 0 when no
    decide succeeded (the run is then not correct).

    Only the median is an end-to-end metric.  On a small VM the p90 and
    the throughput (the inverse of the mean decide time in a
    one-connection closed loop) follow the hypervisor's steal time
    further than any bound the benchmark may set, so they are printed
    with the run's detail and as per-layer metrics, without a bound."""
    samples = phase.latencies_ms or [0.0]
    return {
        "decide_p50_ms": quantile(samples, 0.5),
        "decide_p90_ms": quantile(samples, P90),
        "decides_per_s": phase.decides / phase.wall_s,
    }


def end_to_end(session: Session, outcomes: Outcomes) -> dict[str, float]:
    """The end-to-end metrics of an untraced session."""
    phase = session.phase
    return {
        "decide_p50_ms": timing(phase)["decide_p50_ms"],
        "sut_cpu_ms": 1e3 * phase.cpu_s / max(phase.decides, 1),
        "setup_s": statistics.median(session.setup_s),
        "ok_share": 1.0 - outcomes.failed_share,
        "server_rss_mb": phase.rss_mb,
    }


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    root: Path,
) -> tuple[dict, dict]:
    """One benchmark run; returns ``(result, detail)``."""
    host = host_fingerprint()
    steal_start = steal_s()
    run_dir = root / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        if trace:
            plain = run_session(
                workload, seed, root, run_dir, traced=False,
                decides=workload.trace_decides,
            )
            traced = run_session(
                workload, seed, root, run_dir, traced=True,
                decides=workload.trace_decides,
            )
            sessions = [plain, traced]
        else:
            sessions = [run_session(
                workload, seed, root, run_dir, traced=False,
                seconds=seconds, setups=workload.setup_repeats,
            )]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    problems = [p for s in sessions for p in s.problems]
    mismatches = check_replay(workload, seed, sessions, root)
    problems += mismatches
    outcomes = _merge_outcomes(*(s.outcomes for s in sessions))
    outcomes.check_failures += len(mismatches)
    main = sessions[-1]
    if trace:
        metrics = layers.per_layer(
            main, traced=timing(main.phase), plain=timing(sessions[0].phase)
        )
        units = layers.UNITS
    else:
        metrics = end_to_end(main, outcomes)
        units = END_TO_END_UNITS
    correct = outcomes.failed == 0 and not problems and main.phase.decides > 0
    result = {
        "correct": correct,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    phase = main.phase
    detail = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "host": host,
        "steal_s": steal_s() - steal_start,
        "samples": len(phase.latencies_ms),
        "samples_beyond_p90": beyond(len(phase.latencies_ms), P90),
        **timing(phase),
        "measured_s": phase.wall_s,
        "setup_s": main.setup_s,
        "counters": layers.counter_deltas(main),
        "problems": problems[:20],
    }
    return result, detail


END_TO_END_UNITS = {
    "decide_p50_ms": "ms",
    "sut_cpu_ms": "ms",
    "setup_s": "s",
    "ok_share": "ratio",
    "server_rss_mb": "MB",
}
