"""Per-layer metrics of a traced run.

Times come from spans: the driver's own client spans plus the spans
the traced launcher recorded in every system-under-test process.  A
span counts toward the measured phase when it starts inside it.  Each
``*_ms`` metric is the layer's total time in the phase divided by the
decides measured, so layer times add up against the mean decide.
Counts come from the ``status`` op of every process, read before and
after the measured phase.
"""

from __future__ import annotations

from collections import defaultdict

from .stats import Coverage, self_time

# name -> (unit, better)
METRICS: dict[str, tuple[str, str]] = {
    "engine.decide_ms": ("ms", "lower"),
    "engine.self_ms": ("ms", "lower"),
    "engine.thresholds_tried": ("count", "lower"),
    "engine.full_builds": ("count", "lower"),
    "engine.incremental_decides": ("count", "higher"),
    "engine.churn_fallbacks": ("count", "lower"),
    "engine.cache_hits": ("count", "higher"),
    "thresholds.build_ms": ("ms", "lower"),
    "thresholds.patch_ms": ("ms", "lower"),
    "partition_incremental.scan_ms": ("ms", "lower"),
    "partition.construct_ms": ("ms", "lower"),
    "protocol.decode_ms": ("ms", "lower"),
    "protocol.encode_ms": ("ms", "lower"),
    "client.encode_ms": ("ms", "lower"),
    "client.tip_ms": ("ms", "lower"),
    "client.request_bytes": ("bytes", "lower"),
    "client.response_bytes": ("bytes", "lower"),
    "client.retries": ("count", "lower"),
    "client.fulls_sent": ("count", "lower"),
    "admission.wait_ms": ("ms", "lower"),
    "batching.window_ms": ("ms", "lower"),
    "batching.batch_size": ("count", "higher"),
    "batching.deduped": ("count", "higher"),
    "server.latency_ms": ("ms", "lower"),
    "server.transport_ms": ("ms", "lower"),
    "resident.apply_ms": ("ms", "lower"),
    "server.resident_installs": ("count", "lower"),
    "server.delta_misses": ("count", "lower"),
    "parallel.pipe_ms": ("ms", "lower"),
    "server.ipc_bytes": ("bytes", "lower"),
    "server.shm_writes": ("count", "lower"),
    "server.decision_hits": ("count", "higher"),
    "router.self_ms": ("ms", "lower"),
    "router.backend_ms": ("ms", "lower"),
    "router.replication_ms": ("ms", "lower"),
    "router.replicated": ("count", "higher"),
    "router.resident_deltas": ("count", "higher"),
    "router.delta_fallbacks": ("count", "lower"),
    "router.tip_races": ("count", "lower"),
    "router.replication_errors": ("count", "lower"),
    "unattributed_ms": ("ms", "lower"),
    "decide_p90_ms": ("ms", "lower"),
    "decides_per_s": ("1/s", "higher"),
    "trace.overhead_p50_ms": ("ms", "lower"),
    "trace.overhead_decides_per_s": ("1/s", "lower"),
}
UNITS = {name: unit for name, (unit, _) in METRICS.items()}

# Span name -> per-layer metric that sums it.
SPAN_METRICS = {
    "engine.decide": "engine.decide_ms",
    "thresholds.build": "thresholds.build_ms",
    "thresholds.patch": "thresholds.patch_ms",
    "partition_incremental.scan": "partition_incremental.scan_ms",
    "partition.construct": "partition.construct_ms",
    "protocol.decode": "protocol.decode_ms",
    "protocol.encode": "protocol.encode_ms",
    "admission.wait": "admission.wait_ms",
    "batching.window": "batching.window_ms",
    "resident.apply": "resident.apply_ms",
    "router.backend": "router.backend_ms",
    "router.replication": "router.replication_ms",
}
ENGINE_CHILDREN = frozenset({
    "thresholds.build", "thresholds.patch",
    "partition_incremental.scan", "partition.construct",
})

SERVICE_COUNTERS = (
    "service.resident_installs", "service.delta_misses",
    "service.ipc_bytes_in", "service.ipc_bytes_out", "service.shm_writes",
    "service.decision_hits", "service.deduped",
)
HISTOGRAMS = ("service.latency_ms", "service.batch_size")
ENGINE_STATS = (
    "decisions", "thresholds_tried", "full_builds", "incremental_decides",
    "churn_fallbacks", "cache_hits",
)
ROUTER_COUNTERS = (
    "router.replicated", "router.resident_deltas", "router.delta_fallbacks",
    "router.tip_races", "router.replication_errors",
)


def counters(status: dict[int, dict], roles: dict[int, str]) -> dict[str, float]:
    """Layer counters summed over every process's ``status`` reply."""
    out: dict[str, float] = defaultdict(float)
    for pid, reply in status.items():
        if roles[pid] == "router":
            found = reply["router"]["metrics"]["counters"]
            for key in ROUTER_COUNTERS:
                out[key] += found.get(key, 0)
            continue
        metrics = reply["metrics"]
        for key in SERVICE_COUNTERS:
            out[key] += metrics["counters"].get(key, 0)
        for key in HISTOGRAMS:
            hist = metrics.get("histograms", {}).get(key)
            if hist:
                out[f"{key}.sum"] += hist["sum"]
                out[f"{key}.count"] += hist["count"]
        for shard in (reply.get("shards") or {}).values():
            engine = shard.get("engine") or {}
            for key in ENGINE_STATS:
                out[f"engine.{key}"] += engine.get(key, 0)
    return out


def counter_deltas(session) -> dict[str, float]:
    before = counters(session.status_before, session.roles)
    after = counters(session.status_after, session.roles)
    return {key: after[key] - before.get(key, 0.0) for key in sorted(after)}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    session, *, traced: dict[str, float], plain: dict[str, float]
) -> dict[str, float]:
    """Every metric of :data:`METRICS` for one traced session.

    ``traced`` and ``plain`` are the decide times and throughput of the
    traced phase and of the plain phase run on the same inputs."""
    phase = session.phase
    decides = phase.decides
    start, end = phase.start, phase.end
    roles = {}
    spans = []  # (name, start, end, pid, thread, role)
    for dump in session.spans:
        roles[dump["pid"]] = dump["role"]
        for name, s, e, thread in dump["spans"]:
            if start <= s <= end:
                spans.append((name, s, e, dump["pid"], thread, dump["role"]))

    totals: dict[str, float] = defaultdict(float)
    for name, s, e, _pid, _thread, role in spans:
        totals[name] += e - s
        if name == "engine.decide" and role == "worker":
            totals["worker.engine.decide"] += e - s

    children: dict[tuple[int, int], list[tuple[float, float]]] = defaultdict(list)
    for name, s, e, pid, thread, _role in spans:
        if name in ENGINE_CHILDREN:
            children[(pid, thread)].append((s, e))
    engine_self = sum(
        self_time((s, e), [c for c in children[(pid, thread)] if s <= c[0] and c[1] <= e])
        for name, s, e, pid, thread, _role in spans if name == "engine.decide"
    )

    def per_decide_ms(seconds: float) -> float:
        return 1e3 * _ratio(seconds, decides)

    rtt_ms = [1e3 * (done - send) for _p, _t, send, done in phase.marks]
    mean_rtt = _ratio(sum(rtt_ms), len(rtt_ms))
    client_tip = sum(t - p for p, t, _s, _d in phase.marks)
    client_encode = sum(s - t for _p, t, s, _d in phase.marks)

    # Everything any span covers, client spans included, against each
    # decide's window from prepare to reply.
    covered = Coverage(
        [(s, e) for _n, s, e, *_ in spans]
        + [(p, t) for p, t, _s, _d in phase.marks]
        + [(t, s) for _p, t, s, _d in phase.marks]
    )
    unattributed = sum(
        (done - prepare) - covered.covered(prepare, done)
        for prepare, _t, _s, done in phase.marks
    )

    delta = counter_deltas(session)
    server_latency = _ratio(
        delta.get("service.latency_ms.sum", 0.0),
        delta.get("service.latency_ms.count", 0.0),
    )
    has_router = "router" in session.roles.values()
    metrics = {name: per_decide_ms(totals[span]) for span, name in SPAN_METRICS.items()}
    metrics.update({
        "engine.self_ms": per_decide_ms(engine_self),
        "engine.thresholds_tried": _ratio(
            delta.get("engine.thresholds_tried", 0.0),
            delta.get("engine.decisions", 0.0),
        ),
        "engine.full_builds": delta.get("engine.full_builds", 0.0),
        "engine.incremental_decides": delta.get("engine.incremental_decides", 0.0),
        "engine.churn_fallbacks": delta.get("engine.churn_fallbacks", 0.0),
        "engine.cache_hits": delta.get("engine.cache_hits", 0.0),
        "client.encode_ms": per_decide_ms(client_encode),
        "client.tip_ms": per_decide_ms(client_tip),
        "client.request_bytes": _ratio(phase.request_bytes, decides),
        "client.response_bytes": _ratio(phase.response_bytes, decides),
        "client.retries": float(phase.retries),
        "client.fulls_sent": float(phase.fulls_sent),
        "batching.batch_size": _ratio(
            delta.get("service.batch_size.sum", 0.0),
            delta.get("service.batch_size.count", 0.0),
        ),
        "batching.deduped": delta.get("service.deduped", 0.0),
        "server.latency_ms": server_latency,
        "server.transport_ms": mean_rtt - server_latency,
        "server.resident_installs": delta.get("service.resident_installs", 0.0),
        "server.delta_misses": delta.get("service.delta_misses", 0.0),
        "parallel.pipe_ms": per_decide_ms(
            totals["parallel.request"] - totals["worker.engine.decide"]
        ) if totals["parallel.request"] else 0.0,
        "server.ipc_bytes": delta.get("service.ipc_bytes_in", 0.0)
        + delta.get("service.ipc_bytes_out", 0.0),
        "server.shm_writes": delta.get("service.shm_writes", 0.0),
        "server.decision_hits": delta.get("service.decision_hits", 0.0),
        "router.self_ms": (
            mean_rtt - metrics["router.backend_ms"] if has_router else 0.0
        ),
        "unattributed_ms": per_decide_ms(unattributed),
        "decide_p90_ms": plain["decide_p90_ms"],
        "decides_per_s": plain["decides_per_s"],
        "trace.overhead_p50_ms": (
            traced["decide_p50_ms"] - plain["decide_p50_ms"]
        ),
        "trace.overhead_decides_per_s": (
            plain["decides_per_s"] - traced["decides_per_s"]
        ),
    })
    for key in ROUTER_COUNTERS:
        metrics[key] = delta.get(key, 0.0)
    return {name: float(metrics[name]) for name in METRICS}
