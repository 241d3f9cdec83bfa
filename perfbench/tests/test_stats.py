"""Unit tests: exact quantiles, self time, failure accounting."""

import statistics

import numpy as np
import pytest

from perfbench.bench import replication_problem
from perfbench.layers import counters
from perfbench.stats import (
    Coverage,
    Outcomes,
    beyond,
    merge,
    min_samples,
    quantile,
    self_time,
)
from perfbench.streams import ShardStream


def test_quantile_is_a_sample_by_nearest_rank():
    samples = [float(v) for v in range(100, 0, -1)]  # 100 .. 1
    assert quantile(samples, 0.5) == 50.0
    assert quantile(samples, 0.9) == 90.0
    assert quantile(samples, 1.0) == 100.0
    assert quantile([7.0], 0.5) == 7.0
    odd = [3.0, 1.0, 2.0]
    assert quantile(odd, 0.5) == statistics.median(odd)


def test_quantile_rejects_empty_and_bad_q():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 0.0)


def test_p90_tail_needs_one_hundred_samples():
    assert beyond(100, 0.9) == 10
    assert beyond(99, 0.9) == 9
    assert min_samples(0.9, 10) == 100
    assert beyond(0, 0.9) == 0


def test_merge_and_coverage():
    assert merge([(3, 4), (0, 1), (0.5, 2), (5, 5)]) == [(0, 2), (3, 4)]
    cover = Coverage([(0, 1), (0.5, 2), (3, 4)])
    assert cover.covered(0, 10) == pytest.approx(3.0)
    assert cover.covered(1.5, 3.5) == pytest.approx(1.0)
    assert cover.covered(2, 3) == 0.0
    assert cover.covered(3.25, 3.5) == pytest.approx(0.25)


def test_self_time_subtracts_children_once():
    # Two overlapping children and one sticking out of the parent.
    parent = (0.0, 10.0)
    children = [(1.0, 3.0), (2.0, 4.0), (9.0, 12.0)]
    assert self_time(parent, children) == pytest.approx(10.0 - 3.0 - 1.0)
    assert self_time(parent, []) == pytest.approx(10.0)


def test_outcomes_failed_share():
    outcomes = Outcomes(attempted=40, errors=1, refused=2, check_failures=1)
    assert outcomes.failed == 4
    assert outcomes.failed_share == pytest.approx(0.1)
    assert Outcomes().failed_share == 0.0


def _stream():
    return ShardStream(
        "s", seed=3, index=0, num_sites=200, num_servers=8, k=2, churn=4
    )


def _ok(stream, **fields):
    response = {
        "ok": True, "fingerprint": stream.tip.fp_hex,
        "moves_idx": np.array([0], dtype=np.int64),
        "moves_to": np.array([1], dtype=np.int64),
    }
    response.update(fields)
    return response


@pytest.mark.parametrize("fields, reason", [
    ({"ok": False, "error": "overloaded"}, "error response"),
    ({"fingerprint": "00"}, "fingerprint"),
    ({"moves_idx": np.arange(3), "moves_to": np.zeros(3)}, "budget"),
    ({"moves_to": np.array([8])}, "outside [0, m)"),
    ({"moves_idx": np.array([200])}, "outside the shard"),
])
def test_gate_rejects_bad_responses(fields, reason):
    stream = _stream()
    problem = stream.check(_ok(stream, **fields))
    assert problem is not None and reason in problem
    assert stream.epochs == 0


def test_gate_accepts_moves_and_mapping_forms_alike():
    moves, mapping = _stream(), _stream()
    assert moves.check(_ok(moves)) is None
    full = mapping.tip.initial.copy()
    full[0] = 1
    response = {"ok": True, "fingerprint": mapping.tip.fp_hex, "mapping": full}
    assert mapping.check(response) is None
    assert moves.digest == mapping.digest


def _router_status(replicated, errors):
    return {"router": {"metrics": {"counters": {
        "router.replicated": replicated, "router.replication_errors": errors,
    }}}}


def test_failed_standby_replication_is_a_problem():
    roles = {10: "router"}
    clean = counters({10: _router_status(16, 0)}, roles)
    assert replication_problem(clean, "during the session") is None
    broken = counters({10: _router_status(16, 3)}, roles)
    problem = replication_problem(broken, "during the session")
    assert problem == "3 standby replication errors during the session"
