"""Tests of the benchmark's own logic: request lists, golden checks, spans, tails."""

from __future__ import annotations

import hashlib
import time

import pytest

import run
import spans
import workloads


def _domain():
    reqs = []
    for i in range(12):
        reqs.append({"id": f"a{i}", "stratum": "a", "argv": ["cli", "a", str(i)], "cost_s": 1.0 + i % 3})
    for i in range(5):
        reqs.append({"id": f"b{i}", "stratum": "b", "argv": ["cli", "b", str(i)], "cost_s": 0.5})
    return reqs


@pytest.fixture
def toy_workload(monkeypatch):
    monkeypatch.setitem(workloads.BATCH, "toy", {"b": "all", "a": ("parts", 4)})
    return _domain()


def _ids(batch):
    return [r["id"] for r in batch]


def test_same_seed_same_request_list(toy_workload):
    first = workloads.make_batch("toy", 7, toy_workload)
    again = workloads.make_batch("toy", 7, list(toy_workload))
    assert _ids(first) == _ids(again)
    others = {tuple(_ids(workloads.make_batch("toy", s, toy_workload))) for s in range(20)}
    assert len(others) > 1


def test_batch_takes_whole_strata_and_one_part(toy_workload):
    batch = workloads.make_batch("toy", 3, toy_workload)
    assert sorted(r["id"] for r in batch if r["stratum"] == "b") == [f"b{i}" for i in range(5)]
    parts = workloads.balanced_parts([r for r in toy_workload if r["stratum"] == "a"], 4)
    chosen = sorted(r["id"] for r in batch if r["stratum"] == "a")
    assert chosen in [sorted(r["id"] for r in p) for p in parts]


def test_balanced_parts_cover_and_balance():
    reqs = [r for r in _domain() if r["stratum"] == "a"]
    parts = workloads.balanced_parts(reqs, 4)
    assert sorted(r["id"] for p in parts for r in p) == sorted(r["id"] for r in reqs)
    totals = [sum(r["cost_s"] for r in p) for p in parts]
    assert max(totals) - min(totals) <= max(r["cost_s"] for r in reqs)
    with pytest.raises(ValueError):
        workloads.balanced_parts(reqs, 0)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_recorded_domains_give_stable_batches(workload):
    domain = workloads.load_domain(workload)
    assert len({r["id"] for r in domain}) == len(domain)
    assert _ids(workloads.make_batch(workload, 11, domain)) == _ids(workloads.make_batch(workload, 11, domain))


def test_check_output_flags_every_kind_of_mismatch():
    good = b"[1, 2]\n"
    sha = {"rc": 0, "sha256": hashlib.sha256(good).hexdigest()}
    assert run.check_output(sha, 0, good) is None
    assert run.check_output(sha, 1, good) is not None
    assert run.check_output(sha, 0, b"[1, 3]\n") is not None
    last = {"rc": 0, "last_line": "verify: OK"}
    assert run.check_output(last, 0, b"PASS  x\nverify: OK\n") is None
    assert run.check_output(last, 0, b"FAIL  x\nverify: FAILED\n") is not None
    assert run.check_output(last, 0, b"") is not None
    as_json = {"rc": 0, "json": {"G2 j=2": False}}
    assert run.check_output(as_json, 0, b'{"G2 j=2": false}') is None
    assert run.check_output(as_json, 0, b'{"G2 j=2": true}') is not None
    assert run.check_output(as_json, 0, b"not json") is not None


def test_corrupted_output_is_counted_as_failed():
    # The probe prints nothing; a golden hash of anything else must fail it.
    empty = {"rc": 0, "sha256": hashlib.sha256(b"").hexdigest()}
    corrupt = {"rc": 0, "sha256": hashlib.sha256(b"corrupted\n").hexdigest()}
    batch = [
        {"id": "ok", "argv": ["probe"], "expect": empty},
        {"id": "bad", "argv": ["probe"], "expect": corrupt},
    ]
    run.OUT.mkdir(exist_ok=True)
    tally = run.Tally()
    tally.run_batch(batch, run.child_env(), time.monotonic() + 120)
    assert tally.attempted == 2
    assert len(tally.failures) == 1 and tally.failures[0].startswith("bad:")


def test_self_time_on_nested_spans():
    recorded = [
        (0, None, "cli", 0.0, 10.0),
        (1, 0, "catalog.load", 1.0, 4.0),
        (2, 1, "rootsys.build", 1.5, 2.5),
        (3, 1, "rootsys.build", 3.0, 3.5),
        (4, 0, "linalg.charpoly", 5.0, 9.0),
    ]
    selfs = spans.self_times(recorded)
    assert selfs == pytest.approx({0: 3.0, 1: 1.5, 2: 1.0, 3: 0.5, 4: 4.0})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_recorder_spans_counters_and_recursion():
    ticks = iter(range(100))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))

    def load(depth):
        return load(depth - 1) if depth else "done"

    load = spans.wrap(rec, load, span="catalog.load", count="catalog.load_calls")
    inner = spans.wrap(rec, lambda: None, count="rootsys.inner_calls")
    outer = spans.wrap(rec, lambda: (load(2), inner(), inner()), span="cli")
    outer()
    summary = rec.summary()
    assert summary["counters"] == {"catalog.load_calls": 1, "rootsys.inner_calls": 2}
    assert summary["names"]["catalog.load"]["calls"] == 1
    assert summary["names"]["cli"]["total_s"] == 3.0
    assert summary["names"]["cli"]["self_s"] == 2.0
    assert [s[2] for s in summary["spans"]] == ["cli", "catalog.load"]


def test_layer_metrics_sums_and_ratios():
    summary = {
        "names": {
            "linalg.charpoly": {"calls": 2, "total_s": 3.0, "self_s": 3.0},
            "cli": {"calls": 1, "total_s": 4.0, "self_s": 1.0},
            spans.HOOK_SPAN: {"calls": 2, "total_s": 0.5, "self_s": 0.5},
        },
        "counters": {"linalg.charpoly_calls": 2, "linalg.charpoly_repeats": 1},
        "maxima": {"linalg.charpoly_max_dim": 6},
    }
    table = spans.layer_metrics([summary, summary], output_bytes=10)
    assert set(table) == set(spans.LAYER_METRICS)
    assert table["linalg.charpoly_s"] == 6.0
    assert table["linalg.charpoly_calls"] == 4
    assert table["linalg.charpoly_repeat_ratio"] == 0.5
    assert table["linalg.charpoly_self_share"] == 0.75
    assert table["linalg.charpoly_max_dim"] == 6
    assert table["shapeops.zero_operator_ratio"] == 0.0  # empty base
    assert table["cli.output_bytes"] == 10
    assert table["trace.overhead_s"] == 0


@pytest.mark.parametrize(
    "n, expected",
    [(0, None), (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (10000, 99.9)],
)
def test_tail_percentile_leaves_ten_beyond(n, expected):
    assert run.tail_percentile(n) == expected


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert run.percentile(values, 50) == 50
    assert run.percentile(values, 90) == 90
    assert run.percentile(values, 99.9) == 100
    assert run.percentile([3.0], 75) == 3.0
