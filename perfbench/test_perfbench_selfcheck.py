"""Self-tests of the benchmark's own logic (no simulation is run)."""
from __future__ import annotations

import copy
import json
import signal
import time
from pathlib import Path

import pytest

import benchlib
import calib
import run
from workloads import WORKLOADS

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _good_sample(kind="full"):
    return {
        "kind": kind,
        "roundtrip_ok": True,
        "goal_ops": 10,
        "send_bytes": 4096,
        "goal_bytes": 321,
        "fingerprint": "abc",
        "result": {
            "ops_completed": 10,
            "finish_ns": 1000,
            "stats": {
                "bytes_delivered": 4096,
                "packets_sent": 12,
                "packets_delivered": 9,
                "packets_dropped": 1,
                "packets_trimmed": 2,
                "packets_lost_to_faults": 0,
                "packets_blackholed": 0,
            },
        },
    }


def test_reference_seconds_scales_by_calibration():
    assert benchlib.reference_seconds(2.0, 0.2, 0.1) == pytest.approx(1.0)
    # a machine half as fast doubles both the wall time and the kernel time
    assert benchlib.reference_seconds(4.0, 0.4, 0.1) == pytest.approx(1.0)
    assert benchlib.reference_seconds(1.5, 0.1, 0.1) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        benchlib.reference_seconds(1.0, 0.0, 0.1)


def test_span_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0, 11.0, 12.0])
    spans = benchlib.Spans(clock=lambda: next(ticks))
    with spans.span("outer"):  # 0 .. 10
        with spans.span("child"):  # 1 .. 3
            pass
        with spans.span("child"):  # 4 .. 4.5
            pass
    with spans.span("other"):  # 11 .. 12
        pass
    self_times = spans.self_times()
    assert self_times["outer"] == pytest.approx(10.0 - 2.0 - 0.5)
    assert self_times["child"] == pytest.approx(2.5)
    assert self_times["other"] == pytest.approx(1.0)
    assert [r["parent"] for r in spans.to_json()] == [-1, 0, 0, -1]


def test_disabled_spans_record_nothing():
    spans = benchlib.Spans(enabled=False)
    with spans.span("outer"):
        pass
    assert spans.records == [] and spans.self_times() == {}


def test_metric_names_match_benchmark_json():
    doc = json.loads(BENCHMARK_JSON.read_text())
    declared = doc["end_to_end"] + doc["per_layer"]
    names = [m["name"] for m in declared] + [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for m in declared:
        assert benchlib.NAME_RE.match(m["name"]), m["name"]
        assert benchlib.UNIT_RE.match(m["unit"]), m["unit"]
    for name in (w["name"] for w in doc["workloads"]):
        assert benchlib.NAME_RE.match(name), name
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(benchlib.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(benchlib.PER_LAYER)
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(WORKLOADS)


def test_name_pattern_rejects_bad_names():
    for bad in ("", "_lead", "a" * 65, "has space", "slash/name"):
        assert not benchlib.NAME_RE.match(bad), bad


def test_good_sample_passes_checks():
    assert benchlib.check_sample(_good_sample()) == []
    assert benchlib.check_sample({"kind": "setup", "roundtrip_ok": True}) == []


@pytest.mark.parametrize(
    "tamper",
    [
        lambda s: s["result"]["stats"].__setitem__("packets_delivered", 8),
        lambda s: s["result"]["stats"].__setitem__("packets_trimmed", 3),
        lambda s: s["result"].__setitem__("ops_completed", 9),
        lambda s: s["result"]["stats"].__setitem__("bytes_delivered", 4095),
        lambda s: s.__setitem__("roundtrip_ok", False),
        lambda s: s.__setitem__("result", None),
    ],
    ids=["ledger_short", "ledger_over", "op_missing", "bytes", "roundtrip", "no_result"],
)
def test_tampered_sample_fails(tamper):
    sample = copy.deepcopy(_good_sample())
    tamper(sample)
    assert benchlib.check_sample(sample)


def test_judge_counts_divergent_and_crashed_samples_as_failed():
    samples = [_good_sample(), _good_sample(), _good_sample("traced"), _good_sample()]
    samples[2]["fingerprint"] = "different"
    samples[3] = {"kind": "full", "error": "full sample exited 1: boom"}
    failures = run.judge(samples)
    assert [bool(f) for f in failures] == [False, False, True, True]


def test_layer_metrics_derives_ratios_and_scales_times():
    raw = {
        "packet.loop_s": 2.0,
        "packet.events": 1000,
        "packet.sent": 10,
        "packet.delivered": 8,
        "routing.cache_hits": 3,
        "routing.cache_misses": 1,
    }
    out = benchlib.layer_metrics(raw, calib_s=0.2, calib_ref_s=0.1)
    assert set(out) == {name for name, _ in benchlib.PER_LAYER}
    assert out["packet.loop_s"] == pytest.approx(1.0)
    assert out["packet.events_per_s"] == pytest.approx(1000.0)
    assert out["packet.delivery_ratio"] == pytest.approx(0.8)
    assert out["routing.hit_ratio"] == pytest.approx(0.75)
    assert out["bench.calib_s"] == 0.2
    assert out["loggops.events_per_s"] == 0


def test_next_kind_meets_minimums_before_the_deadline_matters():
    counts, kinds = {}, []
    while True:
        kind, enough = run.next_kind(False, counts)
        if enough:
            break
        kinds.append(kind)
        counts[kind] = counts.get(kind, 0) + 1
    assert kinds == ["full"] * run.MIN_FULL + ["setup"] * (run.MIN_SETUP - run.MIN_FULL)
    assert run.next_kind(True, {}) == ("full", False)
    assert run.next_kind(True, {"full": 1}) == ("traced", False)
    assert run.next_kind(True, {"full": 1, "traced": 1}) == ("full", True)


def test_speed_probe_samples_during_work_and_excludes_its_own_time():
    before = signal.getsignal(signal.SIGALRM)
    probe = calib.SpeedProbe()
    probe.start()
    try:
        wall0, net0 = time.perf_counter(), probe.clock()
        while time.perf_counter() - wall0 < 0.3:
            pass
        wall, net = time.perf_counter() - wall0, probe.clock() - net0
    finally:
        probe.stop()
    assert len(probe.passes) >= 3
    assert 0 < net < wall
    assert probe.mean_pass_s() > 0
    assert probe.mean_pass_s(len(probe.passes)) == probe.mean_pass_s()
    assert signal.getsignal(signal.SIGALRM) == before
