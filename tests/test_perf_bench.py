"""Tests for the benchmark harness (``repro.perf`` / ``atlahs bench``)."""
from __future__ import annotations

import json

import pytest

from repro.network.config import SimulationConfig
from repro.perf import (
    BenchCase,
    compare_to_baseline,
    default_suite,
    load_bench,
    run_case,
    run_suite,
    write_bench,
)
from repro.schedgen import all_to_all


def _tiny_case(name="tiny", backend="lgs"):
    return BenchCase(
        name,
        backend,
        lambda: all_to_all(4, 1 << 10),
        SimulationConfig(),
        repeats=2,
    )


class TestRunCase:
    def test_reports_wall_clock_and_events(self):
        result = run_case(_tiny_case())
        assert result["wall_clock_s"] > 0
        assert result["events"] > 0
        assert result["events_per_s"] > 0
        assert result["finish_time_ns"] > 0
        assert result["backend"] == "lgs"

    def test_packet_backend_case(self):
        result = run_case(_tiny_case(backend="htsim"))
        assert result["events"] > 0 and result["finish_time_ns"] > 0

    def test_best_repeat_keeps_its_own_event_count(self, monkeypatch):
        # regression: the harness used to pair the best wall clock with the
        # *last* repeat's event count, skewing events_per_s whenever repeats
        # executed different event totals
        import repro.perf as perf

        class _StubResult:
            def __init__(self, finish):
                self.finish_time_ns = finish

        runs = [
            {"wall": 10.0, "events": 100, "finish": 555},
            {"wall": 2.0, "events": 222, "finish": 777},
            {"wall": 6.0, "events": 333, "finish": 999},
        ]
        state = {"repeat": 0, "clock": 0.0}

        class _StubScheduler:
            def __init__(self, schedule, backend, config, validate):
                self._spec = runs[state["repeat"]]
                state["repeat"] += 1

            def run(self):
                state["clock"] += self._spec["wall"]
                self.events_executed = self._spec["events"]
                return _StubResult(self._spec["finish"])

        class _StubTime:
            @staticmethod
            def perf_counter():
                return state["clock"]

        monkeypatch.setattr(perf, "GoalScheduler", _StubScheduler)
        monkeypatch.setattr(perf, "time", _StubTime)
        case = BenchCase(
            "stub", "htsim", lambda: None, SimulationConfig(), repeats=3
        )
        result = run_case(case)
        assert result["wall_clock_s"] == 2.0
        assert result["events"] == 222
        assert result["finish_time_ns"] == 777
        assert result["events_per_s"] == 111


class TestSuite:
    def test_default_suite_covers_both_backends(self):
        suite = default_suite(quick=True)
        backends = {case.backend for case in suite}
        assert backends == {"lgs", "htsim"}
        assert any("fig8" in case.name for case in suite)

    def test_run_suite_and_roundtrip(self, tmp_path):
        doc = run_suite(quick=True, cases=[_tiny_case()])
        assert doc["cases"]["tiny"]["wall_clock_s"] > 0
        path = write_bench(doc, str(tmp_path / "BENCH_test.json"))
        assert load_bench(str(path)) == json.loads(path.read_text())


class TestBaselineComparison:
    def _doc(self, wall):
        return {"cases": {"a": {"wall_clock_s": wall}}}

    def test_speedup_reported(self):
        cmp_ = compare_to_baseline(self._doc(1.0), self._doc(2.0))
        assert cmp_.ok
        assert cmp_.entries[0].speedup == pytest.approx(2.0)

    def test_regression_detected(self):
        cmp_ = compare_to_baseline(self._doc(5.0), self._doc(1.0), max_regression=2.0)
        assert not cmp_.ok
        assert cmp_.regressions[0].name == "a"

    def test_tolerance_below_threshold_passes(self):
        cmp_ = compare_to_baseline(self._doc(1.9), self._doc(1.0), max_regression=2.0)
        assert cmp_.ok

    def test_missing_cases_skipped(self):
        current = {"cases": {"a": {"wall_clock_s": 1.0}, "b": {"wall_clock_s": 1.0}}}
        cmp_ = compare_to_baseline(current, self._doc(1.0))
        assert cmp_.missing == ["b"]
        assert cmp_.ok

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_to_baseline(self._doc(1.0), self._doc(1.0), max_regression=0)

    def _rss_doc(self, wall, rss):
        return {"cases": {"a": {"wall_clock_s": wall, "peak_rss_kb": rss}}}

    def test_rss_regression_detected(self):
        cmp_ = compare_to_baseline(
            self._rss_doc(1.0, 1300), self._rss_doc(1.0, 1000),
            max_rss_regression=1.2,
        )
        assert not cmp_.ok
        entry = cmp_.regressions[0]
        assert entry.rss_regressed and not entry.regressed
        assert entry.rss_ratio == pytest.approx(1.3)

    def test_rss_below_threshold_passes(self):
        cmp_ = compare_to_baseline(
            self._rss_doc(1.0, 1100), self._rss_doc(1.0, 1000),
            max_rss_regression=1.2,
        )
        assert cmp_.ok

    def test_rss_gate_tolerates_baselines_without_rss(self):
        """Pre-gate baselines lack peak_rss_kb; the gate must skip, not crash."""
        cmp_ = compare_to_baseline(
            self._rss_doc(1.0, 1000), self._doc(1.0), max_rss_regression=1.2
        )
        assert cmp_.ok
        assert cmp_.entries[0].rss_ratio is None

    def test_bad_rss_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_to_baseline(
                self._rss_doc(1.0, 1), self._rss_doc(1.0, 1), max_rss_regression=0
            )


class TestCommittedBaseline:
    def test_committed_baselines_parse(self):
        from pathlib import Path

        base_dir = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"
        files = sorted(base_dir.glob("BENCH_*.json"))
        assert files, "no committed BENCH baselines found"
        for path in files:
            doc = load_bench(str(path))
            assert doc["cases"], path
            for case in doc["cases"].values():
                assert case["wall_clock_s"] > 0


class TestCli:
    def test_bench_cli_quick(self, tmp_path, capsys):
        from repro.cli import main
        from repro.perf import BenchCase  # noqa: F401  (import sanity)

        out = tmp_path / "BENCH_cli.json"
        # --cases keeps the 16k scale cases out of the unit suite; they run
        # in the CI bench-smoke job (and locally via --cases allreduce16k)
        code = main(["bench", "--quick", "--cases", "fig8", "--output", str(out)])
        assert code == 0
        assert out.exists()
        # run against itself as baseline: speedup ~1x, never a regression
        code = main(
            [
                "bench", "--quick", "--cases", "fig8",
                "--output", str(out), "--baseline", str(out),
                "--max-rss-regression", "1.2",
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "baseline check passed" in captured
        assert "rss 1.00x" in captured

    def test_bench_cli_rejects_unknown_case_filter(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["bench", "--quick", "--cases", "nonesuch"])
        assert code == 2
        assert "matches no case" in capsys.readouterr().out

    def test_bench_cli_repeated_cases_run_the_union(self, monkeypatch):
        import repro.perf
        from repro.cli import main

        ran = []

        def fake_run_suite(quick=False, cases=None):
            ran.extend(c.name for c in cases)
            raise SystemExit(0)  # record the selection, time nothing

        monkeypatch.setattr(repro.perf, "run_suite", fake_run_suite)
        with pytest.raises(SystemExit):
            main(["bench", "--quick", "--cases", "fig8", "--cases", "alltoall_lgs"])
        assert ran == ["fig8_ai_lgs", "fig8_ai_htsim", "alltoall_lgs"]

    def test_bench_cli_rejects_any_unmatched_case_filter(self, capsys):
        from repro.cli import main

        code = main(["bench", "--quick", "--cases", "fig8", "--cases", "nonesuch"])
        assert code == 2
        assert "'nonesuch' matches no case" in capsys.readouterr().out
