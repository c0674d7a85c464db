"""ATLAHS host-side benchmark: set-up time, simulation time, memory and
trace size per workload, plus a traced run that splits them by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload llm_dp_htsim --seed 7 --seconds 20 \\
        --trace 0 --calib-ref-s 0.001

or, for every workload in turn::

    for w in llm_dp_htsim allreduce_rd_lgs storage_ai_cotenant_htsim \\
        allreduce_rd_htsim_sh2; do python3 perfbench/run.py --workload $w \\
        --seed 7 --seconds 20 --trace 0 --calib-ref-s 0.001; done

Every sample is a fresh interpreter (``worker.py``), so no process-global
cache is warm from an earlier sample.  With ``--trace 0`` the run takes
full samples (set-up + ``GoalScheduler.run()``) and set-up-only samples
until ``--seconds`` have passed and at least ``MIN_FULL`` full and
``MIN_SETUP`` set-up measurements exist, and reports medians.  With
``--trace 1`` it alternates untraced and traced full samples and reports the
median per-layer metrics of the traced ones.

Host times are reference seconds: wall seconds x ``--calib-ref-s`` / the
mean time of the calibration passes the sample ran during the same phase
(``calib.SpeedProbe``), which removes most of the drift of a shared
machine.  ``BENCHMARK.json`` fixes ``--calib-ref-s``.

A sample whose outputs fail a check (``benchlib.check_sample``), whose
simulated statistics differ from the other samples of the same seed, or
whose process fails, counts as a failed operation.  The last stdout line is
the JSON result; traced runs also write their spans to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import benchlib
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
MIN_FULL = 3
MIN_SETUP = 5
#: One worker process may take at most this long (the sharded workload's
#: full sample takes ~8 s on a 2-vCPU VM).
SAMPLE_TIMEOUT_S = 60
#: No sample starts after this many seconds, so a run ends within
#: ``LAUNCH_LIMIT_S + SAMPLE_TIMEOUT_S`` even when samples fail.
LAUNCH_LIMIT_S = 100
OUT_DIR = ".perfbench_out"


def run_worker(workload: str, seed: int, kind: str) -> dict:
    """Run one sample in a fresh interpreter and return its record.

    The worker runs in its own process group, so a timeout also stops the
    shard workers it started.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), workload, str(seed), kind],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=SAMPLE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"kind": kind, "error": f"{kind} sample timed out"}
    line = benchlib.parse_last_json_line(out)
    if proc.returncode != 0 or line is None:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"kind": kind, "error": f"{kind} sample exited {proc.returncode}: {tail[0]}"}
    return json.loads(line)


def next_kind(traced: bool, counts: dict) -> tuple:
    """The next sample to run, and whether the minimums are met already.

    Untraced runs take ``MIN_FULL`` full samples, then set-up-only samples
    until ``MIN_SETUP`` set-up measurements exist (a full sample gives one
    too), then full samples.  Traced runs alternate untraced full samples
    (the base of ``bench.trace_overhead``) with traced ones.
    """
    full = counts.get("full", 0)
    if traced:
        other = counts.get("traced", 0)
        return ("full" if full <= other else "traced"), min(full, other) >= 1
    if full < MIN_FULL:
        return "full", False
    if full + counts.get("setup", 0) < MIN_SETUP:
        return "setup", False
    return "full", True


def collect(workload: str, seed: int, seconds: float, traced: bool) -> list:
    """Run samples until ``seconds`` have passed and the minimums are met."""
    samples: list = []
    counts: dict = {}
    start = time.monotonic()
    while time.monotonic() - start < LAUNCH_LIMIT_S:
        kind, enough = next_kind(traced, counts)
        if enough and time.monotonic() - start >= seconds:
            break
        counts[kind] = counts.get(kind, 0) + 1
        samples.append(run_worker(workload, seed, kind))
    return samples


def judge(samples: list) -> list:
    """Per sample, the list of failed checks (empty when it passed)."""
    failures = [
        [s["error"]] if "error" in s else benchlib.check_sample(s) for s in samples
    ]
    ok = [i for i, f in enumerate(failures) if not f]
    for key, label in (
        ("goal_bytes", "GOAL encoding differs between samples of one seed"),
        ("fingerprint", "simulated statistics differ between samples of one seed"),
    ):
        having = [i for i in ok if key in samples[i]]
        for j in benchlib.mismatched([samples[i][key] for i in having]):
            failures[having[j]].append(label)
    return failures


def metrics_of(samples: list, passed: list, traced: bool, calib_ref_s: float) -> dict:
    def ref(sample, phase):
        return benchlib.reference_seconds(
            sample[f"{phase}_wall"], sample[f"{phase}_pass_s"], calib_ref_s
        )

    good = [s for s, ok in zip(samples, passed) if ok]
    full = [s for s in good if s["kind"] == "full"]
    if traced:
        traced_samples = [s for s in good if s["kind"] == "traced"]
        layers = [
            benchlib.layer_metrics(s["layer"], s["calib_s"], calib_ref_s)
            for s in traced_samples
        ]
        values = {
            name: benchlib.median(layer[name] for layer in layers)
            for name, _ in benchlib.PER_LAYER
        }
        values["bench.trace_overhead"] = benchlib.median(
            ref(s, "sim") for s in traced_samples
        ) / benchlib.median(ref(s, "sim") for s in full)
        return benchlib.metric_block(values, benchlib.PER_LAYER)
    values = {
        "setup_s": benchlib.median(ref(s, "setup") for s in good),
        "sim_s": benchlib.median(ref(s, "sim") for s in full),
        "peak_rss_mb": benchlib.median(s["rss_kb"] / 1024 for s in full),
        "goal_bytes": full[0]["goal_bytes"],
    }
    return benchlib.metric_block(values, benchlib.END_TO_END)


def write_spans(workload: str, seed: int, samples: list) -> None:
    """Write the traced samples' spans to ``.perfbench_out/``."""
    out = Path(OUT_DIR)
    out.mkdir(exist_ok=True)
    spans = [s["spans"] for s in samples if s.get("spans")]
    (out / f"spans_{workload}_seed{seed}.json").write_text(json.dumps(spans))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--calib-ref-s",
        type=float,
        required=True,
        help="CPU seconds of one calibration pass on the reference machine",
    )
    args = parser.parse_args(argv)
    if not Path("src/repro/__init__.py").is_file():
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.calib_ref_s <= 0:
        print("perfbench: --seconds and --calib-ref-s must be positive", file=sys.stderr)
        return 2

    traced = bool(args.trace)
    samples = collect(args.workload, args.seed, args.seconds, traced)
    failures = judge(samples)
    passed = [not f for f in failures]
    kinds_needed = ("full", "traced") if traced else ("full",)
    if not all(
        any(ok and s["kind"] == k for s, ok in zip(samples, passed)) for k in kinds_needed
    ):
        for f in failures:
            for line in f:
                print(f"perfbench: {line}", file=sys.stderr)
        print("perfbench: no sample passed its checks; no metrics", file=sys.stderr)
        return 1
    for i, f in enumerate(failures):
        for line in f:
            print(f"perfbench: sample {i} ({samples[i]['kind']}): {line}")
    if traced:
        write_spans(args.workload, args.seed, samples)
    failed = sum(1 for ok in passed if not ok)
    metrics = metrics_of(samples, passed, traced, args.calib_ref_s)
    result = {"correct": failed == 0, "attempted": len(samples), "failed": failed}
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
