"""wfcodec benchmark: one workload per run, closed loop, every output checked.

Run from the repository root::

    python3 perfbench/run.py --workload direct-33 --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``direct-33``   encode + decode of a (3,33,64,64) clip in direct mode;
* ``stream-65``   the same on (3,65,64,64), encode canonical:4, decode canonical:2;
* ``pyramid-io``  .wfvt load + 3-level pyramid round trip / subband analysis
                  of a (3,129,256,256) clip.

One operation at a time, one process. The BLAS thread count is set to the
usable CPU count before numpy loads and read back from the loaded library.

``--trace 0`` measures the end-to-end metrics: set-up time (median of
several set-ups), the throughput of each of the workload's two operations
(median over the closed loop) and their peak traced memory (a separate
untimed pass under tracemalloc). ``--trace 1`` runs the same closed loop
(without the memory pass), replays every layer call of each operation right
after the operation ran (replay.py), probes the machine, and reports the
per-layer metrics as medians over the loop's iterations.

The second-to-last stdout line is the full report (seed, thread cap, sample
counts, checks and, when tracing, every span). The last line is the result:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import probes

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("direct-33", "stream-65", "pyramid-io")
SETUP_REPS = 5
MIN_ITERS = 3

# name -> unit; BENCHMARK.json lists the same metrics. op1/op2 are the
# workload's two operations, in order: encode/decode or roundtrip/analyze.
END_TO_END = {
    "setup_s": "s",
    "op1_mvox_s": "Mvox/s",
    "op2_mvox_s": "Mvox/s",
    "op1_peak_mib": "MiB",
    "op2_peak_mib": "MiB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must be in [0, 2**63)")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def _import_library():
    """Import wfcodec from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "wfcodec" / "__init__.py").is_file():
        raise ImportError(f"no wfcodec sources under {src}")
    sys.path.insert(0, str(src))
    import wfcodec

    if Path(wfcodec.__file__).resolve().parent != src / "wfcodec":
        raise ImportError(f"wfcodec imported from {wfcodec.__file__}, not {src}")


class Outcome:
    """Attempted and failed operations, with the worst deviation per op."""

    def __init__(self, ops):
        self.by_op = {op: {"attempted": 0, "failed": 0, "max_dev": 0.0, "tol": None,
                           "errors": []} for op in ops}

    def add(self, op: str, verdict: dict) -> None:
        rec = self.by_op[op]
        rec["attempted"] += 1
        rec["failed"] += not verdict["ok"]
        if verdict.get("dev") is not None:
            rec["max_dev"] = max(rec["max_dev"], verdict["dev"])
            rec["tol"] = verdict["tol"]
        if not verdict["ok"] and len(rec["errors"]) < 3:
            rec["errors"].append({k: v for k, v in verdict.items() if k != "ok"})

    @property
    def attempted(self) -> int:
        return sum(r["attempted"] for r in self.by_op.values())

    @property
    def failed(self) -> int:
        return sum(r["failed"] for r in self.by_op.values())


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def _peak_mib(fn):
    """Peak tracemalloc memory of one call, above what was live when it began."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, (peak - base) / 2**20


def _attempt(run, op, outcome: Outcome, measure):
    """One checked operation; returns its measurement, or None if it failed."""
    try:
        out, value = measure(lambda: run.run(op))
        verdict = run.check(op, out)
    except Exception as exc:  # a raised exception counts as a failed operation
        verdict = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
    outcome.add(op, verdict)
    return value if verdict["ok"] else None


def _closed_loop(run, ops, seconds: float, outcome: Outcome, after=None):
    """Alternate the ops until ``seconds`` have passed and each ran MIN_ITERS times.

    ``after(op, iteration, seconds)`` runs untimed after each op; ``seconds``
    is None when the op failed.
    """
    samples = {op: [] for op in ops}
    start = time.perf_counter()
    iters = 0
    while iters < MIN_ITERS or time.perf_counter() - start < seconds:
        for op in ops:
            dt = _attempt(run, op, outcome, _timed)
            if dt is not None:
                samples[op].append(dt)
            if after is not None:
                after(op, iters, dt)
        iters += 1
    return samples, time.perf_counter() - start


def _stats(values: list[float]) -> dict:
    if not values:
        return {"samples": 0}
    return {"samples": len(values), "median_s": statistics.median(values),
            "min_s": min(values), "max_s": max(values)}


def _named_figures(workload, ops_report: dict, setup: dict) -> dict:
    """The end-to-end figures under the names the workload's operations suggest."""
    out = {}
    for op, rec in ops_report.items():
        if "median_s" not in rec:
            continue
        if op in ("encode", "decode"):
            out[f"{op}_fps"] = workload.shape[1] / rec["median_s"]
        else:
            out[f"{op}_mvox_s"] = rec["mvox_s"]
        if "peak_mib" in rec:
            key = "pyramid_peak_mib" if op == "roundtrip" else f"{op}_peak_mib"
            out[key] = rec["peak_mib"]
    if "median_s" in setup:
        out["setup_s"] = setup["median_s"]
    return out


def run_workload(workload, seed: int, seconds: int, trace: bool, threads: int,
                 workdir: str):
    import numpy as np

    import replay
    import workloads

    spans = replay.Spans() if trace else workloads.NullSpans()
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "blas_threads": probes.blas_threads(threads),
        "loop": "closed, one operation at a time, one process",
        "ops": {}, "shape": list(workload.shape),
    }
    llc_bytes, llc_source = probes.last_level_cache_bytes()
    report["input_bytes"] = int(np.prod(workload.shape)) * 4
    report["llc"] = {"bytes": llc_bytes, "source": llc_source}
    if trace:
        # First, while little else is resident: it needs two arrays of 4x the LLC.
        report["machine"] = {"copy": probes.copy_bandwidth(llc_bytes)}

    run = workload.start(seed, workdir, spans)
    _, report["generate_s"] = _timed(run.generate)
    setup_times = [_timed(run.setup)[1] for _ in range(1 if trace else SETUP_REPS)]
    report["setup"] = _stats(setup_times)
    _, report["prepare_s"] = _timed(run.prepare)

    outcome = Outcome(workload.ops)
    peaks, tracer = {}, None
    if trace:
        tracer = _Tracer(workload, run, spans, seed)
    else:
        for op in workload.ops:
            peaks[op] = _attempt(run, op, outcome, _peak_mib)
    samples, report["loop_s"] = _closed_loop(
        run, workload.ops, seconds, outcome, tracer.after if tracer else None)

    voxels = int(np.prod(workload.shape))
    for op in workload.ops:
        rec = _stats(samples[op])
        if "median_s" in rec:
            rec["mvox_s"] = voxels / 1e6 / rec["median_s"]
        if peaks.get(op) is not None:
            rec["peak_mib"] = peaks[op]
        report["ops"][op] = rec
    report["checks"] = outcome.by_op
    report["attempted"], report["failed"] = outcome.attempted, outcome.failed
    report["error_rate"] = outcome.failed / max(outcome.attempted, 1)
    report["named"] = _named_figures(workload, report["ops"], report["setup"])

    op1, op2 = workload.ops
    if trace:
        metrics = _trace(workload, run, tracer, report, seed)
        units = {name: unit for name, (unit, _) in replay.PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": report["setup"].get("median_s", 0.0),
            "op1_mvox_s": report["ops"][op1].get("mvox_s", 0.0),
            "op2_mvox_s": report["ops"][op2].get("mvox_s", 0.0),
            "op1_peak_mib": report["ops"][op1].get("peak_mib", 0.0),
            "op2_peak_mib": report["ops"][op2].get("peak_mib", 0.0),
        }
        units = END_TO_END
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return report, result


class _Tracer:
    """Replays each operation right after the closed loop ran it, so that the
    replay and its parent span see the same machine state."""

    def __init__(self, workload, run, spans, seed: int):
        import replay
        import workloads

        self.spans = spans
        self.parents: dict[tuple[str, int], float] = {}
        if isinstance(workload, workloads.ModelWorkload):
            replayer = replay.Replayer(spans, run.config, run.weights, seed)
            plans = {
                "encode": replay.plan_encode(run.config, workload.shape, run.encode_plan),
                "decode": replay.plan_decode(run.config, workload.shape, run.decode_plan),
            }
            self._replay = {op: functools.partial(replayer.run, calls)
                            for op, calls in plans.items()}
        else:
            self._replay = {
                op: functools.partial(replay.replay_pyramid, spans, op, run.video_path,
                                      workloads.ENTROPY_BINS)
                for op in workload.ops
            }

    def after(self, op: str, iteration: int, seconds) -> None:
        if seconds is None:
            return
        self.parents[(op, iteration)] = seconds
        self.spans.iteration = iteration
        self._replay[op]()
        self.spans.iteration = -1


def _trace(workload, run, tracer: _Tracer, report, seed: int) -> dict:
    """Turn the replayed spans into per-layer metrics: computed for every
    iteration in which both operations succeeded, then the median of each."""
    import replay
    import workloads

    records = tracer.spans.records
    ops = workload.ops
    iterations = sorted({i for (_, i) in tracer.parents
                         if all((op, i) in tracer.parents for op in ops)})
    weights_bytes = 0
    if isinstance(workload, workloads.ModelWorkload):
        expected = replay.expected_conv_calls(
            run.config, workload.shape, run.encode_plan, run.decode_plan)
        replayed = [sum(s.name in replay.CONV_CALLS for s in records if s.iteration == i)
                    for i in iterations]
        report["fidelity"] = {"replayed_conv_calls": replayed,
                              "manifest_convs_x_chunks": expected}
        if any(n != expected for n in replayed):
            raise replay.ReplayError(f"replayed {replayed} conv calls, plan implies {expected}")
        weights_bytes = os.path.getsize(run.weights_path)

    best = replay.gemm_ceiling(records, seed)
    rows = replay.conv_rows(records, best)
    machine = report["machine"]
    ceiling_s = sum(row["ceiling_s"] for row in rows)
    machine["gemm_gflops"] = sum(row["gflop"] for row in rows) / ceiling_s if ceiling_s else None
    machine["copy_gb_s"] = machine["copy"]["gb_s"]
    machine["blas_threads"] = report["blas_threads"]["readback"]
    report["conv_layers"] = rows

    per_iteration, self_rows, overhead = [], [], {op: [] for op in ops}
    for i in iterations:
        recs = [s for s in records if s.iteration in (-1, i)]
        parents = {op: tracer.parents[(op, i)] for op in ops}
        iter_ceiling = sum(row["ceiling_s"] for row in replay.conv_rows(recs, best))
        per_iteration.append(replay.layer_metrics(
            recs, parents, iter_ceiling, machine["copy_gb_s"], weights_bytes))
        self_rows.append(replay.self_times(recs, parents))
        for op in ops:
            mine = [s for s in recs if s.op == op]
            overhead[op].append(max(s.end for s in mine) - min(s.start for s in mine)
                                - parents[op])
    if not per_iteration:  # every iteration failed: only set-up spans remain
        per_iteration.append(replay.layer_metrics(
            [s for s in records if s.iteration == -1], {}, 0.0, machine["copy_gb_s"],
            weights_bytes))
    metrics = {name: statistics.median(m[name] for m in per_iteration)
               for name in replay.PER_LAYER}
    report["trace_iterations"] = len(iterations)
    report["self_times"] = self_rows
    report["tracing_overhead_s"] = {op: statistics.median(v) for op, v in overhead.items() if v}
    report["per_layer"] = metrics
    report["span_summary"] = replay.span_summary(records)
    report["spans"] = {"columns": replay.SPAN_COLUMNS, "rows": [s.row() for s in records]}
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    threads = probes.cap_blas_threads()
    try:
        _import_library()
    except ImportError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    workdir = BENCH_DIR / "work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report, result = run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                      threads, str(workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it
    print(json.dumps({"report": report}, separators=(",", ":")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
