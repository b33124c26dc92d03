"""Tests of the benchmark itself: FLOP counts, replay fidelity, the metric
lists in BENCHMARK.json, failure accounting, and refusal without sources.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from itertools import product
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import replay  # noqa: E402
import run  # noqa: E402
import wfcodec as wf  # noqa: E402
import workloads  # noqa: E402

SMALL = wf.ModelConfig(base_channels=8, c_flow=8, blocks_per_stage=1)
SMALL_SHAPE = (3, 9, 16, 16)


def brute_force_flop(spec: wf.ConvSpec, shape) -> int:
    """2 x multiply-adds, counted window by window over the padded input."""
    cin, t, h, w = shape
    kt, kh, kw = spec.kernel
    st, sh, sw = spec.stride
    ph, pw = spec.spatial_pad
    tp, hp, wp = t + kt - 1, h + 2 * ph, w + 2 * pw
    macs = 0
    for t0, y0, x0 in product(range(0, tp - kt + 1, st), range(0, hp - kh + 1, sh),
                              range(0, wp - kw + 1, sw)):
        for _ in product(range(kt), range(kh), range(kw)):
            macs += cin * spec.out_channels
    return 2 * macs


def planned_conv_calls(spec: wf.ConvSpec, shape, plan: wf.ChunkPlan) -> list:
    planner = replay._Planner("encode", {"conv": spec}, plan.is_streaming)
    c, t, h, w = shape
    for m, frames in enumerate(plan.split(t)):
        planner.chunk = m
        planner.conv("conv", (c, frames, h, w))
    return planner.calls


@pytest.mark.parametrize("spec", [
    wf.ConvSpec(2, 3, (3, 3, 3), (1, 1, 1), (1, 1)),
    wf.ConvSpec(2, 3, (3, 3, 3), (2, 2, 2), (1, 1)),
    wf.ConvSpec(2, 3, (3, 1, 3), (1, 1, 2), (0, 1)),
    wf.ConvSpec(4, 2, (1, 1, 1)),
])
def test_conv_flop_matches_brute_force_count(spec):
    shape = (spec.in_channels, 7, 6, 8)
    (call,) = planned_conv_calls(spec, shape, wf.ChunkPlan.direct())
    assert call.flop() == brute_force_flop(spec, shape)
    x = wf.random_normal(wf.Rng(0), shape)
    w = np.ones(spec.weight_shape(), dtype=np.float32)
    assert wf.causal_conv3d(x, spec, w).shape == call.out
    streamed = planned_conv_calls(spec, shape, wf.ChunkPlan.canonical(2))
    assert sum(c.flop() for c in streamed) == call.flop()
    assert sum(c.out[1] for c in streamed) == call.out[1]


# Plans under which every chunk reaches every conv, so each conv is called
# once per chunk.
PLANS = [
    ("direct", "direct"),
    ("canonical:4", "canonical:2"),
    ("canonical:8", "canonical:1"),
    ("canonical:4", "explicit:2,1"),
]


@pytest.mark.parametrize("enc,dec", PLANS)
def test_replayed_conv_count_is_manifest_convs_times_chunks(enc, dec):
    enc_plan, dec_plan = wf.ChunkPlan.parse(enc), wf.ChunkPlan.parse(dec)
    calls = (replay.plan_encode(SMALL, SMALL_SHAPE, enc_plan)
             + replay.plan_decode(SMALL, SMALL_SHAPE, dec_plan))
    convs = [c for c in calls if c.name in replay.CONV_CALLS]
    assert len(convs) == replay.expected_conv_calls(SMALL, SMALL_SHAPE, enc_plan, dec_plan)
    assert {c.target for c in convs} == set(replay.conv_specs(SMALL))


def test_chunks_that_reach_no_frames_make_no_conv_call():
    """Under canonical:2 the level-2 Haar pairing emits on every other chunk
    only; stage 2 and 3 then see empty chunks, which the library skips."""
    plan = wf.ChunkPlan.canonical(2)
    calls = replay.plan_encode(SMALL, SMALL_SHAPE, plan)
    per_chunk = {}
    for c in calls:
        if c.name in replay.CONV_CALLS:
            per_chunk.setdefault(c.target, []).append(c.chunk)
    chunks = len(plan.split(SMALL_SHAPE[1]))
    assert per_chunk["enc.stem"] == list(range(chunks))
    assert len(per_chunk["enc.head.conv"]) < chunks


@pytest.mark.parametrize("enc,dec", PLANS)
def test_replay_shapes_match_the_library(enc, dec):
    """Every replayed call yields the planned shape (Replayer checks it), and
    the planned output wraps have the shapes encode/decode return."""
    enc_plan, dec_plan = wf.ChunkPlan.parse(enc), wf.ChunkPlan.parse(dec)
    weights = wf.init_weights(SMALL, wf.Rng(3))
    video = wf.random_normal(wf.Rng(4), SMALL_SHAPE)
    enc_calls = replay.plan_encode(SMALL, SMALL_SHAPE, enc_plan)
    dec_calls = replay.plan_decode(SMALL, SMALL_SHAPE, dec_plan)
    spans = replay.Spans()
    replay.Replayer(spans, SMALL, weights, seed=5).run(enc_calls + dec_calls)
    assert len(spans.records) == len(enc_calls) + len(dec_calls)

    encoded = wf.encode(video, SMALL, weights, enc_plan)
    decoded = wf.decode(encoded.latent.mean, SMALL, weights, video.time, dec_plan)
    wraps = [c.shape for c in enc_calls if c.name == "VideoTensor"]
    assert wraps[0] == encoded.latent.mean.shape
    level1 = [c.out for c in dec_calls if c.target == "dec.L1"]
    frames = sum(out[1] for out in level1)
    assert (level1[0][0], frames) + level1[0][2:] == decoded.video.shape


def test_self_time_plus_children_is_the_parent_span():
    spans = replay.Spans()
    for op, seconds in (("encode", 0.2), ("encode", 0.3), ("decode", 0.1)):
        spans.records.append(replay.Span(op, "causal", "silu", "", 0, 0.0, seconds))
    spans.records.append(replay.Span("decode", "tensor", "VideoTensor", "", 0, 0.0, 9.0,
                                     nested=True))
    parents = {"encode": 1.0, "decode": 0.4}
    for op, rec in replay.self_times(spans.records, parents).items():
        assert rec["self_s"] + rec["children_s"] == pytest.approx(parents[op])
    metrics = replay.layer_metrics(spans.records, parents, 0.0, 1.0, 0)
    assert metrics["model.self_s"] == pytest.approx(1.4 - 0.6)
    assert set(metrics) == set(replay.PER_LAYER)


def test_benchmark_json_lists_the_metrics_the_code_reports():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == replay.PER_LAYER
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


class _FlakyRun:
    def __init__(self):
        self.calls = 0

    def run(self, op):
        self.calls += 1
        if op == "bad":
            raise ValueError("broken")
        return self.calls

    def check(self, op, out):
        return {"ok": out % 2 == 1, "dev": 0.0, "tol": 1.0}


def test_failed_and_raising_operations_are_counted_and_not_timed(monkeypatch):
    monkeypatch.setattr(run, "MIN_ITERS", 2)
    outcome = run.Outcome(("good", "bad"))
    samples, _ = run._closed_loop(_FlakyRun(), ("good", "bad"), 0.0, outcome)
    assert outcome.attempted == 4 and outcome.failed == 2
    assert len(samples["good"]) == 2 and samples["bad"] == []
    assert "ValueError" in outcome.by_op["bad"]["errors"][0]["error"]


def test_refuses_to_run_without_library_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pyramid-io", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
