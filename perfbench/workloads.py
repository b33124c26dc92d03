"""The benchmark's workloads: seeded input generation, the operations each
workload times, and the checks every output must pass.

A workload run goes through four stages, in this order:

* ``generate`` writes the seeded inputs to files (untimed generator work);
* ``setup`` loads them back the way a user of the library would (timed as
  ``setup_s``);
* ``prepare`` computes, once, whatever the output checks compare against;
* ``run(op)`` performs one operation; ``check(op, output)`` judges it.

The library only ever receives the generated arrays and files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

import wfcodec as wf
from wfcodec.analysis import analyze_pyramid
from wfcodec.cli import DEFAULT_ROUNDTRIP_TOL, DEFAULT_STREAM_TOL

PRESET = "wfvae-s"
ENTROPY_BINS = 256
FRACTION_SUM_TOL = 1e-6


class NullSpans:
    """Stands in for :class:`replay.Spans` when tracing is off."""

    def time(self, op, layer, name, fn, **_):
        return fn()


def _max_dev(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


def _finite(*arrays) -> bool:
    return all(bool(np.isfinite(a).all()) for a in arrays)


@dataclass(frozen=True)
class ModelWorkload:
    """Encode a seeded noise clip with seeded wfvae-s weights, then decode its
    latent mean. The other execution mode is the reference."""

    name: str
    shape: tuple[int, int, int, int]
    encode_plan: str
    decode_plan: str
    ref_encode_plan: str
    ref_decode_plan: str
    ops = ("encode", "decode")

    def start(self, seed: int, workdir: str, spans) -> "ModelRun":
        return ModelRun(self, seed, workdir, spans)


@dataclass(frozen=True)
class PyramidWorkload:
    """Pyramid round trip and subband analysis of a seeded clip stored as .wfvt."""

    name: str
    shape: tuple[int, int, int, int]
    ops = ("roundtrip", "analyze")

    def start(self, seed: int, workdir: str, spans) -> "PyramidRun":
        return PyramidRun(self, seed, workdir, spans)


WORKLOADS = {
    w.name: w
    for w in (
        ModelWorkload(
            "direct-33", (3, 33, 64, 64), "direct", "direct", "canonical:4", "canonical:2"
        ),
        ModelWorkload(
            "stream-65", (3, 65, 64, 64), "canonical:4", "canonical:2", "direct", "direct"
        ),
        PyramidWorkload("pyramid-io", (3, 129, 256, 256)),
    )
}


class ModelRun:
    def __init__(self, workload: ModelWorkload, seed: int, workdir: str, spans):
        self.workload = workload
        self.seed = seed
        self.spans = spans
        self.config = wf.preset_config(PRESET)
        self.weights_path = os.path.join(workdir, "weights.wfwt")
        self.video_path = os.path.join(workdir, "clip.wfvt")
        self.encode_plan = wf.ChunkPlan.parse(workload.encode_plan)
        self.decode_plan = wf.ChunkPlan.parse(workload.decode_plan)

    def generate(self) -> None:
        weights = wf.init_weights(self.config, wf.Rng(self.seed))
        self.spans.time("generate", "model", "WeightStore.save",
                        lambda: weights.save(self.weights_path))
        clip = wf.random_normal(wf.Rng(self.seed, stream=1), self.workload.shape)
        self.spans.time("generate", "tensor", "save_tensor",
                        lambda: wf.save_tensor(clip, self.video_path),
                        nbytes=clip.data.nbytes)

    def setup(self) -> None:
        self.weights = self.spans.time(
            "setup", "model", "WeightStore.load",
            lambda: wf.WeightStore.load(self.weights_path))
        self.spans.time("setup", "model", "WeightStore.validate",
                        lambda: self.weights.validate(self.config))
        self.video = self.spans.time(
            "setup", "tensor", "load_tensor", lambda: wf.load_tensor(self.video_path),
            nbytes=os.path.getsize(self.video_path))

    def prepare(self) -> None:
        w = self.workload
        enc = wf.encode(self.video, self.config, self.weights,
                        wf.ChunkPlan.parse(w.ref_encode_plan))
        self.z = enc.latent.mean
        self.ref_mean = enc.latent.mean.data
        self.ref_logvar = enc.latent.logvar.data
        dec = wf.decode(self.z, self.config, self.weights, self.video.time,
                        wf.ChunkPlan.parse(w.ref_decode_plan))
        self.ref_video = dec.video.data

    def run(self, op: str):
        if op == "encode":
            return wf.encode(self.video, self.config, self.weights, self.encode_plan)
        return wf.decode(self.z, self.config, self.weights, self.video.time,
                         self.decode_plan)

    def check(self, op: str, out) -> dict:
        c, t, h, w = self.workload.shape
        t_lat = self.config.latent_time(t)
        band2 = (c, t_lat, h // 4, w // 4)
        band3 = (c, t_lat, h // 8, w // 8)
        if op == "encode":
            latent = (self.config.latent_channels, t_lat, h // 8, w // 8)
            shapes_ok = (
                out.latent.mean.shape == latent
                and out.latent.logvar.shape == latent
                and out.w2.band_shape == band2
                and out.w3.band_shape == band3
            )
            finite = _finite(out.latent.mean.data, out.latent.logvar.data)
            dev = max(_max_dev(out.latent.mean.data, self.ref_mean),
                      _max_dev(out.latent.logvar.data, self.ref_logvar)) if shapes_ok else None
        else:
            shapes_ok = (
                out.video.shape == self.workload.shape
                and out.w2_hat.band_shape == band2
                and out.w3_hat.band_shape == band3
            )
            finite = _finite(out.video.data)
            dev = _max_dev(out.video.data, self.ref_video) if shapes_ok else None
        ok = shapes_ok and finite and dev is not None and dev <= DEFAULT_STREAM_TOL
        return {"ok": ok, "shapes_ok": shapes_ok, "finite": finite, "dev": dev,
                "tol": DEFAULT_STREAM_TOL}


class PyramidRun:
    def __init__(self, workload: PyramidWorkload, seed: int, workdir: str, spans):
        self.workload = workload
        self.seed = seed
        self.spans = spans
        self.video_path = os.path.join(workdir, "clip.wfvt")

    def generate(self) -> None:
        clip = wf.random_normal(wf.Rng(self.seed, stream=1), self.workload.shape)
        self.spans.time("generate", "tensor", "save_tensor",
                        lambda: wf.save_tensor(clip, self.video_path),
                        nbytes=clip.data.nbytes)
        self.original = clip.data

    def setup(self) -> None:
        self.spans.time("setup", "tensor", "load_tensor",
                        lambda: wf.load_tensor(self.video_path),
                        nbytes=os.path.getsize(self.video_path))

    def prepare(self) -> None:
        """The generated clip itself is the reference; nothing to compute."""

    def run(self, op: str):
        video = wf.load_tensor(self.video_path)
        pyramid = wf.build_pyramid(video)
        if op == "roundtrip":
            return wf.reconstruct_pyramid(pyramid, video.time)
        return analyze_pyramid(pyramid, ENTROPY_BINS)

    def check(self, op: str, out) -> dict:
        if op == "roundtrip":
            shapes_ok = out.shape == self.workload.shape
            finite = _finite(out.data)
            dev = _max_dev(out.data, self.original) if shapes_ok else None
            ok = shapes_ok and finite and dev is not None and dev <= DEFAULT_ROUNDTRIP_TOL
            return {"ok": ok, "shapes_ok": shapes_ok, "finite": finite, "dev": dev,
                    "tol": DEFAULT_ROUNDTRIP_TOL}
        levels = {1: 8, 2: 8, 3: 4}
        counts_ok = [r["level"] for r in out] == [lv for lv, n in levels.items() for _ in range(n)]
        finite = all(np.isfinite([r["energy"], r["energy_fraction"], r["entropy_bits"]]).all()
                     for r in out)
        entropy_ok = all(0.0 <= r["entropy_bits"] <= np.log2(ENTROPY_BINS) for r in out)
        dev = max(
            abs(sum(r["energy_fraction"] for r in out if r["level"] == lv) - 1.0)
            for lv in levels
        )
        degenerate = any(r["degenerate"] for r in out)
        ok = counts_ok and finite and entropy_ok and not degenerate and dev <= FRACTION_SUM_TOL
        return {"ok": ok, "shapes_ok": counts_ok, "finite": finite, "dev": dev,
                "tol": FRACTION_SUM_TOL}
