"""Traced replay: one span per call into a layer's public functions.

The library has no tracer hook yet, so the traced run does not look inside
``encode``/``decode``. It replays, call by call, what one operation does:

* ``plan_encode``/``plan_decode`` walk the wfvae graph and emit one
  :class:`Call` per layer call, with the shape and chunk the workload gives it.
  Layer widths and kernels come from ``parameter_manifest``; the per-chunk
  frame counts of every layer come from feeding the chunk plan through
  ``Dwt3dStream``/``Idwt3dStream``, ``stream_conv3d`` and ``nearest_upsample``
  on a one-channel, one-pixel clip, so they follow the library's own stream
  rules.
* :class:`Replayer` then makes each call at full size on seeded synthetic
  inputs (real weights), keeping stream state per layer, and records a span.

Replayed calls go through the public wrappers, so conv/norm/upsample spans
include the ``VideoTensor`` finite check on their output, which the model's
internal path skips; ``model.self_s`` (parent span minus child spans) is
therefore a lower bound on the model's own glue time.

The pyramid operations are short enough to replay with real data flow, so
:func:`replay_pyramid` calls the wavelet and analysis functions on the real
clip.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np

import wfcodec as wf
from wfcodec.analysis import subband_energy, subband_entropy
from wfcodec.wavelet import KEYS_2D, KEYS_3D, Dwt3dStream, Idwt3dStream

# Temporal/spatial strides are the one part of the graph parameter_manifest
# does not carry; every other conv has stride 1 and "same" spatial padding.
CONV_STRIDES = {"enc.down1": (2, 2, 2), "enc.down2": (1, 2, 2)}

CONV_CALLS = ("causal_conv3d", "stream_conv3d")
ANALYSIS_CALLS = ("dwt3d", "dwt2d", "Dwt3dStream.feed")
SYNTHESIS_CALLS = ("idwt3d", "idwt2d", "Idwt3dStream.feed")


class ReplayError(RuntimeError):
    """The replay no longer mirrors the library's graph."""


@dataclass
class Call:
    op: str
    layer: str
    name: str
    target: str
    chunk: int
    shape: tuple  # input shape (c, t, h, w)
    out: tuple  # output shape; for subband transforms, bands stacked on channels
    spec: wf.ConvSpec | None = None
    original_t: int = 0
    pad: bool = False  # Dwt3dStream pad_first / Idwt3dStream drop_first
    factors: tuple = ()

    def flop(self) -> int:
        """2 * multiply-adds of a conv call as its GEMM lowering computes them."""
        if self.name not in CONV_CALLS:
            return 0
        return 2 * self.taps() * self.spec.out_channels * self.spec.in_channels * self.gemm_n()

    def taps(self) -> int:
        kt, kh, kw = self.spec.kernel
        return kt * kh * kw

    def gemm_n(self) -> int:
        _, to, ho, wo = self.out
        return to * ho * wo

    def nbytes(self) -> int:
        """Computed bytes read plus written (synthesis reads every band)."""
        bands = {"idwt3d": 8, "Idwt3dStream.feed": 8, "idwt2d": 4}.get(self.name, 1)
        return 4 * (bands * int(np.prod(self.shape)) + int(np.prod(self.out)))


@dataclass
class Span:
    op: str
    layer: str
    name: str
    target: str
    chunk: int
    start: float
    end: float
    nested: bool = False
    iteration: int = -1  # closed-loop iteration of a replayed operation; -1 outside
    flop: int = 0
    nbytes: int = 0
    call: Call | None = field(default=None, repr=False)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def row(self) -> list:
        return [self.op, self.iteration, self.layer, self.name, self.target, self.chunk,
                round(self.start * 1e3, 4), round(self.seconds * 1e3, 4), int(self.nested)]


SPAN_COLUMNS = ["op", "iter", "layer", "name", "target", "chunk", "start_ms", "dur_ms",
                "nested"]


class Spans:
    """In-memory span log; written out once, when the benchmark ends."""

    def __init__(self):
        self.records: list[Span] = []
        self.origin = time.perf_counter()
        self.iteration = -1

    def time(self, op, layer, name, fn, *, target="", chunk=0, nested=False,
             nbytes=0, call=None):
        t0 = time.perf_counter()
        result = fn()
        t1 = time.perf_counter()
        self.records.append(Span(
            op, layer, name, target, chunk, t0 - self.origin, t1 - self.origin, nested,
            self.iteration, call.flop() if call else 0,
            nbytes or (call.nbytes() if call else 0), call))
        return result


# ---------------------------------------------------------------------------
# Call plans for encode and decode.
# ---------------------------------------------------------------------------


def conv_specs(config: wf.ModelConfig) -> dict[str, wf.ConvSpec]:
    """Every conv of the graph, by parameter prefix, rebuilt from the manifest."""
    specs = {}
    for name, shape in wf.parameter_manifest(config):
        if name.endswith(".weight") and len(shape) == 5:
            cout, cin, kt, kh, kw = shape
            layer = name[: -len(".weight")]
            specs[layer] = wf.ConvSpec(
                cin, cout, (kt, kh, kw), CONV_STRIDES.get(layer, (1, 1, 1)),
                ((kh - 1) // 2, (kw - 1) // 2))
    return specs


def _half(t: int) -> int:
    return (t + t % 2) // 2


def _tiny(n: int) -> wf.VideoTensor:
    return wf.VideoTensor(np.zeros((1, n, 1, 1), dtype=np.float32))


class _Planner:
    """Emits the calls of one operation, chunk by chunk."""

    def __init__(self, op: str, specs, streamed: bool):
        self.op = op
        self.specs = specs
        self.streamed = streamed
        self.chunk = 0
        self.calls: list[Call] = []
        self._conv_states: dict[str, wf.CacheState] = {}
        self._waves: dict[str, object] = {}
        self._upsampled: set[str] = set()

    def _emit(self, layer, name, target, shape, out, **kw):
        self.calls.append(Call(self.op, layer, name, target, self.chunk, shape, out, **kw))

    def conv(self, target: str, x: tuple) -> tuple:
        spec = self.specs[target]
        c, n, h, w = x
        if c != spec.in_channels:
            raise ReplayError(f"{target}: {c} input channels, manifest says {spec.in_channels}")
        ph, pw = spec.spatial_pad
        kh, kw = spec.kernel[1:]
        sh, sw = spec.stride[1:]
        out = (spec.out_channels, self._conv_frames(target, spec, n),
               (h + 2 * ph - kh) // sh + 1, (w + 2 * pw - kw) // sw + 1)
        if n:
            stateful = self.streamed and spec.kernel[0] > 1
            name = "stream_conv3d" if stateful else "causal_conv3d"
            self._emit("causal", name, target, x, out, spec=spec)
        return out

    def _conv_frames(self, target, spec, n) -> int:
        if n == 0:
            return 0
        tiny = wf.ConvSpec(1, 1, (spec.kernel[0], 1, 1), (spec.stride[0], 1, 1))
        state = self._conv_states.get(target, wf.CacheState())
        out, self._conv_states[target] = wf.stream_conv3d(
            state, _tiny(n), tiny, np.ones(tiny.weight_shape(), dtype=np.float32))
        return 0 if out is None else out.time

    def norm(self, target: str, x: tuple) -> None:
        if x[1]:
            self._emit("causal", "frame_layernorm", target, x, x)

    def silu(self, target: str, x: tuple) -> None:
        if x[1]:
            self._emit("causal", "silu", target, x, x)

    def upsample(self, target: str, factors: tuple, x: tuple) -> tuple:
        c, n, h, w = x
        ft, fh, fw = factors
        if n == 0:
            return (c, 0, h * fh, w * fw)
        frames = wf.nearest_upsample(_tiny(n), (ft, 1, 1)).time
        if ft == 2 and target in self._upsampled:
            frames += 1  # only a stream's first chunk drops the duplicated frame
        self._upsampled.add(target)
        out = (c, frames, h * fh, w * fw)
        self._emit("causal", "nearest_upsample", target, x, out, factors=factors)
        return out

    def dwt3d(self, target: str, x: tuple, pad_first: bool) -> tuple:
        """Returns the shape of one subband."""
        c, n, h, w = x
        stream = self._waves.setdefault(target, Dwt3dStream(pad_first=pad_first))
        k = stream.feed(np.zeros((1, n, 2, 2), dtype=np.float32))["hhh"].shape[1]
        band = (c, k, h // 2, w // 2)
        if n:
            name = "Dwt3dStream.feed" if self.streamed else "dwt3d"
            self._emit("wavelet", name, target, x, (8 * c,) + band[1:], pad=pad_first)
        return band

    def dwt2d(self, target: str, x: tuple) -> tuple:
        c, n, h, w = x
        band = (c, n, h // 2, w // 2)
        if n:
            self._emit("wavelet", "dwt2d", target, x, (4 * c,) + band[1:])
        return band

    def idwt2d(self, target: str, band: tuple) -> tuple:
        c, n, h, w = band
        out = (c, n, 2 * h, 2 * w)
        if n:
            self._emit("wavelet", "idwt2d", target, band, out)
        return out

    def idwt3d(self, target: str, band: tuple, original_t: int) -> tuple:
        """Streamed: one Idwt3dStream.feed per chunk; direct: one idwt3d call."""
        c, n, h, w = band
        drop_first = original_t % 2 == 1
        if self.streamed:
            stream = self._waves.setdefault(target, Idwt3dStream(drop_first=drop_first))
            zeros = np.zeros((1, n, 1, 1), dtype=np.float32)
            frames = stream.feed({k: zeros for k in KEYS_3D}).shape[1]
            name = "Idwt3dStream.feed"
        else:
            frames, name = original_t, "idwt3d"
        out = (c, frames, 2 * h, 2 * w)
        if n:
            self._emit("wavelet", name, target, band, out, original_t=original_t,
                       pad=drop_first)
        return out

    def wrap(self, shape: tuple) -> None:
        self._emit("tensor", "VideoTensor", "output", shape, shape)

    def validate(self) -> None:
        self._emit("model", "WeightStore.validate", "weights", (), ())

    def block(self, prefix: str, x: tuple) -> tuple:
        self.norm(f"{prefix}.norm1", x)
        self.silu(f"{prefix}.norm1", x)
        h = self.conv(f"{prefix}.conv1", x)
        self.norm(f"{prefix}.norm2", h)
        self.silu(f"{prefix}.norm2", h)
        h = self.conv(f"{prefix}.conv2", h)
        if f"{prefix}.skip" in self.specs:
            self.conv(f"{prefix}.skip", x)
        return h

    def stage(self, prefix: str, x: tuple) -> tuple:
        i = 0
        while f"{prefix}.block{i}.conv1" in self.specs:
            x = self.block(f"{prefix}.block{i}", x)
            i += 1
        return x


def _join(x: tuple, flow: tuple, where: str) -> tuple:
    """Channel concatenation of the backbone and a wavelet inflow."""
    if x[1:] != flow[1:]:
        raise ReplayError(f"{where}: backbone {x} and inflow {flow} do not align")
    return (x[0] + flow[0],) + x[1:]


def plan_encode(config: wf.ModelConfig, shape: tuple, plan: wf.ChunkPlan) -> list[Call]:
    """The layer calls of ``encode(video, config, weights, plan)``."""
    c, t, h, w = shape
    p = _Planner("encode", conv_specs(config), plan.is_streaming)
    p.validate()
    t1 = _half(t)
    latent_t = 0
    for m, frames in enumerate(plan.split(t)):
        p.chunk = m
        b1 = p.dwt3d("enc.L1", (c, frames, h, w), pad_first=t % 2 == 1)
        b2 = p.dwt3d("enc.L2", b1, pad_first=t1 % 2 == 1)
        b3 = p.dwt2d("enc.L3", b2)
        x = p.conv("enc.stem", (8 * c,) + b1[1:])
        x = p.stage("enc.stage1", x)
        x = p.conv("enc.down1", x)
        f2 = p.conv("enc.inflow2", (8 * c,) + b2[1:])
        p.silu("enc.inflow2", f2)
        x = p.stage("enc.stage2", _join(x, f2, "level 2"))
        x = p.conv("enc.down2", x)
        f3 = p.conv("enc.inflow3", (4 * c,) + b3[1:])
        p.silu("enc.inflow3", f3)
        x = p.stage("enc.stage3", _join(x, f3, "level 3"))
        p.norm("enc.head.norm", x)
        p.silu("enc.head.norm", x)
        x = p.conv("enc.head.conv", x)
        latent_t += x[1]
    p.chunk = -1
    latent = (config.latent_channels, latent_t, h // 8, w // 8)
    p.wrap(latent)
    p.wrap(latent)
    if plan.is_streaming:  # the subband echo is re-wrapped after concatenation
        for _ in KEYS_3D:
            p.wrap((c, latent_t, h // 4, w // 4))
        for _ in KEYS_2D:
            p.wrap((c, latent_t, h // 8, w // 8))
    return p.calls


def plan_decode(config: wf.ModelConfig, shape: tuple, plan: wf.ChunkPlan) -> list[Call]:
    """The layer calls of ``decode(latent, config, weights, t, plan)`` for a
    video of ``shape``."""
    c, t, h, w = shape
    cf = config.c_flow
    p = _Planner("decode", conv_specs(config), plan.is_streaming)
    p.validate()
    t_lat, t1 = config.latent_time(t), _half(t)
    w2_band = None
    out_frames = 0
    for m, frames in enumerate(plan.split(t_lat)):
        p.chunk = m
        x = p.conv("dec.stem", (config.latent_channels, frames, h // 8, w // 8))
        x = p.stage("dec.stage3", x)
        tap = (cf,) + x[1:]
        p.silu("dec.outflow3", tap)
        w3 = p.conv("dec.outflow3", tap)
        x = p.upsample("dec.up2", (1, 2, 2), x)
        x = p.conv("dec.up2", x)
        x = p.stage("dec.stage2", x)
        tap = (cf,) + x[1:]
        p.silu("dec.outflow2", tap)
        w2 = p.conv("dec.outflow2", tap)
        p.idwt2d("dec.L3", (c,) + w3[1:])
        w2_band = (c,) + w2[1:]
        if plan.is_streaming:
            contrib = p.idwt3d("dec.L2", w2_band, original_t=t1)
        x = p.upsample("dec.up1", (2, 2, 2), x)
        if plan.is_streaming and contrib[1] != x[1]:
            raise ReplayError(f"level 1: backbone {x} and wavelet {contrib} do not align")
        x = p.conv("dec.up1", x)
        x = p.stage("dec.stage1", x)
        p.norm("dec.out.norm", x)
        p.silu("dec.out.norm", x)
        x = p.conv("dec.out.conv", x)
        if plan.is_streaming:
            out_frames += p.idwt3d("dec.L1", (c,) + x[1:], original_t=t)[1]
    p.chunk = -1
    if plan.is_streaming:
        p.wrap((c, out_frames, h, w))
    for _ in KEYS_3D:
        p.wrap((c, t_lat, h // 4, w // 4))
    for _ in KEYS_2D:
        p.wrap((c, t_lat, h // 8, w // 8))
    if not plan.is_streaming:
        # Direct decode inverts level 2 and level 1 once the backbone is done.
        p.idwt3d("dec.L2", w2_band, original_t=t1)
        for _ in KEYS_3D:
            p.wrap((c,) + x[1:])
        p.idwt3d("dec.L1", (c,) + x[1:], original_t=t)
    return p.calls


def expected_conv_calls(config: wf.ModelConfig, shape: tuple, encode_plan, decode_plan) -> int:
    """Manifest conv count times the calls per conv each plan implies (one per chunk)."""
    convs = list(conv_specs(config))
    n_enc = sum(name.startswith("enc.") for name in convs)
    n_dec = sum(name.startswith("dec.") for name in convs)
    t = shape[1]
    return (n_enc * len(encode_plan.split(t))
            + n_dec * len(decode_plan.split(config.latent_time(t))))


# ---------------------------------------------------------------------------
# Executing a call plan.
# ---------------------------------------------------------------------------


class Replayer:
    """Makes each planned call at full size on seeded synthetic inputs."""

    def __init__(self, spans: Spans, config: wf.ModelConfig, weights: wf.WeightStore,
                 seed: int):
        self.spans = spans
        self.config = config
        self.weights = weights
        self.rng = wf.Rng(seed, stream=7)
        self._inputs: dict[tuple, wf.VideoTensor] = {}
        self._states: dict[str, object] = {}

    def _input(self, shape: tuple) -> wf.VideoTensor:
        if shape not in self._inputs:
            self._inputs[shape] = wf.random_normal(self.rng, shape)
        return self._inputs[shape]

    def run(self, calls: list[Call]) -> None:
        """Replay one execution of an operation; its streams start empty."""
        self._states = {}
        for call in calls:
            fn = self._bind(call)
            result = self.spans.time(call.op, call.layer, call.name, fn,
                                     target=call.target, chunk=call.chunk, call=call)
            _check_shape(call, result)

    def _bind(self, call: Call):
        """Build the call's arguments outside the span; return the timed part."""
        name, target = call.name, call.target
        if name == "WeightStore.validate":
            return lambda: self.weights.validate(self.config)
        x = self._input(call.shape)
        if name == "VideoTensor":
            return lambda: wf.VideoTensor(x.data)
        if name == "silu":
            return lambda: wf.silu(x.data)
        if name == "frame_layernorm":
            gain = self.weights.get(f"{target}.gain")
            bias = self.weights.get(f"{target}.bias")
            return lambda: wf.frame_layernorm(x, gain, bias, self.config.eps)
        if name == "nearest_upsample":
            return lambda: wf.nearest_upsample(x, call.factors)
        if name in CONV_CALLS:
            weight = self.weights.get(f"{target}.weight")
            bias = self.weights.get(f"{target}.bias")
            if name == "causal_conv3d":
                return lambda: wf.causal_conv3d(x, call.spec, weight, bias)

            def stream():
                state = self._states.get(target, wf.CacheState())
                out, self._states[target] = wf.stream_conv3d(state, x, call.spec, weight, bias)
                return out
            return stream
        if name == "dwt3d":
            return lambda: wf.dwt3d(x)
        if name == "dwt2d":
            return lambda: wf.dwt2d(x)
        if name == "Dwt3dStream.feed":
            stream = self._states.setdefault(target, Dwt3dStream(pad_first=call.pad))
            return lambda: stream.feed(x.data)
        if name == "idwt2d":
            bands = wf.SubbandSet2D({k: x for k in KEYS_2D})
            return lambda: wf.idwt2d(bands)
        if name == "idwt3d":
            bands = wf.SubbandSet3D({k: x for k in KEYS_3D})
            return lambda: wf.idwt3d(bands, call.original_t)
        if name == "Idwt3dStream.feed":
            stream = self._states.setdefault(target, Idwt3dStream(drop_first=call.pad))
            arrays = {k: x.data for k in KEYS_3D}
            return lambda: stream.feed(arrays)
        raise ReplayError(f"no replay for {name}")


def _check_shape(call: Call, result) -> None:
    """Replayed conv and wavelet calls must produce the planned shapes."""
    if call.name in CONV_CALLS:
        got = (0,) if result is None else result.shape
    elif call.name in ("dwt3d", "dwt2d"):
        band = result[result.keys()[0]].shape
        got = (band[0] * len(result.keys()),) + band[1:]
    elif call.name == "Dwt3dStream.feed":
        band = result["hhh"].shape
        got = (band[0] * len(KEYS_3D),) + band[1:]
    elif call.name in ("idwt3d", "idwt2d", "Idwt3dStream.feed"):
        got = result.shape
    else:
        return
    want = call.out if call.out[1] or call.name not in CONV_CALLS else (0,)
    if tuple(got) != tuple(want):
        raise ReplayError(f"{call.name} {call.target}: planned {call.out}, replay gave {got}")


def replay_pyramid(spans: Spans, op: str, path: str, bins: int) -> None:
    """Replay ``roundtrip``/``analyze`` with real data flow through the layers.

    The ``VideoTensor`` spans re-wrap each wavelet call's outputs; that work
    happens inside the wavelet call, so those spans are marked nested.
    """
    def wavelet(name, fn, shape, out, original_t=0):
        call = Call(op, "wavelet", name, "", 0, shape, out, original_t=original_t)
        result = spans.time(op, "wavelet", name, fn, call=call)
        arrays = [b.data for _, b in result.items()] if hasattr(result, "items") else [result.data]
        for arr in arrays:
            spans.time(op, "tensor", "VideoTensor", lambda: wf.VideoTensor(arr),
                       nested=True, nbytes=arr.nbytes)
        return result

    video = spans.time(op, "tensor", "load_tensor", lambda: wf.load_tensor(path),
                       nbytes=os.path.getsize(path))
    c, t, h, w = video.shape
    t1, t2 = _half(t), _half(_half(t))
    l1 = wavelet("dwt3d", lambda: wf.dwt3d(video), video.shape, (8 * c, t1, h // 2, w // 2))
    hhh = l1["hhh"]
    l2 = wavelet("dwt3d", lambda: wf.dwt3d(hhh), hhh.shape, (8 * c, t2, h // 4, w // 4))
    hhh = l2["hhh"]
    l3 = wavelet("dwt2d", lambda: wf.dwt2d(hhh), hhh.shape, (4 * c, t2, h // 8, w // 8))
    if op == "analyze":
        for level in (l1, l2, l3):
            spans.time(op, "analysis", "subband_energy", lambda: subband_energy(level))
            spans.time(op, "analysis", "subband_entropy",
                       lambda: subband_entropy(level, bins))
        return
    s2 = wavelet("idwt2d", lambda: wf.idwt2d(l3), l3.band_shape, hhh.shape)
    level2 = l2.replace("hhh", s2)
    s1 = wavelet("idwt3d", lambda: wf.idwt3d(level2, t1), l2.band_shape, l1.band_shape,
                 original_t=t1)
    level1 = l1.replace("hhh", s1)
    wavelet("idwt3d", lambda: wf.idwt3d(level1, t), l1.band_shape, video.shape, original_t=t)


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans.
# ---------------------------------------------------------------------------

# name -> (unit, better); BENCHMARK.json lists the same metrics.
PER_LAYER = {
    "causal.conv_calls": ("count", "lower"),
    "causal.conv_s": ("s", "lower"),
    "causal.conv_gflop": ("GFLOP", "lower"),
    "causal.conv_gflops": ("GFLOP/s", "higher"),
    "causal.conv333_gflops": ("GFLOP/s", "higher"),
    "causal.conv_ceiling_share": ("share", "higher"),
    "causal.norm_s": ("s", "lower"),
    "causal.silu_s": ("s", "lower"),
    "causal.upsample_s": ("s", "lower"),
    "wavelet.analysis_s": ("s", "lower"),
    "wavelet.synthesis_s": ("s", "lower"),
    "wavelet.gb_s": ("GB/s", "higher"),
    "wavelet.bw_share": ("share", "higher"),
    "tensor.load_s": ("s", "lower"),
    "tensor.save_s": ("s", "lower"),
    "tensor.load_mb_s": ("MB/s", "higher"),
    "tensor.wrap_s": ("s", "lower"),
    "model.encode_s": ("s", "lower"),
    "model.decode_s": ("s", "lower"),
    "model.self_s": ("s", "lower"),
    "model.weights_load_s": ("s", "lower"),
    "model.validate_s": ("s", "lower"),
    "model.weights_mib": ("MiB", "lower"),
    "analysis.energy_s": ("s", "lower"),
    "analysis.entropy_s": ("s", "lower"),
}

MODEL_OPS = ("encode", "decode")


def _gemm_shape(call: Call) -> tuple:
    return (call.spec.out_channels, call.spec.in_channels, call.gemm_n())


def gemm_ceiling(records: list[Span], seed: int) -> dict[tuple, float]:
    """Best float32 GEMM time at each (out x in) @ (in x N) shape the conv calls use."""
    import probes

    shapes = {_gemm_shape(s.call) for s in records if s.name in CONV_CALLS and s.call.gemm_n()}
    rng = np.random.default_rng(seed)
    return {shape: probes.gemm_seconds(*shape, rng) for shape in sorted(shapes)}


def conv_rows(records: list[Span], best: dict[tuple, float]) -> list[dict]:
    """One row per conv layer: shapes, calls, time, FLOPs, GFLOP/s and its GEMM
    ceiling (taps times the best GEMM time at each call's own shape)."""
    rows: dict[str, dict] = {}
    for s in records:
        if s.name not in CONV_CALLS:
            continue
        spec = s.call.spec
        row = rows.setdefault(s.target, {
            "target": s.target, "in": spec.in_channels, "out": spec.out_channels,
            "kernel": list(spec.kernel), "stride": list(spec.stride),
            "calls": 0, "seconds": 0.0, "gflop": 0.0, "ceiling_s": 0.0})
        row["calls"] += 1
        row["seconds"] += s.seconds
        row["gflop"] += s.flop / 1e9
        if s.call.gemm_n():
            row["ceiling_s"] += s.call.taps() * best[_gemm_shape(s.call)]
    for row in rows.values():
        row["gflops"] = row["gflop"] / row["seconds"]
        row["ceiling_share"] = row["ceiling_s"] / row["seconds"]
    return list(rows.values())


def span_summary(records: list[Span]) -> dict[str, dict]:
    """Calls and seconds per operation and layer function."""
    out: dict[str, dict] = {}
    for s in records:
        rec = out.setdefault(f"{s.op} {s.layer}.{s.name}", {"calls": 0, "seconds": 0.0})
        rec["calls"] += 1
        rec["seconds"] += s.seconds
    return out


def self_times(records: list[Span], parents: dict[str, float]) -> dict:
    """Per operation: parent span, sum of its (non-nested) child spans, self time."""
    out = {}
    for op, parent in parents.items():
        children = sum(s.seconds for s in records if s.op == op and not s.nested)
        out[op] = {"parent_s": parent, "children_s": children, "self_s": parent - children}
    return out


def layer_metrics(records: list[Span], parents: dict[str, float], ceiling_s: float,
                  copy_gb_s: float, weights_bytes: int) -> dict[str, float]:
    def total(names, attr="seconds"):
        return sum((getattr(s, attr) for s in records if s.name in names), 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    conv = [s for s in records if s.name in CONV_CALLS]
    conv_s = sum((s.seconds for s in conv), 0.0)
    conv_flop = sum(s.flop for s in conv)
    c333 = [s for s in conv
            if s.call.spec.kernel == (3, 3, 3) and s.call.spec.stride == (1, 1, 1)]
    wave_s = total(ANALYSIS_CALLS + SYNTHESIS_CALLS)
    wave_gb_s = ratio(total(ANALYSIS_CALLS + SYNTHESIS_CALLS, "nbytes") / 1e9, wave_s)
    load_s = total(("load_tensor",))
    model_self = self_times(records, {op: parents[op] for op in MODEL_OPS if op in parents})
    return {
        "causal.conv_calls": len(conv),
        "causal.conv_s": conv_s,
        "causal.conv_gflop": conv_flop / 1e9,
        "causal.conv_gflops": ratio(conv_flop / 1e9, conv_s),
        "causal.conv333_gflops": ratio(sum(s.flop for s in c333) / 1e9,
                                       sum((s.seconds for s in c333), 0.0)),
        "causal.conv_ceiling_share": ratio(ceiling_s, conv_s),
        "causal.norm_s": total(("frame_layernorm",)),
        "causal.silu_s": total(("silu",)),
        "causal.upsample_s": total(("nearest_upsample",)),
        "wavelet.analysis_s": total(ANALYSIS_CALLS),
        "wavelet.synthesis_s": total(SYNTHESIS_CALLS),
        "wavelet.gb_s": wave_gb_s,
        "wavelet.bw_share": ratio(wave_gb_s, copy_gb_s),
        "tensor.load_s": load_s,
        "tensor.save_s": total(("save_tensor",)),
        "tensor.load_mb_s": ratio(total(("load_tensor",), "nbytes") / 1e6, load_s),
        "tensor.wrap_s": total(("VideoTensor",)),
        "model.encode_s": parents.get("encode", 0.0),
        "model.decode_s": parents.get("decode", 0.0),
        "model.self_s": sum((v["self_s"] for v in model_self.values()), 0.0),
        "model.weights_load_s": total(("WeightStore.load",)),
        "model.validate_s": total(("WeightStore.validate",)),
        "model.weights_mib": weights_bytes / 2**20,
        "analysis.energy_s": total(("subband_energy",)),
        "analysis.entropy_s": total(("subband_entropy",)),
    }
