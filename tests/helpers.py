"""Shared test utilities: seeded tensors, synthetic videos, deviation measures,
brute-force oracles.

The oracles here deliberately use plain Python loops or independent numpy
formulations so they cannot share a code path with the implementations they
check.
"""

import itertools

import numpy as np
from hypothesis import strategies as st

from wfcodec import (
    ConvSpec,
    Rng,
    SubbandSet2D,
    SubbandSet3D,
    VideoTensor,
    build_pyramid,
    causal_conv3d,
    frame_layernorm,
    idwt2d,
    idwt3d,
    nearest_upsample,
    random_normal,
    silu,
)
from wfcodec.wavelet import KEYS_3D


def make_random(seed: int, shape) -> VideoTensor:
    return VideoTensor(Rng(seed).normal(shape))


def smooth_video(
    channels: int = 3, time: int = 33, height: int = 64, width: int = 64
) -> VideoTensor:
    """Separable low-frequency sinusoid product with a DC offset.

    One cycle per axis, phase-shifted per channel. Almost all of its energy
    lands in the all-low-pass subband of a single-level 3D transform.
    """
    c = np.arange(channels, dtype=np.float64)
    t = np.arange(time, dtype=np.float64)
    y = np.arange(height, dtype=np.float64)
    x = np.arange(width, dtype=np.float64)
    temporal = 1.0 + 0.5 * np.sin(
        2.0 * np.pi * (t[None, :] / max(time, 2) + c[:, None] / max(channels, 1))
    )
    vertical = 1.0 + 0.5 * np.sin(2.0 * np.pi * y / height)
    horizontal = 1.0 + 0.5 * np.cos(2.0 * np.pi * x / width)
    grid = (
        temporal[:, :, None, None]
        * vertical[None, None, :, None]
        * horizontal[None, None, None, :]
    )
    return VideoTensor(grid.astype(np.float32))


def noise_video(
    seed: int, channels: int = 3, time: int = 33, height: int = 64, width: int = 64
) -> VideoTensor:
    """Seeded white noise; spreads energy evenly across all subbands."""
    return random_normal(Rng(seed), (channels, time, height, width))


def ramp_video(
    channels: int = 3, time: int = 8, height: int = 16, width: int = 16
) -> VideoTensor:
    """Smooth linear ramp along every axis; useful for low-pass-only checks."""
    c = np.arange(channels, dtype=np.float64) + 1.0
    t = np.linspace(0.0, 1.0, time)
    y = np.linspace(0.0, 1.0, height)
    x = np.linspace(0.0, 1.0, width)
    grid = (
        c[:, None, None, None]
        + t[None, :, None, None]
        + y[None, None, :, None]
        + x[None, None, None, :]
    )
    return VideoTensor(grid.astype(np.float32))


def max_abs_diff(a, b) -> float:
    a = a.data if isinstance(a, VideoTensor) else np.asarray(a)
    b = b.data if isinstance(b, VideoTensor) else np.asarray(b)
    assert a.shape == b.shape, f"shape mismatch {a.shape} vs {b.shape}"
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))


def draw_chunk_sizes(draw, total: int) -> list[int]:
    """A hypothesis draw of chunk sizes >= 1 summing to ``total``."""
    cuts = draw(st.sets(st.integers(1, max(total - 1, 1)), max_size=total - 1))
    bounds = [0, *sorted(cuts), total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def conv3d_loop_oracle(x, weight, bias, stride, spatial_pad, pad_mode="replicate"):
    """Nested-loop causal 3D convolution, the reference for causal_conv3d.

    Pads time at the front by k_t - 1 (replicating frame 0 or zeros), pads
    space symmetrically with zeros, then walks every output element with
    explicit loops in float64.
    """
    x = np.asarray(x, dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    cout, cin, kt, kh, kw = weight.shape
    st, sh, sw = stride
    ph, pw = spatial_pad
    c, t, h, w = x.shape
    assert c == cin
    lead = np.repeat(x[:, :1], kt - 1, axis=1) if pad_mode == "replicate" else np.zeros(
        (c, kt - 1, h, w)
    )
    xp = np.concatenate([lead, x], axis=1) if kt > 1 else x
    xp = np.pad(xp, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    tp, hp, wp = xp.shape[1:]
    to = (tp - kt) // st + 1
    ho = (hp - kh) // sh + 1
    wo = (wp - kw) // sw + 1
    out = np.zeros((cout, to, ho, wo))
    for o in range(cout):
        for n in range(to):
            for y in range(ho):
                for z in range(wo):
                    acc = 0.0
                    for i in range(cin):
                        for dt in range(kt):
                            for dy in range(kh):
                                for dx in range(kw):
                                    acc += (
                                        weight[o, i, dt, dy, dx]
                                        * xp[i, n * st + dt, y * sh + dy, z * sw + dx]
                                    )
                    out[o, n, y, z] = acc + bias[o]
    return out


# ---------------------------------------------------------------------------
# 3D Haar oracle: every coefficient written out as the signed sum of one
# 2x2x2 block, from the filter definition h = (1, 1)/sqrt(2) (scaling) and
# g = (1, -1)/sqrt(2) (wavelet) on each axis, in float64.
# ---------------------------------------------------------------------------

_HAAR_SIGNS = {"h": (1.0, 1.0), "g": (1.0, -1.0)}


def _haar_sign(key, i, j, k) -> float:
    """Filter tap product of subband ``key`` at block offset (i, j, k) in (t, h, w)."""
    return _HAAR_SIGNS[key[0]][i] * _HAAR_SIGNS[key[1]][j] * _HAAR_SIGNS[key[2]][k]


def haar3d_oracle(x) -> dict:
    """Eight float64 subbands of one 3D Haar level, keyed hhh..ggg.

    An odd frame count replicates frame 0 once in front (the causal pad rule).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1] % 2:
        x = np.concatenate([x[:, :1], x], axis=1)
    return {
        key: sum(
            _haar_sign(key, i, j, k) * x[:, i::2, j::2, k::2]
            for i, j, k in itertools.product((0, 1), repeat=3)
        )
        / np.sqrt(8.0)
        for key in KEYS_3D
    }


def ihaar3d_oracle(bands, original_t: int) -> np.ndarray:
    """Inverse of :func:`haar3d_oracle`: each output 2x2x2 block is the signed
    sum of its eight coefficients; the replicated frame 0 is dropped."""
    bands = {key: np.asarray(bands[key], dtype=np.float64) for key in KEYS_3D}
    c, n, h, w = bands["hhh"].shape
    out = np.empty((c, 2 * n, 2 * h, 2 * w))
    for i, j, k in itertools.product((0, 1), repeat=3):
        out[:, i::2, j::2, k::2] = sum(
            _haar_sign(key, i, j, k) * bands[key] for key in KEYS_3D
        ) / np.sqrt(8.0)
    return out[:, 2 * n - original_t :]


def squared_l2(arr) -> float:
    flat = np.asarray(arr, dtype=np.float64).ravel()
    return float(np.dot(flat, flat))


# ---------------------------------------------------------------------------
# Whole-clip model oracle: the energy-flow graph wired by hand from public
# whole-clip primitives, independent of the model's chunk executor. Conv
# geometry comes from the weight shapes; only the two strided downsamplers
# are named. Supports the per-frame layer norm.
# ---------------------------------------------------------------------------

_ORACLE_STRIDES = {"enc.down1": (2, 2, 2), "enc.down2": (1, 2, 2)}


def _oracle_conv(x, weights, name):
    weight = weights.get(f"{name}.weight")
    cout, cin, kt, kh, kw = weight.shape
    spec = ConvSpec(
        cin, cout, (kt, kh, kw), _ORACLE_STRIDES.get(name, (1, 1, 1)),
        ((kh - 1) // 2, (kw - 1) // 2),
    )
    return causal_conv3d(x, spec, weight, weights.get(f"{name}.bias"))


def _oracle_norm_act(x, weights, name):
    normed = frame_layernorm(x, weights.get(f"{name}.gain"), weights.get(f"{name}.bias"))
    return VideoTensor(silu(normed.data))


def _oracle_stage(x, weights, prefix, config):
    for i in range(config.blocks_per_stage):
        p = f"{prefix}.block{i}"
        h = _oracle_norm_act(x, weights, f"{p}.norm1")
        h = _oracle_conv(h, weights, f"{p}.conv1")
        h = _oracle_norm_act(h, weights, f"{p}.norm2")
        h = _oracle_conv(h, weights, f"{p}.conv2")
        skip = x
        if h.channels != x.channels:
            skip = _oracle_conv(x, weights, f"{p}.skip")
        x = VideoTensor(skip.data + h.data)
    return x


def _oracle_inflow(x, weights, name, stack):
    flow = silu(_oracle_conv(VideoTensor(stack), weights, name).data)
    return VideoTensor(np.concatenate([x.data, flow], axis=0))


def _oracle_outflow(x, weights, name, c_flow):
    return _oracle_conv(VideoTensor(silu(x.data[:c_flow])), weights, name)


def oracle_encode(video, config, weights):
    """Whole-clip encode: (mean, logvar, level-2 stack, level-3 stack) arrays."""
    pyramid = build_pyramid(video)
    x = _oracle_conv(VideoTensor(pyramid.level1.stack()), weights, "enc.stem")
    x = _oracle_stage(x, weights, "enc.stage1", config)
    x = _oracle_conv(x, weights, "enc.down1")
    x = _oracle_inflow(x, weights, "enc.inflow2", pyramid.level2.stack())
    x = _oracle_stage(x, weights, "enc.stage2", config)
    x = _oracle_conv(x, weights, "enc.down2")
    x = _oracle_inflow(x, weights, "enc.inflow3", pyramid.level3.stack())
    x = _oracle_stage(x, weights, "enc.stage3", config)
    x = _oracle_norm_act(x, weights, "enc.head.norm")
    x = _oracle_conv(x, weights, "enc.head.conv").data
    chn = config.latent_channels
    return x[:chn], x[chn:], pyramid.level2.stack(), pyramid.level3.stack()


def oracle_decode(z, config, weights, original_t):
    """Whole-clip decode: (video, w2_hat stack, w3_hat stack) arrays."""
    cf = config.c_flow
    x = _oracle_conv(z, weights, "dec.stem")
    x = _oracle_stage(x, weights, "dec.stage3", config)
    w3 = SubbandSet2D.from_stack(_oracle_outflow(x, weights, "dec.outflow3", cf))
    x = _oracle_conv(nearest_upsample(x, (1, 2, 2)), weights, "dec.up2")
    x = _oracle_stage(x, weights, "dec.stage2", config)
    w2 = SubbandSet3D.from_stack(_oracle_outflow(x, weights, "dec.outflow2", cf))
    w2 = w2.replace("hhh", VideoTensor(w2["hhh"].data + idwt2d(w3).data))
    x = _oracle_conv(nearest_upsample(x, (2, 2, 2)), weights, "dec.up1")
    x = _oracle_stage(x, weights, "dec.stage1", config)
    x = _oracle_norm_act(x, weights, "dec.out.norm")
    w1 = SubbandSet3D.from_stack(_oracle_conv(x, weights, "dec.out.conv"))
    contrib = idwt3d(w2, original_t=w1.time)
    w1 = w1.replace("hhh", VideoTensor(w1["hhh"].data + contrib.data))
    return idwt3d(w1, original_t=original_t).data, w2.stack(), w3.stack()
