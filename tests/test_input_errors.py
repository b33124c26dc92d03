"""Every public entry point rejects malformed input with its typed error and
a message that names the defect. One row per check that no other test
reaches."""

import re

import numpy as np
import pytest

from wfcodec import (
    CacheState,
    ChunkPlan,
    ConvSpec,
    FormatError,
    ParameterError,
    Rng,
    ShapeError,
    StateError,
    SubbandSet3D,
    VideoTensor,
    WeightError,
    WeightStore,
    causal_conv3d,
    frame_layernorm,
    random_normal,
    stream_conv3d,
)
from wfcodec.wavelet import KEYS_3D, Dwt3dStream, Idwt3dStream

from helpers import wfwt_bytes


def _video(c=3, t=2, h=4, w=4):
    return VideoTensor(np.zeros((c, t, h, w), dtype=np.float32))


def _bands(shape=(2, 1, 2, 2)):
    return {key: np.zeros(shape, dtype=np.float32) for key in KEYS_3D}


def _conv(x, spec, bias=None):
    return causal_conv3d(x, spec, np.zeros(spec.weight_shape(), dtype=np.float32), bias)


def _stream_twice(spec, first, second):
    weight = np.zeros(spec.weight_shape(), dtype=np.float32)
    state = CacheState()
    for shape in (first, second):
        _, state = stream_conv3d(state, VideoTensor(np.zeros(shape, dtype=np.float32)),
                                 spec, weight)


def _dwt_twice(first, second):
    stream = Dwt3dStream(pad_first=False)
    for shape in (first, second):
        stream.feed(np.zeros(shape, dtype=np.float32))


def _idwt_twice(first, second):
    stream = Idwt3dStream(drop_first=False)
    for shape in (first, second):
        stream.feed(_bands(shape))


def _trailing_weights(tmp_path):
    path = tmp_path / "w.wfwt"
    path.write_bytes(wfwt_bytes([("a", [1.0, 2.0])]) + b"\0\0\0")
    return WeightStore.load(path)


# (id, error type, message, call on a tmp_path)
CASES = [
    ("conv-negative-pad", ParameterError, "spatial_pad must be two counts >= 0",
     lambda tmp: ConvSpec(3, 4, (1, 3, 3), spatial_pad=(-1, 0))),
    ("conv-bias-length", ShapeError, "bias shape (3,) does not match (4,)",
     lambda tmp: _conv(_video(), ConvSpec(3, 4, (1, 1, 1)), np.zeros(3))),
    ("conv-frame-below-kernel", ShapeError,
     "spatial extent (2, 2) smaller than kernel (3, 3)",
     lambda tmp: _conv(_video(h=2, w=2), ConvSpec(3, 4, (1, 3, 3)))),
    ("stream-channels", ShapeError, "chunk has 2 channels, spec expects 3",
     lambda tmp: stream_conv3d(
         CacheState(), _video(c=2), ConvSpec(3, 4, (1, 1, 1)),
         np.zeros((4, 3, 1, 1, 1), dtype=np.float32))),
    # A state that has seen frames but caches none, and expects its next
    # window at frame 0: the chunk starts after that window.
    ("stream-cache-lost-frames", StateError,
     "cache lost frames still needed by the next window",
     lambda tmp: stream_conv3d(
         CacheState(frames_seen=5), _video(), ConvSpec(3, 4, (1, 1, 1)),
         np.zeros((4, 3, 1, 1, 1), dtype=np.float32))),
    ("stream-frame-size", ShapeError,
     "chunk frames (c, h, w) = (2, 6, 6) differ from the stream's (2, 8, 8)",
     lambda tmp: _stream_twice(ConvSpec(2, 2, (3, 1, 1)), (2, 3, 8, 8), (2, 3, 6, 6))),
    # A conv whose kernel does not outlast its stride caches no frame.
    ("stream-frame-size-uncached", ShapeError,
     "chunk frames (c, h, w) = (2, 6, 6) differ from the stream's (2, 8, 8)",
     lambda tmp: _stream_twice(ConvSpec(2, 2, (1, 1, 1)), (2, 3, 8, 8), (2, 3, 6, 6))),
    ("layernorm-gain-shape", ShapeError, "gain/bias must have shape (3,), got (2,)/(3,)",
     lambda tmp: frame_layernorm(_video(), np.ones(2), np.zeros(3))),
    ("plan-empty-split", ParameterError, "stream length must be >= 1, got 0",
     lambda tmp: ChunkPlan.direct().split(0)),
    ("weights-rank-6", ParameterError, "w: rank must be 1..5, got 6",
     lambda tmp: WeightStore().put("w", np.zeros((1,) * 6))),
    ("weights-missing", WeightError, "missing parameter 'nope'",
     lambda tmp: WeightStore().get("nope")),
    ("wfwt-trailing-bytes", FormatError, "3 trailing bytes", _trailing_weights),
    ("uniform-reversed", ParameterError, "uniform bounds reversed",
     lambda tmp: Rng(0).uniform((2,), low=1.0, high=0.0)),
    ("random-normal-zero-dim", ShapeError, "all dimensions must be >= 1, got (3, 0, 4, 4)",
     lambda tmp: random_normal(Rng(0), (3, 0, 4, 4))),
    ("idwt-stream-frame-size", ShapeError,
     "chunk frames (c, h, w) = (3, 2, 2) differ from the stream's (2, 4, 4)",
     lambda tmp: _idwt_twice((2, 1, 4, 4), (3, 1, 2, 2))),
    ("idwt-stream-unequal-bands", ShapeError, "subband shapes differ",
     lambda tmp: Idwt3dStream(drop_first=False).feed(
         {**_bands(), "ggg": np.zeros((2, 2, 2, 2), dtype=np.float32)})),
    ("subbands-missing-key", ShapeError, "missing=['ggg'] extra=[]",
     lambda tmp: SubbandSet3D({k: v for k, v in _bands().items() if k != "ggg"})),
    ("subbands-replace-unknown", ShapeError, "unknown subband key 'xyz'",
     lambda tmp: SubbandSet3D(_bands()).replace("xyz", _video())),
    ("subbands-stack-7", ShapeError, "stacked array needs channels divisible by 8",
     lambda tmp: SubbandSet3D.from_stack(np.zeros((7, 1, 2, 2), dtype=np.float32))),
    ("dwt-stream-3d", ShapeError, "expected (c, n, h, w) frames",
     lambda tmp: Dwt3dStream(pad_first=False).feed(np.zeros((3, 2, 4), dtype=np.float32))),
    # An odd first chunk carries its last frame into the next chunk's pair.
    ("dwt-stream-frame-size", ShapeError,
     "chunk frames (c, h, w) = (3, 6, 6) differ from the stream's (3, 4, 4)",
     lambda tmp: _dwt_twice((3, 1, 4, 4), (3, 1, 6, 6))),
    ("dwt-stream-channels", ShapeError,
     "chunk frames (c, h, w) = (2, 4, 4) differ from the stream's (3, 4, 4)",
     lambda tmp: _dwt_twice((3, 1, 4, 4), (2, 1, 4, 4))),
]


@pytest.mark.parametrize(
    "error, message, call", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_input_error(tmp_path, error, message, call):
    with pytest.raises(error, match=re.escape(message)):
        call(tmp_path)
