"""One contract for the public streams, as stateful machines: the causal conv
(``stream_conv3d`` over a ``CacheState``, and the conv stream it wraps,
which alone takes a final or an empty chunk), ``Dwt3dStream`` and
``Idwt3dStream``. Each machine cuts valid chunks of any length, none
included, from one clip, feeds some of them as non-contiguous views of the
same values (Fortran order, reversed strides, every other element of a wider
row, read-only) or as a float64 copy, and mixes in chunks of another
(c, h, w) and, for the conv, final chunks and feeds after them. Every
stream emits float32.

After every step, what the valid feeds returned is bit for bit what a
one-chunk run over the same frames emits. A chunk of another (c, h, w) and
any feed after the final one raise a ``WfcodecError``, never a bare numpy
error, and leave the stream as it was: the valid feeds after them still
match."""

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from wfcodec import ConvSpec, Rng, StateError, VideoTensor, WfcodecError, causal, stream_conv3d
from wfcodec.wavelet import KEYS_3D, Dwt3dStream, Idwt3dStream

FRAMES = 8  # time length of the clip the valid chunks are cut from
FRAME = (2, 4, 6)  # its (c, h, w)


def _other(n: int, axis: int):
    """The shape of ``n`` frames with c one larger than the clip's (``axis``
    0), or h or w two larger (2 or 3), so the Haar streams see even sizes."""
    shape = [FRAME[0], n, *FRAME[1:]]
    shape[axis] += 1 if axis == 0 else 2
    return tuple(shape)


def _spaced(a):
    """``a``'s values as every other element of a row twice as wide."""
    wide = np.zeros((*a.shape[:-1], 2 * a.shape[-1]), dtype=a.dtype)
    wide[..., ::2] = a
    return wide[..., ::2]


# Other layouts of a chunk's values, by name: non-contiguous views, and a
# float64 copy, which every stream casts to float32.
_LAYOUTS = {
    "fortran": np.asfortranarray,
    "reversed": lambda a: np.ascontiguousarray(a[..., ::-1])[..., ::-1],
    "spaced": _spaced,
    "read-only": lambda a: np.lib.stride_tricks.as_strided(_spaced(a), writeable=False),
    "float64": lambda a: a.astype(np.float64),
}


class _StreamMachine(RuleBasedStateMachine):
    """Feeds one stream; a subclass builds it and its clip (``start``) and
    says how to feed a chunk and what a one-chunk run emits."""

    can_end = False  # whether the stream takes a final chunk

    @initialize(data=st.data())
    def begin(self, data):
        self.fed, self.ended, self.emitted = 0, False, []
        self.start(data)

    @rule(data=st.data())
    def feed_valid(self, data):
        n = data.draw(st.integers(0, FRAMES - self.fed), label="frames")
        final = self.can_end and data.draw(st.booleans(), label="final")
        chunk = self.cut(self.fed, self.fed + n)
        if self.ended:
            with pytest.raises(StateError):
                self.feed(chunk, final)
            return
        self.emitted.append(self.feed(chunk, final))
        self.fed, self.ended = self.fed + n, final

    @rule(data=st.data())
    def feed_valid_as_other_layout(self, data):
        """A valid chunk as a non-contiguous view or a float64 copy of the
        same values."""
        n = data.draw(st.integers(0, FRAMES - self.fed), label="frames")
        layout = data.draw(st.sampled_from(sorted(_LAYOUTS)), label="layout")
        final = self.can_end and data.draw(st.booleans(), label="final")
        chunk = self.relayout(self.cut(self.fed, self.fed + n), _LAYOUTS[layout])
        if self.ended:
            with pytest.raises(StateError):
                self.feed_view(chunk, final)
            return
        self.emitted.append(self.feed_view(chunk, final))
        self.fed, self.ended = self.fed + n, final

    @precondition(lambda self: self.fed > 0)
    @rule(data=st.data())
    def feed_another_frame(self, data):
        axis = data.draw(st.sampled_from((0, 2, 3)), label="axis")
        n = data.draw(st.integers(1, 3), label="frames")
        final = self.can_end and data.draw(st.booleans(), label="final")
        with pytest.raises(WfcodecError):
            self.feed(self.other(n, axis), final)

    def cut(self, start, stop):
        return self.clip[:, start:stop]

    def other(self, n, axis):
        return np.ones(_other(n, axis), dtype=np.float32)

    def relayout(self, chunk, layout):
        return layout(chunk)

    def feed_view(self, chunk, final):
        return self.feed(chunk, final)

    @invariant()
    def emitted_frames_match_the_one_chunk_run(self):
        want = self.one_chunk(self.fed)
        got = np.concatenate([want[:, :0], *self.emitted], axis=1)
        assert got.dtype == want.dtype == np.float32
        assert got.shape == want.shape and np.array_equal(got, want)


class ConvMachine(_StreamMachine):
    can_end = True

    def start(self, data):
        kt = data.draw(st.integers(1, 3), label="k_t")
        st_ = data.draw(st.integers(1, 2), label="s_t")
        k = data.draw(st.sampled_from((1, 3)), label="k_hw")
        mode = data.draw(st.sampled_from(("replicate", "zeros")), label="pad_mode")
        c = FRAME[0]
        self.spec = ConvSpec(c, 3, (kt, k, k), (st_, 1, 1), ((k - 1) // 2,) * 2, mode)
        rng = Rng(data.draw(st.integers(0, 2**16), label="seed"))
        self.weight, self.bias = rng.normal(self.spec.weight_shape()), rng.normal((3,))
        self.clip = rng.normal((c, FRAMES, *FRAME[1:]))
        self.conv = causal._ConvStream(self.spec, self.weight, self.bias)

    def feed(self, chunk, final):
        """A final or empty chunk goes to the conv stream, any other through
        ``stream_conv3d``, whose new state the stream takes on success."""
        if final or not chunk.shape[1]:
            return self.conv.feed(chunk, final)
        out, state = stream_conv3d(
            self.conv.state, VideoTensor(chunk), self.spec, self.weight, self.bias
        )
        self.conv.state = state
        if out is None:  # no window completed, so no frames
            return self.one_chunk(0)
        return out.data

    def feed_view(self, chunk, final):
        """A view goes to the conv stream, which the executor feeds with
        views; ``stream_conv3d`` would copy it into a contiguous tensor."""
        return self.conv.feed(chunk, final)

    def one_chunk(self, m):
        return causal._ConvStream(self.spec, self.weight, self.bias).feed(
            self.clip[:, :m], final=True
        )


class DwtMachine(_StreamMachine):
    def start(self, data):
        self.pad_first = data.draw(st.booleans(), label="pad_first")
        self.clip = Rng(data.draw(st.integers(0, 2**16), label="seed")).normal(
            (FRAME[0], FRAMES, *FRAME[1:])
        )
        self.stream = Dwt3dStream(self.pad_first)

    @staticmethod
    def _stack(bands):
        return np.concatenate([bands[key] for key in KEYS_3D])

    def feed(self, chunk, final):
        return self._stack(self.stream.feed(chunk))

    def one_chunk(self, m):
        return self._stack(Dwt3dStream(self.pad_first).feed(self.clip[:, :m]))


class IdwtMachine(_StreamMachine):
    def start(self, data):
        self.drop_first = data.draw(st.booleans(), label="drop_first")
        rng = Rng(data.draw(st.integers(0, 2**16), label="seed"))
        self.clip = {key: rng.normal((FRAME[0], FRAMES, *FRAME[1:])) for key in KEYS_3D}
        self.stream = Idwt3dStream(self.drop_first)

    def cut(self, start, stop):
        return {key: band[:, start:stop] for key, band in self.clip.items()}

    def other(self, n, axis):
        return {key: np.ones(_other(n, axis), dtype=np.float32) for key in KEYS_3D}

    def relayout(self, chunk, layout):
        return {key: layout(band) for key, band in chunk.items()}

    def feed(self, chunk, final):
        return self.stream.feed(chunk)

    def one_chunk(self, m):
        return Idwt3dStream(self.drop_first).feed(self.cut(0, m))


_SETTINGS = settings(
    max_examples=40, stateful_step_count=8, deadline=None, derandomize=True
)
TestConvStream = ConvMachine.TestCase
TestConvStream.settings = _SETTINGS
TestDwtStream = DwtMachine.TestCase
TestDwtStream.settings = _SETTINGS
TestIdwtStream = IdwtMachine.TestCase
TestIdwtStream.settings = _SETTINGS
