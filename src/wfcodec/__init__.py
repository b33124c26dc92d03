"""wfcodec: streaming video-compression research core.

Three pillars:

* multi-level 3D/2D Haar wavelet pyramids with perfect reconstruction,
* a causal-convolution toolbox whose tail-frame cache makes chunked
  (block-wise) inference numerically identical to whole-clip inference,
* a forward-only energy-flow video autoencoder built from both, plus the
  pure-function training losses that go with it.

See README.md for the CLI (``wfcodec --help``) and the acceptance suite.
"""

from .analysis import SubbandStats, analyze_level, subband_energy, subband_entropy
from .causal import (
    CacheState,
    ChunkPlan,
    ConvSpec,
    cache_len,
    cache_len_by_simulation,
    causal_conv3d,
    frame_layernorm,
    groupnorm_whole_clip,
    nearest_upsample,
    silu,
    stream_conv3d,
)
from .errors import (
    FormatError,
    ParameterError,
    ShapeError,
    StateError,
    WeightError,
    WfcodecError,
)
from .losses import (
    LossComponents,
    LossWeights,
    adaptive_adv_weight,
    kl_divergence,
    l1_recon,
    total_loss,
    wl_loss,
)
from .model import (
    DecodeResult,
    EncodeResult,
    ForwardResult,
    GaussianLatent,
    ModelConfig,
    WeightStore,
    decode,
    encode,
    forward,
    init_weights,
    parameter_manifest,
    preset_config,
    sample_latent,
)
from .tensor import Rng, VideoTensor, load_tensor, new_tensor, random_normal, save_tensor
from .wavelet import (
    SubbandSet2D,
    SubbandSet3D,
    WaveletPyramid,
    build_pyramid,
    dwt2d,
    dwt3d,
    idwt2d,
    idwt3d,
    load_pyramid,
    reconstruct_pyramid,
    save_pyramid,
)

__version__ = "0.1.0"
