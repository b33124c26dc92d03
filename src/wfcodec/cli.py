"""Command-line surface.

Machine-readable JSON reports go to stdout, a one-line human summary to
stderr, and the exit code is 0 exactly when the report verdict is "pass"
(1 for a failed verdict, 2 for usage/input errors). Every report embeds the
tolerances it used, so verdicts can be recomputed from the metrics alone.

``WFCODEC_THREADS`` caps BLAS worker parallelism for the duration of a
command. The cap needs ``threadpoolctl`` and an integer value; when either is
missing, the command runs uncapped and writes one JSON warning line
(``{"warning": "thread_cap_not_applied", ...}``) to stderr before its report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from .analysis import MAX_BINS, _check_bins, analyze_pyramid
from .causal import ChunkPlan, _check_cache_args, cache_len, cache_len_by_simulation
from .errors import FormatError, ParameterError, WfcodecError
from .losses import LossComponents, LossWeights, kl_divergence, l1_recon, total_loss, wl_loss
from .model import (
    GaussianLatent,
    ModelConfig,
    PRESET_BASE_CHANNELS,
    WeightStore,
    decode,
    encode,
    init_weights,
    preset_config,
)
from .tensor import Rng, load_tensor, save_tensor
from .wavelet import build_pyramid, dwt3d, idwt3d, reconstruct_pyramid

DEFAULT_ROUNDTRIP_TOL = 1e-5
DEFAULT_STREAM_TOL = 1e-6


@dataclass
class Report:
    command: str
    inputs: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    verdict: str = "pass"

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "inputs": self.inputs,
                "metrics": self.metrics,
                "tolerances": self.tolerances,
                "verdict": self.verdict,
            },
            indent=2,
        )


def _digest(path) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            hasher.update(block)
    return hasher.hexdigest()[:16]


def _max_abs(a: np.ndarray, b: np.ndarray) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))


def _tolerance(args) -> float:
    if not args.tolerance >= 0:  # also rejects nan
        raise ParameterError(f"--tolerance must be >= 0, got {args.tolerance}")
    return args.tolerance


def _config_from_args(args) -> ModelConfig:
    overrides = {}
    if args.c_flow is not None:
        overrides["c_flow"] = args.c_flow
    if args.blocks is not None:
        overrides["blocks_per_stage"] = args.blocks
    if getattr(args, "norm", None) is not None:
        overrides["norm"] = args.norm
    if getattr(args, "groupnorm_groups", None) is not None:
        overrides["groupnorm_groups"] = args.groupnorm_groups
    if args.base_channels is not None:
        return ModelConfig(
            base_channels=args.base_channels,
            latent_channels=args.latent_channels,
            **overrides,
        )
    return preset_config(args.preset, latent_channels=args.latent_channels, **overrides)


def _config_dict(config: ModelConfig) -> dict:
    return {
        "base_channels": config.base_channels,
        "c_flow": config.c_flow,
        "latent_channels": config.latent_channels,
        "input_channels": config.input_channels,
        "blocks_per_stage": config.blocks_per_stage,
        "norm": config.norm,
        "groupnorm_groups": config.groupnorm_groups,
    }


def _add_config_flags(parser: argparse.ArgumentParser, with_norm: bool = False):
    parser.add_argument(
        "--preset",
        default="wfvae-s",
        choices=sorted(PRESET_BASE_CHANNELS),
        help="named width preset (default: wfvae-s)",
    )
    parser.add_argument(
        "--latent-channels", type=int, default=4, help="latent channels (default: 4)"
    )
    parser.add_argument(
        "--base-channels",
        type=int,
        default=None,
        help="override the preset's base width (useful for small experiments)",
    )
    parser.add_argument("--c-flow", type=int, default=None, help="energy-flow width")
    parser.add_argument(
        "--blocks", type=int, default=None, help="residual blocks per stage"
    )
    if with_norm:
        parser.add_argument(
            "--norm",
            default=None,
            choices=["frame_layernorm", "groupnorm"],
            help="normalization kind; groupnorm is the streaming negative control",
        )
        parser.add_argument(
            "--groupnorm-groups", type=int, default=None, help="groups for groupnorm"
        )


def cmd_roundtrip(args) -> Report:
    tol = _tolerance(args)
    video = load_tensor(args.input)
    if args.levels == 3:
        error = _max_abs(
            reconstruct_pyramid(build_pyramid(video), video.time).data, video.data
        )
    else:
        bands = dwt3d(video)
        if args.levels == 1:
            error = _max_abs(idwt3d(bands, video.time).data, video.data)
        else:
            inner = dwt3d(bands["hhh"])
            restored = bands.replace("hhh", idwt3d(inner, bands.time))
            error = _max_abs(idwt3d(restored, video.time).data, video.data)
    return Report(
        command="roundtrip",
        inputs={"input": _digest(args.input), "shape": list(video.shape)},
        metrics={"levels": args.levels, "max_abs_error": error},
        tolerances={"max_abs_error": tol},
        verdict="pass" if error <= tol else "fail",
    )


def cmd_analyze(args) -> Report:
    _check_bins(args.bins)
    video = load_tensor(args.input)
    records = analyze_pyramid(build_pyramid(video), bins=args.bins)
    degenerate = any(r["degenerate"] for r in records)
    return Report(
        command="analyze",
        inputs={"input": _digest(args.input), "shape": list(video.shape)},
        metrics={"bins": args.bins, "degenerate": degenerate, "subbands": records},
        tolerances={},
        verdict="pass",
    )


def cmd_cache_table(args) -> Report:
    k_t, s_t, t_chunk, m_max = args.kernel_t, args.stride_t, args.chunk_size, args.m_max
    _check_cache_args(k_t, s_t, t_chunk, m_max)
    # Row m is one step plus a walk of about (k_t + m*t_chunk) / s_t windows.
    # The cap bounds the table to about 1 s and 150 MiB of rows.
    steps = m_max + 1 + ((m_max + 1) * k_t + t_chunk * m_max * (m_max + 1) // 2) // s_t
    if steps > 10**5:
        raise ParameterError(
            f"the table would take about {steps} steps, above the cap of 10**5; "
            "lower --m-max"
        )
    rows = []
    all_agree = True
    for m in range(m_max + 1):
        formula = cache_len(k_t, s_t, t_chunk, m)
        simulated = cache_len_by_simulation(k_t, s_t, t_chunk, m)
        agree = formula == simulated
        all_agree &= agree
        rows.append(
            {"m": m, "formula": formula, "simulated": simulated, "agree": agree}
        )
    return Report(
        command="cache-table",
        inputs={"kernel_t": k_t, "stride_t": s_t, "chunk_size": t_chunk},
        metrics={"rows": rows},
        tolerances={"match": "exact integer equality"},
        verdict="pass" if all_agree else "fail",
    )


def _load_or_init_weights(args, config: ModelConfig) -> tuple[WeightStore, dict]:
    if args.weights:
        weights = WeightStore.load(args.weights)
        return weights, {"weights": _digest(args.weights)}
    weights = init_weights(config, Rng(args.init_seed))
    return weights, {"weights_seed": args.init_seed}


def cmd_verify_stream(args) -> Report:
    tol = _tolerance(args)
    video = load_tensor(args.input)
    config = _config_from_args(args)
    weights, weight_info = _load_or_init_weights(args, config)
    plans = [ChunkPlan.parse(text) for text in (args.plan or ["canonical:4"])]
    direct_enc = encode(video, config, weights)
    direct_dec = decode(
        direct_enc.latent.mean, config, weights, original_t=video.time
    )
    plan_reports = []
    worst = 0.0
    for plan in plans:
        if not plan.is_streaming:
            raise ParameterError("verify-stream plans must be streaming plans")
        enc_s = encode(video, config, weights, plan)
        enc_dev = max(
            _max_abs(enc_s.latent.mean.data, direct_enc.latent.mean.data),
            _max_abs(enc_s.latent.logvar.data, direct_enc.latent.logvar.data),
        )
        # Decode with the encoder's chunk boundaries. A chunk that emitted no
        # latent frame is a no-op in every stream layer, so dropping it is exact.
        latent_plan = ChunkPlan.explicit([n for n in enc_s.latent_chunks if n])
        dec_s = decode(
            direct_enc.latent.mean, config, weights, video.time, latent_plan
        )
        dec_dev = _max_abs(dec_s.video.data, direct_dec.video.data)
        worst = max(worst, enc_dev, dec_dev)
        plan_reports.append(
            {
                "plan": plan.describe(),
                "latent_chunks": list(enc_s.latent_chunks),
                "encode_max_abs_dev": enc_dev,
                "decode_max_abs_dev": dec_dev,
            }
        )
    return Report(
        command="verify-stream",
        inputs={
            "input": _digest(args.input),
            "shape": list(video.shape),
            "config": _config_dict(config),
            **weight_info,
        },
        metrics={"plans": plan_reports, "worst_max_abs_dev": worst},
        tolerances={"max_abs_dev": tol},
        verdict="pass" if worst <= tol else "fail",
    )


def _latent_paths(prefix: str) -> tuple[str, str, str]:
    return f"{prefix}.mean.wfvt", f"{prefix}.logvar.wfvt", f"{prefix}.json"


def cmd_encode(args) -> Report:
    video = load_tensor(args.input)
    config = _config_from_args(args)
    weights, weight_info = _load_or_init_weights(args, config)
    plan = ChunkPlan.parse(args.plan)
    result = encode(video, config, weights, mode=plan)
    mean_path, logvar_path, manifest_path = _latent_paths(args.output)
    save_tensor(result.latent.mean, mean_path)
    save_tensor(result.latent.logvar, logvar_path)
    manifest = {
        "format": "wfcodec-latent",
        "version": 1,
        "original_shape": list(video.shape),
        "latent_shape": list(result.latent.shape),
        "config": _config_dict(config),
        "plan": plan.describe(),
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return Report(
        command="encode",
        inputs={"input": _digest(args.input), **weight_info},
        metrics={
            "mode": plan.describe(),
            "latent_shape": list(result.latent.shape),
            "mean_file": mean_path,
            "logvar_file": logvar_path,
            "manifest": manifest_path,
        },
        tolerances={},
        verdict="pass",
    )


def cmd_decode(args) -> Report:
    mean_path, logvar_path, manifest_path = _latent_paths(args.latent)
    try:
        with open(manifest_path, "rb") as fh:
            manifest = json.loads(fh.read())  # ValueError: bad JSON or bad UTF-8
        # The manifest records every config field; a missing one must not
        # silently fall back to a default.
        fields = sorted(manifest["config"])
        if fields != sorted(_config_dict(ModelConfig())):
            raise FormatError(f"{manifest_path}: unexpected config fields {fields}")
        config = ModelConfig(**manifest["config"])
        original_t = manifest["original_shape"][1]
    except (
        OSError, KeyError, IndexError, TypeError, ValueError, ParameterError
    ) as exc:
        raise FormatError(f"{manifest_path}: bad latent manifest ({exc!r})") from exc
    if type(original_t) is not int:
        raise FormatError(
            f"{manifest_path}: frame count {original_t!r} is not an integer"
        )
    if args.frames is not None:
        original_t = args.frames
    mean = load_tensor(mean_path)
    weights, weight_info = _load_or_init_weights(args, config)
    if args.sample_seed is not None:
        logvar = load_tensor(logvar_path)
        from .model import sample_latent

        z = sample_latent(GaussianLatent(mean, logvar), Rng(args.sample_seed))
    else:
        z = mean
    plan = ChunkPlan.parse(args.plan)
    result = decode(z, config, weights, original_t=original_t, mode=plan)
    save_tensor(result.video, args.output)
    return Report(
        command="decode",
        inputs={"latent": _digest(mean_path), **weight_info},
        metrics={
            "mode": plan.describe(),
            "video_shape": list(result.video.shape),
            "output": args.output,
            "sampled": args.sample_seed is not None,
        },
        tolerances={},
        verdict="pass",
    )


def cmd_init_weights(args) -> Report:
    config = _config_from_args(args)
    weights = init_weights(config, Rng(args.seed))
    weights.save(args.output)
    return Report(
        command="init-weights",
        inputs={"seed": args.seed, "config": _config_dict(config)},
        metrics={
            "output": args.output,
            "tensors": len(weights),
            "digest": weights.digest(),
        },
        tolerances={},
        verdict="pass",
    )


def cmd_loss_report(args) -> Report:
    original = load_tensor(args.input)
    recon = load_tensor(args.recon)
    weights = LossWeights(adv=args.lambda_adv, kl=args.lambda_kl, wl=args.lambda_wl)
    p_original = build_pyramid(original)
    p_recon = build_pyramid(recon)
    components = {
        "l1_recon": l1_recon(original, recon),
        "wl": wl_loss(
            p_recon.level2, p_original.level2, p_recon.level3, p_original.level3
        ),
        "adv": args.adv,
        "perceptual": args.perceptual,
    }
    inputs = {"input": _digest(args.input), "recon": _digest(args.recon)}
    if args.latent_mean and args.latent_logvar:
        latent = GaussianLatent(
            load_tensor(args.latent_mean), load_tensor(args.latent_logvar)
        )
        components["kl"] = kl_divergence(latent)
        inputs["latent_mean"] = _digest(args.latent_mean)
        inputs["latent_logvar"] = _digest(args.latent_logvar)
    else:
        components["kl"] = 0.0
    components["total"] = total_loss(
        LossComponents(
            recon=components["l1_recon"],
            adv=components["adv"],
            kl=components["kl"],
            wl=components["wl"],
            perceptual=components["perceptual"],
        ),
        weights,
    )
    return Report(
        command="loss-report",
        inputs=inputs,
        metrics={
            "components": components,
            "weights": {
                "adv": weights.adv,
                "kl": weights.kl,
                "wl": weights.wl,
            },
        },
        tolerances={},
        verdict="pass",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wfcodec",
        description="Wavelet pyramids, causal streaming inference, and the "
        "energy-flow video autoencoder.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("roundtrip", help="pyramid analysis/synthesis identity check")
    p.add_argument("input", help="VTensor (.wfvt) video file")
    p.add_argument("--levels", type=int, default=3, choices=[1, 2, 3])
    p.add_argument("--tolerance", type=float, default=DEFAULT_ROUNDTRIP_TOL)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("analyze", help="per-subband energy/entropy report")
    p.add_argument("input")
    p.add_argument(
        "--bins",
        type=int,
        default=256,
        help=f"histogram bins, from 2 to {MAX_BINS} (default: 256)",
    )
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser(
        "verify-stream", help="streamed-vs-direct deviation for encode and decode"
    )
    p.add_argument("--input", required=True)
    p.add_argument("--weights", default=None, help="weight file (.wfwt)")
    p.add_argument(
        "--init-seed", type=int, default=42, help="seed weights when no file given"
    )
    p.add_argument(
        "--plan",
        action="append",
        help="chunk plan (canonical:N or explicit:a,b,c); repeatable",
    )
    p.add_argument("--tolerance", type=float, default=DEFAULT_STREAM_TOL)
    _add_config_flags(p, with_norm=True)
    p.set_defaults(func=cmd_verify_stream)

    p = sub.add_parser("cache-table", help="cached-frame counts, formula vs simulation")
    p.add_argument("--kernel-t", type=int, required=True)
    p.add_argument("--stride-t", type=int, required=True)
    p.add_argument("--chunk-size", type=int, required=True)
    p.add_argument(
        "--m-max",
        type=int,
        default=10,
        help="last chunk index m (default: 10); the table's window walk, about "
        "the sum over m of 1 + (k_t + m*t_chunk)/s_t, is capped at 10**5 steps",
    )
    p.set_defaults(func=cmd_cache_table)

    p = sub.add_parser("encode", help="video -> latent mean/logvar files")
    p.add_argument("--input", required=True)
    p.add_argument("--weights", default=None)
    p.add_argument("--init-seed", type=int, default=42)
    p.add_argument("--plan", default="direct")
    p.add_argument("--output", required=True, help="output path prefix")
    _add_config_flags(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="latent -> video file")
    p.add_argument("--latent", required=True, help="prefix used at encode time")
    p.add_argument("--weights", default=None)
    p.add_argument("--init-seed", type=int, default=42)
    p.add_argument("--plan", default="direct")
    p.add_argument("--frames", type=int, default=None, help="override original frames")
    p.add_argument(
        "--sample-seed",
        type=int,
        default=None,
        help="sample z from the posterior instead of decoding the mean",
    )
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("init-weights", help="deterministic seeded weight file")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--output", required=True)
    _add_config_flags(p)
    p.set_defaults(func=cmd_init_weights)

    p = sub.add_parser("loss-report", help="loss components for a video pair")
    p.add_argument("--input", required=True)
    p.add_argument("--recon", required=True)
    p.add_argument("--latent-mean", default=None)
    p.add_argument("--latent-logvar", default=None)
    p.add_argument("--adv", type=float, default=0.0)
    p.add_argument("--perceptual", type=float, default=0.0)
    p.add_argument("--lambda-adv", type=float, default=1.0)
    p.add_argument("--lambda-kl", type=float, default=1e-6)
    p.add_argument("--lambda-wl", type=float, default=0.1)
    p.set_defaults(func=cmd_loss_report)
    return parser


def _thread_limit_context():
    """Cap BLAS threads at ``WFCODEC_THREADS``; say on stderr when the cap cannot apply."""
    limit = os.environ.get("WFCODEC_THREADS")
    if not limit:
        return nullcontext()
    try:
        threads = max(1, int(limit))
    except ValueError:
        return _cap_not_applied(limit, "value is not an integer")
    try:
        from threadpoolctl import threadpool_limits
    except ImportError:
        return _cap_not_applied(limit, "threadpoolctl is not installed")
    return threadpool_limits(limits=threads)


def _cap_not_applied(limit: str, reason: str):
    warning = {"warning": "thread_cap_not_applied", "reason": reason, "value": limit}
    print(json.dumps(warning), file=sys.stderr)
    return nullcontext()


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with _thread_limit_context():
            report = args.func(args)
    except (WfcodecError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 2
    print(report.to_json())
    print(f"wfcodec {report.command}: {report.verdict}", file=sys.stderr)
    return 0 if report.verdict == "pass" else 1


if __name__ == "__main__":
    sys.exit(main())
