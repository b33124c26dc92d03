"""CLI contract: JSON reports on stdout, exit code 0 iff verdict pass,
errors surfaced with exit code 2."""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wfcodec
from wfcodec import (
    Rng,
    VideoTensor,
    WeightStore,
    load_tensor,
    new_tensor,
    random_normal,
    save_tensor,
)
from wfcodec.analysis import MAX_BINS
from wfcodec import blas, cli
from wfcodec.blas import blas_threads
from wfcodec.cli import main

from helpers import (
    child_env, make_random, smooth_video, tear_writes, traced_peak, wfwt_bytes,
)

TINY_FLAGS = ["--base-channels", "8", "--c-flow", "8", "--blocks", "1"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out.strip() else None
    return code, report, captured.err


@pytest.fixture
def video_file(tmp_path):
    path = tmp_path / "video.wfvt"
    save_tensor(make_random(5, (3, 17, 16, 16)), path)
    return str(path)


class TestRoundtrip:
    def test_random_video_passes(self, capsys, tmp_path):
        path = tmp_path / "v.wfvt"
        save_tensor(random_normal(Rng(3), (3, 33, 64, 64)), path)
        code, report, _ = run_cli(capsys, ["roundtrip", str(path)])
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["metrics"]["max_abs_error"] <= 1e-5

    def test_constant_video_tiny_error(self, capsys, tmp_path):
        # Error scales with ulp(value); a unit-scale constant stays at 1e-7.
        path = tmp_path / "c.wfvt"
        save_tensor(new_tensor(1, 5, 16, 16, 0.5), path)
        code, report, _ = run_cli(capsys, ["roundtrip", str(path)])
        assert code == 0
        assert report["metrics"]["max_abs_error"] <= 1e-7

    def test_indivisible_width_errors(self, capsys, tmp_path):
        path = tmp_path / "bad.wfvt"
        save_tensor(make_random(1, (1, 5, 16, 24 + 4)), path)  # width 28, not /8
        code, report, err = run_cli(capsys, ["roundtrip", str(path)])
        assert code == 2
        assert report is None
        assert "ShapeError" in err

    def test_levels_one_and_two(self, capsys, video_file):
        for levels in ("1", "2"):
            code, report, _ = run_cli(
                capsys, ["roundtrip", video_file, "--levels", levels]
            )
            assert code == 0
            assert report["metrics"]["max_abs_error"] <= 1e-5


class TestMaxAbs:
    """The CLI's deviation measure is blocked, and equals the one-shot formula."""

    @staticmethod
    def _one_shot(a, b) -> float:
        return float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))

    def test_equals_one_shot_across_blocks(self):
        n = 3 * cli._DIFF_BLOCK + 5
        a = Rng(21).normal((n,))
        b = a + Rng(22).normal((n,), std=1e-3)
        for worst_at in (0, cli._DIFF_BLOCK - 1, 2 * cli._DIFF_BLOCK + 1, n - 1):
            c = b.copy()
            c[worst_at] += 7.0
            assert cli._max_abs(a, c) == self._one_shot(a, c)
        shaped = a.reshape(1, n)
        assert cli._max_abs(shaped, b.reshape(1, n)) == self._one_shot(a, b)
        assert cli._max_abs(a[:0], b[:0]) == 0.0

    def test_nan_in_any_block_is_nan(self):
        n = 3 * cli._DIFF_BLOCK
        a = np.zeros(n, np.float32)
        for at in (0, cli._DIFF_BLOCK + 3, n - 1):
            b = np.ones(n, np.float32)
            b[at] = np.nan
            assert np.isnan(cli._max_abs(a, b))

    def test_transient_memory_is_one_block(self):
        n = 8 * cli._DIFF_BLOCK
        a, b = np.zeros(n, np.float32), np.ones(n, np.float32)
        worst, peak = traced_peak(lambda: cli._max_abs(a, b))
        assert worst == 1.0
        # One float64 block, plus the ufunc's casting buffers.
        assert peak <= 8 * cli._DIFF_BLOCK + (256 << 10)


class TestAnalyze:
    def test_smooth_fixture_concentration(self, capsys, tmp_path):
        path = tmp_path / "smooth.wfvt"
        save_tensor(smooth_video(3, 17, 32, 32), path)
        code, report, _ = run_cli(capsys, ["analyze", str(path)])
        assert code == 0
        level1 = {
            r["key"]: r for r in report["metrics"]["subbands"] if r["level"] == 1
        }
        assert level1["hhh"]["energy_fraction"] > 0.9

    def test_zero_video_degenerate(self, capsys, tmp_path):
        path = tmp_path / "zero.wfvt"
        save_tensor(new_tensor(1, 5, 16, 16, 0.0), path)
        code, report, _ = run_cli(capsys, ["analyze", str(path)])
        assert code == 0
        assert report["metrics"]["degenerate"] is True

    def test_single_bin_errors(self, capsys, video_file):
        code, report, err = run_cli(capsys, ["analyze", video_file, "--bins", "1"])
        assert code == 2
        assert "ParameterError" in err

    @staticmethod
    def _assert_passes(capsys, path, clip):
        save_tensor(VideoTensor(clip.astype(np.float32)), path)
        code, report, err = run_cli(capsys, ["analyze", str(path)])
        assert code == 0
        assert report["verdict"] == "pass"
        assert err.strip() == "wfcodec analyze: pass"

    def test_range_of_few_ulps_passes(self, capsys, tmp_path):
        """Bands spanning a few float32 ULPs near 1000 once had too many bins
        for their range."""
        noise = np.random.default_rng(0).standard_normal((1, 9, 16, 16))
        self._assert_passes(capsys, tmp_path / "narrow.wfvt", 1000 + 1e-4 * noise)

    def test_range_beyond_float32_max_passes(self, capsys, tmp_path):
        """A level-1 band of +-1.98e38 spans more than the float32 maximum."""
        t, y, x = np.indices((8, 16, 16))
        sign = np.random.default_rng(0).choice([-1.0, 1.0], size=(4, 8, 8))
        blocks = sign.repeat(2, 0).repeat(2, 1).repeat(2, 2)
        clip = 7e37 * (-1.0) ** (t + y + x) * blocks
        self._assert_passes(capsys, tmp_path / "wide.wfvt", clip[None])


class TestCacheTable:
    def test_constant_two(self, capsys):
        code, report, _ = run_cli(
            capsys,
            ["cache-table", "--kernel-t", "3", "--stride-t", "1", "--chunk-size", "4",
             "--m-max", "10"],
        )
        assert code == 0
        rows = report["metrics"]["rows"]
        assert [r["formula"] for r in rows] == [2] * 11
        assert all(r["agree"] for r in rows)

    def test_modular_case(self, capsys):
        code, report, _ = run_cli(
            capsys,
            ["cache-table", "--kernel-t", "4", "--stride-t", "3", "--chunk-size", "4",
             "--m-max", "6"],
        )
        assert code == 0
        assert [r["formula"] for r in report["metrics"]["rows"]] == [1, 2, 3, 1, 2, 3, 1]

    def test_oracle_agreement_odd_geometry(self, capsys):
        code, report, _ = run_cli(
            capsys,
            ["cache-table", "--kernel-t", "5", "--stride-t", "4", "--chunk-size", "7",
             "--m-max", "12"],
        )
        assert code == 0
        assert all(r["agree"] for r in report["metrics"]["rows"])


class TestVerifyStream:
    def test_default_plans_pass(self, capsys, video_file):
        code, report, _ = run_cli(
            capsys,
            ["verify-stream", "--input", video_file, "--init-seed", "42",
             "--plan", "canonical:4", "--plan", "canonical:8",
             "--plan", "explicit:1,3,5,7,1", *TINY_FLAGS],
        )
        assert code == 0
        assert report["verdict"] == "pass"
        assert report["metrics"]["worst_max_abs_dev"] <= 1e-6
        assert len(report["metrics"]["plans"]) == 3

    def test_groupnorm_negative_control_fails(self, capsys, video_file):
        code, report, _ = run_cli(
            capsys,
            ["verify-stream", "--input", video_file, "--init-seed", "42",
             "--plan", "explicit:9,8", "--norm", "groupnorm",
             "--groupnorm-groups", "8", *TINY_FLAGS],
        )
        assert code == 1
        assert report["verdict"] == "fail"
        assert report["metrics"]["worst_max_abs_dev"] > 1e-3

    def test_reference_plan_list_on_33_frames(self, capsys, tmp_path):
        """The canonical(4) / canonical(8) / explicit(1,3,5,7,9,8) plan trio
        on a 33-frame clip all pass the 1e-6 gate."""
        path = tmp_path / "v33.wfvt"
        save_tensor(make_random(11, (3, 33, 16, 16)), path)
        code, report, _ = run_cli(
            capsys,
            ["verify-stream", "--input", str(path), "--init-seed", "42",
             "--plan", "canonical:4", "--plan", "canonical:8",
             "--plan", "explicit:1,3,5,7,9,8", *TINY_FLAGS],
        )
        assert code == 0
        assert report["verdict"] == "pass"
        for plan_report in report["metrics"]["plans"]:
            assert plan_report["encode_max_abs_dev"] <= 1e-6
            assert plan_report["decode_max_abs_dev"] <= 1e-6
            assert sum(plan_report["latent_chunks"]) == 9

    def test_wrong_plan_sum_errors(self, capsys, video_file):
        code, report, err = run_cli(
            capsys,
            ["verify-stream", "--input", video_file,
             "--plan", "explicit:1,2", *TINY_FLAGS],
        )
        assert code == 2
        assert "ParameterError" in err

    @pytest.mark.parametrize("plans", [["direct"], ["canonical:4", "direct"]])
    def test_direct_plan_rejected_before_model_work(
        self, capsys, video_file, monkeypatch, plans
    ):
        def refuse(*args, **kwargs):
            raise AssertionError("model work before the plans were checked")

        monkeypatch.setattr(cli, "init_weights", refuse)
        monkeypatch.setattr(cli, "encode", refuse)
        argv = ["verify-stream", "--input", video_file, *TINY_FLAGS]
        for plan in plans:
            argv += ["--plan", plan]
        code, report, err = run_cli(capsys, argv)
        assert_input_error(code, report, err, "ParameterError")


class TestEncodeDecode:
    def test_encode_decode_cycle(self, capsys, tmp_path, video_file):
        weights_path = str(tmp_path / "w.wfwt")
        code, report, _ = run_cli(
            capsys,
            ["init-weights", "--seed", "42", "--output", weights_path, *TINY_FLAGS],
        )
        assert code == 0
        digest_a = report["metrics"]["digest"]

        prefix = str(tmp_path / "latent")
        code, report, _ = run_cli(
            capsys,
            ["encode", "--input", video_file, "--weights", weights_path,
             "--output", prefix, *TINY_FLAGS],
        )
        assert code == 0
        assert report["metrics"]["latent_shape"] == [4, 5, 2, 2]
        assert load_tensor(prefix + ".mean.wfvt").shape == (4, 5, 2, 2)

        out_path = str(tmp_path / "recon.wfvt")
        code, report, _ = run_cli(
            capsys,
            ["decode", "--latent", prefix, "--weights", weights_path,
             "--output", out_path],
        )
        assert code == 0
        assert report["metrics"]["video_shape"] == [3, 17, 16, 16]
        assert load_tensor(out_path).shape == (3, 17, 16, 16)

        # Same seed reproduces the same weight digest.
        code, report, _ = run_cli(
            capsys,
            ["init-weights", "--seed", "42", "--output",
             str(tmp_path / "w2.wfwt"), *TINY_FLAGS],
        )
        assert report["metrics"]["digest"] == digest_a

    def test_preset_encode_shape_law(self, capsys, tmp_path):
        """Full wfvae-s preset through the CLI: (3,33,64,64) -> (4,9,8,8)."""
        path = tmp_path / "v.wfvt"
        save_tensor(make_random(9, (3, 33, 64, 64)), path)
        prefix = str(tmp_path / "latent")
        code, report, _ = run_cli(
            capsys,
            ["encode", "--input", str(path), "--preset", "wfvae-s",
             "--init-seed", "42", "--output", prefix],
        )
        assert code == 0
        assert report["metrics"]["latent_shape"] == [4, 9, 8, 8]

    def test_streamed_encode_plan(self, capsys, tmp_path, video_file):
        prefix = str(tmp_path / "latent")
        code, report, _ = run_cli(
            capsys,
            ["encode", "--input", video_file, "--init-seed", "7",
             "--plan", "canonical:4", "--output", prefix, *TINY_FLAGS],
        )
        assert code == 0
        assert report["metrics"]["mode"] == "canonical:4"

    def test_decode_with_wrong_geometry_weights(self, capsys, tmp_path, video_file):
        weights_path = str(tmp_path / "w.wfwt")
        run_cli(
            capsys,
            ["init-weights", "--seed", "1", "--output", weights_path, *TINY_FLAGS],
        )
        prefix = str(tmp_path / "latent")
        run_cli(
            capsys,
            ["encode", "--input", video_file, "--weights", weights_path,
             "--output", prefix, *TINY_FLAGS],
        )
        wrong_weights = str(tmp_path / "wrong.wfwt")
        run_cli(
            capsys,
            ["init-weights", "--seed", "1", "--output", wrong_weights,
             "--base-channels", "8", "--c-flow", "8", "--blocks", "2"],
        )
        code, report, err = run_cli(
            capsys,
            ["decode", "--latent", prefix, "--weights", wrong_weights,
             "--output", str(tmp_path / "out.wfvt")],
        )
        assert code == 2
        assert "WeightError" in err

    def test_unknown_preset_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["init-weights", "--preset", "wfvae-xxl", "--output",
                  str(tmp_path / "w.wfwt")])
        assert excinfo.value.code == 2

    def test_preset_flags_accepted(self, capsys):
        """All three named presets parse and map to their base widths."""
        from wfcodec.cli import _build_parser, _config_from_args

        parser = _build_parser()
        for name, bc in (("wfvae-s", 128), ("wfvae-m", 160), ("wfvae-l", 192)):
            args = parser.parse_args(
                ["init-weights", "--preset", name, "--output", "x.wfwt"]
            )
            assert _config_from_args(args).base_channels == bc


def _non_utf8_weights(path):
    """A .wfwt whose single parameter name is not valid UTF-8."""
    import struct

    name = b"\xff\xfe"
    entry = struct.pack("<H", len(name)) + name + struct.pack("<II", 1, 1)
    path.write_bytes(
        b"WFWT" + struct.pack("<II", 1, 1) + entry + struct.pack("<f", 0.0)
    )
    return str(path)


def assert_input_error(code, report, err, name):
    """Exit 2, nothing on stdout, and exactly one JSON error line on stderr."""
    assert code == 2
    assert report is None
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == name


class TestRunStats:
    """Every command reports its wall time, the peak resident memory and
    the minor page faults."""

    def test_reports_carry_elapsed_and_peak_rss(
        self, capsys, monkeypatch, tmp_path, video_file
    ):
        """Every report also carries ``threads``; with no cap asked for, the
        kernels still ran their BLAS at one thread, read back from the
        library (null where it has no thread control)."""
        monkeypatch.delenv("WFCODEC_THREADS", raising=False)
        in_effect = None if blas_threads() is None else 1
        uncapped = {"requested": None, "applied": False, "in_effect": in_effect}
        prefix = str(tmp_path / "latent")
        runs = [
            ["roundtrip", video_file],
            ["analyze", video_file],
            ["encode", "--input", video_file, "--init-seed", "3",
             "--output", prefix, *TINY_FLAGS],
            ["decode", "--latent", prefix, "--init-seed", "3",
             "--output", str(tmp_path / "recon.wfvt")],
            ["verify-stream", "--input", video_file, "--init-seed", "3",
             "--plan", "canonical:4", *TINY_FLAGS],
            ["cache-table", "--kernel-t", "3", "--stride-t", "1",
             "--chunk-size", "4"],
            ["init-weights", "--output", str(tmp_path / "w.wfwt"), *TINY_FLAGS],
            ["loss-report", "--input", video_file, "--recon", video_file],
        ]
        assert {argv[0] for argv in runs} == set(
            wfcodec.cli._build_parser()._subparsers._group_actions[0].choices
        )
        for argv in runs:
            code, report, _ = run_cli(capsys, argv)
            assert code == 0, argv[0]
            metrics = report["metrics"]
            assert metrics["elapsed_s"] > 0, argv[0]
            assert metrics["peak_rss_mib"] > 0, argv[0]
            assert type(metrics["minor_faults"]) is int, argv[0]
            assert metrics["minor_faults"] > 0, argv[0]
            assert metrics["threads"] == uncapped, argv[0]

    def test_wavelet_reports_carry_workers(self, capsys, monkeypatch, video_file):
        """roundtrip and analyze name the thread count their kernels used:
        the CPUs the process may run on."""
        monkeypatch.delenv("WFCODEC_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        for argv in (["roundtrip", video_file], ["analyze", video_file]):
            code, report, _ = run_cli(capsys, argv)
            assert code == 0, argv[0]
            assert report["metrics"]["workers"] == 3, argv[0]
            assert "elapsed_s" in report["metrics"], argv[0]

    def test_model_reports_carry_capped_workers(
        self, capsys, monkeypatch, tmp_path, video_file
    ):
        """encode, decode and verify-stream name ``W`` too, which
        ``WFCODEC_THREADS`` caps below the CPUs the process may run on."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        prefix = str(tmp_path / "latent")
        runs = [
            ["encode", "--input", video_file, "--output", prefix, *TINY_FLAGS],
            ["decode", "--latent", prefix, "--output", str(tmp_path / "recon.wfvt")],
            ["verify-stream", "--input", video_file, *TINY_FLAGS],
            ["roundtrip", video_file],
        ]
        for cap, workers in (("2", 2), ("5", 3)):
            monkeypatch.setenv("WFCODEC_THREADS", cap)
            for argv in runs:
                code, report, _ = run_cli(capsys, argv)
                assert code == 0, argv[0]
                assert report["metrics"]["workers"] == workers, (cap, argv[0])


def _file_hash(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()[:16]


class TestInputDigests:
    """Every reported input digest is the input file's SHA-256, though the
    commands take it from the data they loaded."""

    def test_digests_are_file_hashes(self, capsys, tmp_path, video_file):
        weights = str(tmp_path / "w.wfwt")
        prefix = str(tmp_path / "latent")
        recon = str(tmp_path / "recon.wfvt")
        code, _, _ = run_cli(
            capsys, ["init-weights", "--seed", "4", "--output", weights, *TINY_FLAGS]
        )
        assert code == 0
        runs = [
            (["roundtrip", video_file], {"input": video_file}),
            (["analyze", video_file], {"input": video_file}),
            (["verify-stream", "--input", video_file, "--weights", weights,
              "--plan", "canonical:4", *TINY_FLAGS],
             {"input": video_file, "weights": weights}),
            (["encode", "--input", video_file, "--weights", weights,
              "--output", prefix, *TINY_FLAGS],
             {"input": video_file, "weights": weights}),
            (["decode", "--latent", prefix, "--weights", weights,
              "--output", recon],
             {"latent": prefix + ".mean.wfvt", "weights": weights}),
            (["loss-report", "--input", video_file, "--recon", recon,
              "--latent-mean", prefix + ".mean.wfvt",
              "--latent-logvar", prefix + ".logvar.wfvt"],
             {"input": video_file, "recon": recon,
              "latent_mean": prefix + ".mean.wfvt",
              "latent_logvar": prefix + ".logvar.wfvt"}),
        ]
        for argv, files in runs:
            code, report, _ = run_cli(capsys, argv)
            assert code == 0, argv[0]
            for key, path in files.items():
                assert report["inputs"][key] == _file_hash(path), (argv[0], key)


    def test_version_1_weights_digest_is_their_file_hash(self, capsys, tmp_path, video_file):
        v2 = tmp_path / "w2.wfwt"
        code, _, _ = run_cli(
            capsys, ["init-weights", "--seed", "4", "--output", str(v2), *TINY_FLAGS]
        )
        assert code == 0
        v1 = tmp_path / "w1.wfwt"
        v1.write_bytes(wfwt_bytes(list(WeightStore.load(v2).items())))
        for weights in (v1, v2):
            code, report, _ = run_cli(
                capsys,
                ["encode", "--input", video_file, "--weights", str(weights),
                 "--output", str(tmp_path / "latent"), *TINY_FLAGS],
            )
            assert code == 0
            assert report["inputs"]["weights"] == _file_hash(weights), weights.name
        assert _file_hash(v1) != _file_hash(v2)


class TestAtomicOutputs:
    """An interrupted encode leaves no manifest, so the prefix cannot be
    decoded with a configuration that does not match its tensors."""

    @pytest.mark.parametrize("torn", [".json", ".logvar.wfvt"])
    def test_torn_encode_leaves_no_manifest(
        self, capsys, tmp_path, video_file, monkeypatch, torn
    ):
        prefix = str(tmp_path / "latent")
        argv = ["encode", "--input", video_file, "--init-seed", "3",
                "--output", prefix, *TINY_FLAGS]
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        with monkeypatch.context() as m:
            tear_writes(m, torn)
            code, report, err = run_cli(capsys, [*argv, "--blocks", "2"])
        assert_input_error(code, report, err, "OSError")
        assert not Path(prefix + ".json").exists()
        assert not list(tmp_path.glob("*.tmp.*"))
        code, report, err = run_cli(
            capsys,
            ["decode", "--latent", prefix, "--init-seed", "3",
             "--output", str(tmp_path / "recon.wfvt")],
        )
        assert_input_error(code, report, err, "FormatError")


class TestInputErrors:
    """Bad input text or files exit 2 with a JSON error, never a traceback."""

    @pytest.mark.parametrize("plan", ["canonical:x", "explicit:1,a", "canonical:"])
    def test_unparsable_plan_exits_2(self, capsys, tmp_path, video_file, plan):
        code, report, err = run_cli(
            capsys,
            ["encode", "--input", video_file, "--plan", plan,
             "--output", str(tmp_path / "latent"), *TINY_FLAGS],
        )
        assert_input_error(code, report, err, "ParameterError")

    @pytest.mark.parametrize("command", ["encode", "decode"])
    def test_unparsable_plan_exits_before_loading(
        self, capsys, tmp_path, monkeypatch, video_file, command
    ):
        prefix = str(tmp_path / "latent")
        code, _, _ = run_cli(
            capsys,
            ["encode", "--input", video_file, "--init-seed", "3",
             "--output", prefix, *TINY_FLAGS],
        )
        assert code == 0

        def refuse(*args, **kwargs):
            raise AssertionError("input or weights loaded before the plan was parsed")

        for name in ("init_weights", "load_tensor", "load_manifest"):
            monkeypatch.setattr(cli, name, refuse)
        if command == "encode":
            argv = ["encode", "--input", video_file, "--output", prefix, *TINY_FLAGS]
        else:
            argv = ["decode", "--latent", prefix, "--output", str(tmp_path / "v.wfvt")]
        code, report, err = run_cli(capsys, [*argv, "--plan", "canonical:x"])
        assert_input_error(code, report, err, "ParameterError")

    @staticmethod
    def _refuse(monkeypatch, name):
        """Replace ``cli.<name>`` by a loader that records any call and fails."""
        calls = []

        def refuse(*args, **kwargs):
            calls.append(args)
            raise AssertionError(f"{name} called before the flags were checked")

        monkeypatch.setattr(cli, name, refuse)
        return calls

    def test_bad_sample_seed_exits_before_loading(
        self, capsys, tmp_path, monkeypatch, video_file
    ):
        prefix = str(tmp_path / "latent")
        code, _, _ = run_cli(
            capsys,
            ["encode", "--input", video_file, "--init-seed", "3",
             "--output", prefix, *TINY_FLAGS],
        )
        assert code == 0
        calls = self._refuse(monkeypatch, "_load_or_init_weights")
        code, report, err = run_cli(
            capsys,
            ["decode", "--latent", prefix, "--sample-seed", "-1",
             "--output", str(tmp_path / "v.wfvt")],
        )
        assert_input_error(code, report, err, "ParameterError")
        assert calls == []

    def test_bad_loss_weight_exits_before_loading(self, capsys, monkeypatch, video_file):
        calls = self._refuse(monkeypatch, "load_tensor")
        code, report, err = run_cli(
            capsys,
            ["loss-report", "--input", video_file, "--recon", video_file,
             "--lambda-kl", "-1"],
        )
        assert_input_error(code, report, err, "ParameterError")
        assert calls == []

    @staticmethod
    def _decode_edited_manifest(capsys, tmp_path, video_file, write):
        prefix = str(tmp_path / "latent")
        code, _, _ = run_cli(
            capsys,
            ["encode", "--input", video_file, "--init-seed", "3",
             "--output", prefix, *TINY_FLAGS],
        )
        assert code == 0
        write(prefix + ".json")
        return run_cli(
            capsys,
            ["decode", "--latent", prefix, "--init-seed", "3",
             "--output", str(tmp_path / "out.wfvt")],
        )

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: m["config"].update(bogus=1),
            lambda m: m["config"].pop("base_channels"),
            lambda m: m.pop("config"),
            lambda m: m.pop("original_shape"),
            lambda m: m["config"].update(norm="groupnorm", groupnorm_groups=0),
            lambda m: m["config"].update(blocks_per_stage=1.5),
            lambda m: m["config"].update(latent_channels=4.0),
            lambda m: m["original_shape"].__setitem__(1, float("inf")),
            lambda m: m.pop("latent_shape"),
            lambda m: m["latent_shape"].pop(),
            lambda m: m["latent_shape"].__setitem__(0, 4.0),
            lambda m: m.update(format="something-else"),
            lambda m: m.update(version=99),
            lambda m: [m.pop(key) for key in ("format", "version")],
        ],
        ids=["unknown-key", "missing-config-key", "no-config", "no-shape",
             "zero-groups", "fractional-blocks", "float-latent-channels",
             "infinite-frames", "no-latent-shape", "three-dim-latent-shape",
             "float-latent-shape", "other-format", "other-version", "no-tag"],
    )
    def test_bad_latent_manifest_exits_2(self, capsys, tmp_path, video_file, edit):
        def write(path):
            with open(path) as fh:
                manifest = json.load(fh)
            edit(manifest)
            with open(path, "w") as fh:
                json.dump(manifest, fh)

        result = self._decode_edited_manifest(capsys, tmp_path, video_file, write)
        assert_input_error(*result, "FormatError")

    @pytest.mark.parametrize(
        "suffix, flags",
        [(".mean.wfvt", []), (".logvar.wfvt", ["--sample-seed", "1"])],
        ids=["mean", "sampled-logvar"],
    )
    def test_latent_disagreeing_with_manifest_exits_2(
        self, capsys, tmp_path, suffix, flags
    ):
        """A tensor of another latent, copied over this one's, is refused
        rather than decoded at the shape it happens to have."""
        prefixes = []
        for size in (16, 32):
            video = tmp_path / f"video{size}.wfvt"
            save_tensor(make_random(5, (3, 9, size, size)), video)
            prefixes.append(str(tmp_path / f"latent{size}"))
            code, _, _ = run_cli(
                capsys,
                ["encode", "--input", str(video), "--init-seed", "3",
                 "--output", prefixes[-1], *TINY_FLAGS],
            )
            assert code == 0
        shutil.copyfile(prefixes[1] + suffix, prefixes[0] + suffix)
        result = run_cli(
            capsys,
            ["decode", "--latent", prefixes[0], "--init-seed", "3",
             "--output", str(tmp_path / "out.wfvt"), *flags],
        )
        assert_input_error(*result, "FormatError")

    def test_non_utf8_latent_manifest_exits_2(self, capsys, tmp_path, video_file):
        def write(path):
            with open(path, "rb") as fh:
                text = fh.read()
            with open(path, "wb") as fh:
                fh.write(text.replace(b'"direct"', b'"\xff"'))

        result = self._decode_edited_manifest(capsys, tmp_path, video_file, write)
        assert_input_error(*result, "FormatError")

    @pytest.mark.parametrize(
        "names", [("z", "z"), ("b", "a")], ids=["duplicate", "swapped"]
    )
    def test_unsorted_weight_entries_exit_2(self, capsys, tmp_path, video_file, names):
        weights = tmp_path / "bad.wfwt"
        weights.write_bytes(wfwt_bytes([(n, [0.0]) for n in names]))
        code, report, err = run_cli(
            capsys,
            ["encode", "--input", video_file, "--weights", str(weights),
             "--output", str(tmp_path / "latent"), *TINY_FLAGS],
        )
        assert_input_error(code, report, err, "FormatError")

    @pytest.mark.parametrize("version", [1, 2])
    def test_nan_weight_exits_2_before_the_model_runs(
        self, capsys, tmp_path, video_file, monkeypatch, version
    ):
        good = tmp_path / "good.wfwt"
        code, _, _ = run_cli(
            capsys, ["init-weights", "--seed", "4", "--output", str(good), *TINY_FLAGS]
        )
        assert code == 0
        entries = [(name, np.array(arr)) for name, arr in WeightStore.load(good).items()]
        dict(entries)["enc.down1.weight"].reshape(-1)[0] = np.nan
        weights = tmp_path / "nan.wfwt"
        weights.write_bytes(wfwt_bytes(entries, version))

        def model_runs(*args, **kwargs):
            raise AssertionError("the model ran on a weight file with NaN")

        monkeypatch.setattr(cli, "encode", model_runs)
        code, report, err = run_cli(
            capsys,
            ["encode", "--input", video_file, "--weights", str(weights),
             "--output", str(tmp_path / "latent"), *TINY_FLAGS],
        )
        assert_input_error(code, report, err, "FormatError")
        assert "'enc.down1.weight'" in json.loads(err)["message"]

    def test_non_utf8_weight_name_exits_2(self, capsys, tmp_path, video_file):
        weights = _non_utf8_weights(tmp_path / "bad.wfwt")
        code, report, err = run_cli(
            capsys,
            ["encode", "--input", video_file, "--weights", weights,
             "--output", str(tmp_path / "latent"), *TINY_FLAGS],
        )
        assert_input_error(code, report, err, "FormatError")

    @pytest.mark.parametrize("tolerance", ["nan", "-1"])
    @pytest.mark.parametrize("command", ["roundtrip", "verify-stream"])
    def test_bad_tolerance_exits_2(self, capsys, video_file, command, tolerance):
        argv = [command, video_file] if command == "roundtrip" else [
            command, "--input", video_file, *TINY_FLAGS
        ]
        code, report, err = run_cli(capsys, [*argv, "--tolerance", tolerance])
        assert_input_error(code, report, err, "ParameterError")

    @pytest.mark.parametrize("kernel_t", ["3", "0"])
    def test_negative_m_max_exits_2(self, capsys, kernel_t):
        code, report, err = run_cli(
            capsys,
            ["cache-table", "--kernel-t", kernel_t, "--stride-t", "1",
             "--chunk-size", "4", "--m-max", "-1"],
        )
        assert_input_error(code, report, err, "ParameterError")

    @pytest.mark.parametrize("groups", ["-8", "0"])
    def test_bad_groupnorm_groups_exits_2(self, capsys, video_file, groups):
        code, report, err = run_cli(
            capsys,
            ["verify-stream", "--input", video_file, "--norm", "groupnorm",
             "--groupnorm-groups", groups, *TINY_FLAGS],
        )
        assert_input_error(code, report, err, "ParameterError")

    def test_bins_above_cap_exits_2(self, capsys, video_file):
        bins = str(MAX_BINS + 1)
        code, report, err = run_cli(capsys, ["analyze", video_file, "--bins", bins])
        assert_input_error(code, report, err, "ParameterError")

    def test_unbounded_cache_table_exits_2(self, capsys):
        code, report, err = run_cli(
            capsys,
            ["cache-table", "--kernel-t", "3", "--stride-t", "1",
             "--chunk-size", "4", "--m-max", "100000000000"],
        )
        assert_input_error(code, report, err, "ParameterError")


class TestLossReport:
    def test_identical_pair(self, capsys, tmp_path, video_file):
        code, report, _ = run_cli(
            capsys,
            ["loss-report", "--input", video_file, "--recon", video_file],
        )
        assert code == 0
        components = report["metrics"]["components"]
        assert components["l1_recon"] == 0.0
        assert components["wl"] == 0.0
        assert components["total"] == 0.0

    def test_with_latent_and_offsets(self, capsys, tmp_path, video_file):
        recon_path = tmp_path / "recon.wfvt"
        base = load_tensor(video_file)
        save_tensor(new_tensor(*base.shape, 0.0), recon_path)
        mean_path = tmp_path / "m.wfvt"
        logvar_path = tmp_path / "lv.wfvt"
        save_tensor(new_tensor(4, 5, 2, 2, 0.0), mean_path)
        save_tensor(new_tensor(4, 5, 2, 2, 0.0), logvar_path)
        code, report, _ = run_cli(
            capsys,
            ["loss-report", "--input", video_file, "--recon", str(recon_path),
             "--latent-mean", str(mean_path), "--latent-logvar", str(logvar_path),
             "--adv", "2.0", "--lambda-adv", "0.5"],
        )
        assert code == 0
        components = report["metrics"]["components"]
        assert components["kl"] == 0.0
        assert components["l1_recon"] > 0.0
        expected_total = components["l1_recon"] + 0.5 * 2.0 + 0.1 * components["wl"]
        assert components["total"] == pytest.approx(expected_total, rel=1e-12)


    def test_nonfinite_adv_exits_2(self, capsys, video_file):
        code, report, err = run_cli(
            capsys,
            ["loss-report", "--input", video_file, "--recon", video_file,
             "--adv", "inf"],
        )
        assert code == 2
        assert report is None
        assert json.loads(err)["error"] == "ParameterError"
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--latent-mean", "--latent-logvar"])
    def test_one_latent_file_exits_2(self, capsys, tmp_path, video_file, flag):
        code, report, err = run_cli(
            capsys,
            ["loss-report", "--input", video_file, "--recon", video_file,
             flag, str(tmp_path / "absent.wfvt")],
        )
        assert_input_error(code, report, err, "ParameterError")

    def test_nonfinite_kl_exits_2(self, capsys, tmp_path, video_file):
        mean_path = tmp_path / "m.wfvt"
        logvar_path = tmp_path / "lv.wfvt"
        save_tensor(new_tensor(4, 5, 2, 2, 0.0), mean_path)
        save_tensor(new_tensor(4, 5, 2, 2, 1000.0), logvar_path)
        code, report, err = run_cli(
            capsys,
            ["loss-report", "--input", video_file, "--recon", video_file,
             "--latent-mean", str(mean_path), "--latent-logvar", str(logvar_path)],
        )
        assert code == 2
        assert report is None
        assert json.loads(err)["error"] == "ParameterError"
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1


class TestProcessEntry:
    def test_console_script_cache_table(self):
        proc = subprocess.run(
            [sys.executable, "-m", "wfcodec.cli", "cache-table", "--kernel-t", "3",
             "--stride-t", "2", "--chunk-size", "4", "--m-max", "5"],
            capture_output=True,
            text=True,
            env=child_env(),
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert [r["formula"] for r in report["metrics"]["rows"]] == [1] * 6
        assert "pass" in proc.stderr

    def test_thread_cap_env(self, tmp_path):
        """With ``WFCODEC_THREADS=1`` the child's BLAS runs one thread, read
        back from the library; where no setter is found, it says so."""
        path = tmp_path / "v.wfvt"
        save_tensor(make_random(5, (1, 5, 16, 16)), path)
        proc = subprocess.run(
            [sys.executable, "-m", "wfcodec.cli", "roundtrip", str(path)],
            capture_output=True,
            text=True,
            env=child_env(WFCODEC_THREADS="1"),
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdict"] == "pass"
        warnings = [
            json.loads(line) for line in proc.stderr.splitlines()
            if "thread_cap_not_applied" in line
        ]
        if blas_threads() is None:
            assert warnings == [{
                "warning": "thread_cap_not_applied",
                "reason": "no BLAS thread setter found",
                "value": "1",
            }]
        else:
            assert warnings == []
            assert report["metrics"]["threads"] == {
                "requested": 1, "applied": True, "in_effect": 1,
            }


class TestThreadCapWarning:
    CACHE_TABLE = ["cache-table", "--kernel-t", "3", "--stride-t", "1",
                   "--chunk-size", "4", "--m-max", "3"]

    def test_unset_cap_leaves_stderr_to_the_summary(self, capsys, monkeypatch):
        monkeypatch.delenv("WFCODEC_THREADS", raising=False)
        code, report, err = run_cli(capsys, self.CACHE_TABLE)
        assert code == 0 and report["verdict"] == "pass"
        assert err == "wfcodec cache-table: pass\n"

    def test_non_integer_cap_warns_and_keeps_verdict(self, capsys, monkeypatch):
        monkeypatch.setenv("WFCODEC_THREADS", "two")
        code, report, err = run_cli(capsys, self.CACHE_TABLE)
        assert code == 0 and report["verdict"] == "pass"
        lines = err.splitlines()
        assert json.loads(lines[0]) == {
            "warning": "thread_cap_not_applied",
            "reason": "value is not an integer",
            "value": "two",
        }
        assert lines[1:] == ["wfcodec cache-table: pass"]

    def test_missing_blas_setter_warns_and_keeps_verdict(self, capsys, monkeypatch):
        monkeypatch.setenv("WFCODEC_THREADS", "1")
        monkeypatch.setattr(blas, "_controls", lambda: None)
        code, report, err = run_cli(capsys, self.CACHE_TABLE)
        assert code == 0 and report["verdict"] == "pass"
        lines = err.splitlines()
        assert json.loads(lines[0])["reason"] == "no BLAS thread setter found"
        assert lines[1:] == ["wfcodec cache-table: pass"]
        assert report["metrics"]["threads"] == {
            "requested": 1, "applied": False, "in_effect": None,
        }

    @pytest.mark.skipif(blas_threads() is None, reason="no BLAS thread control found")
    def test_cap_is_read_back_and_restored(self, capsys, monkeypatch):
        """The report reads the BLAS count the kernels ran with back from the
        library, one thread whatever the cap, and the count the process had
        comes back after the command."""
        before = blas_threads()
        for cap in (1, 2):
            monkeypatch.setenv("WFCODEC_THREADS", str(cap))
            code, report, _ = run_cli(capsys, self.CACHE_TABLE)
            assert code == 0
            assert report["metrics"]["threads"] == {
                "requested": cap, "applied": True, "in_effect": 1,
            }
            assert blas_threads() == before


# ---------------------------------------------------------------------------
# The exit-code contract under fuzzed argv and corrupted input files.
# ---------------------------------------------------------------------------

# Flags whose value sets a layer width or count: drawn small, so no drawn
# case allocates more than a few MiB of weights or activations.
_WIDTH_FLAGS = {
    "--base-channels", "--c-flow", "--blocks", "--latent-channels",
    "--groupnorm-groups",
}
_NUMBERS = [str(n) for n in range(-8, 65)] + ["nan", "inf", "-inf", "1.5", "x"]
_WIDTHS = ["-8", "-2", "-1", "0", "1", "2", "3", "4", "8", "16", "nan", "1.5", "x"]
_FIELD_VALUES = [0, -8, 1.5, 4.0, "x", True, None]
_SCALES = [1e-4, 1.0, 1e37]
_OFFSETS = [0.0, 1000.0]


def _argv_and_inputs(d):
    """Each subcommand's valid argv in directory ``d`` and the files it reads."""
    video, recon, weights = f"{d}/video.wfvt", f"{d}/recon.wfvt", f"{d}/w.wfwt"
    latent = f"{d}/latent"
    mean, logvar = f"{latent}.mean.wfvt", f"{latent}.logvar.wfvt"
    manifest = f"{latent}.json"
    return {
        "roundtrip": (["roundtrip", video, "--levels", "3", "--tolerance", "1e-5"],
                      [video]),
        "analyze": (["analyze", video, "--bins", "16"], [video]),
        "verify-stream": (
            ["verify-stream", "--input", video, "--weights", weights,
             "--plan", "canonical:2", "--tolerance", "1e-6", "--norm", "groupnorm",
             "--groupnorm-groups", "2", *TINY_FLAGS],
            [video, weights],
        ),
        "cache-table": (
            ["cache-table", "--kernel-t", "3", "--stride-t", "2",
             "--chunk-size", "4", "--m-max", "4"],
            [],
        ),
        "encode": (
            ["encode", "--input", video, "--weights", weights, "--plan", "canonical:2",
             "--output", f"{d}/out", *TINY_FLAGS],
            [video, weights],
        ),
        "decode": (
            ["decode", "--latent", latent, "--weights", weights, "--plan", "direct",
             "--sample-seed", "1", "--output", f"{d}/out.wfvt"],
            [manifest, mean, logvar, weights],
        ),
        "init-weights": (
            ["init-weights", "--seed", "1", "--output", f"{d}/new.wfwt", *TINY_FLAGS],
            [],
        ),
        "loss-report": (
            ["loss-report", "--input", video, "--recon", recon, "--latent-mean", mean,
             "--latent-logvar", logvar, "--adv", "0.5", "--lambda-kl", "1"],
            [video, recon, mean, logvar],
        ),
    }


@pytest.fixture(scope="module")
def contract_inputs(tmp_path_factory):
    """A 5-frame 16x16 clip, a width-8 model's weights and its latent files.

    The latent manifest names a groupnorm config, which loads the same
    weights, so that its ``groupnorm_groups`` field is live.
    """
    d = tmp_path_factory.mktemp("contract")
    save_tensor(make_random(5, (3, 5, 16, 16)), d / "video.wfvt")
    save_tensor(make_random(6, (3, 5, 16, 16)), d / "recon.wfvt")
    assert main(["init-weights", "--seed", "3", "--output", str(d / "w.wfwt"),
                 *TINY_FLAGS]) == 0
    assert main(["encode", "--input", str(d / "video.wfvt"), "--weights",
                 str(d / "w.wfwt"), "--output", str(d / "latent"), *TINY_FLAGS]) == 0
    manifest = json.loads((d / "latent.json").read_text())
    manifest["config"].update(norm="groupnorm", groupnorm_groups=2)
    (d / "latent.json").write_text(json.dumps(manifest))
    return d


def _drop_flag(data, argv):
    """Drop one flag and its value; never --base-channels, whose absence
    builds the preset's full-width model."""
    flags = [
        i for i, tok in enumerate(argv)
        if tok.startswith("--") and tok != "--base-channels"
    ]
    if not flags:
        return argv
    i = data.draw(st.sampled_from(flags))
    has_value = i + 1 < len(argv) and not argv[i + 1].startswith("--")
    return argv[:i] + argv[i + 1 + has_value:]


def _replace_number(data, argv):
    """Replace one numeric flag value from a bounded set."""
    numeric = [i for i, tok in enumerate(argv) if i and _is_number(tok)]
    if not numeric:
        return argv
    i = data.draw(st.sampled_from(numeric))
    pool = _WIDTHS if argv[i - 1] in _WIDTH_FLAGS else _NUMBERS
    return argv[:i] + [data.draw(st.sampled_from(pool))] + argv[i + 1:]


def _is_number(token: str) -> bool:
    try:
        float(token)
    except ValueError:
        return False
    return True


def _corrupt(data, path):
    """Truncate the file or flip one of its bytes."""
    raw = path.read_bytes()
    if not raw:
        return
    i = data.draw(st.integers(0, len(raw) - 1))
    if data.draw(st.booleans()):
        path.write_bytes(raw[:i])
    else:
        flipped = raw[i] ^ data.draw(st.integers(1, 255))
        path.write_bytes(raw[:i] + bytes([flipped]) + raw[i + 1:])


def _replace_config_field(data, path):
    """Give one config field of a latent manifest a wrong value."""
    manifest = json.loads(path.read_bytes())
    key = data.draw(st.sampled_from(sorted(manifest["config"])))
    manifest["config"][key] = data.draw(st.sampled_from(_FIELD_VALUES))
    path.write_text(json.dumps(manifest))


def _rescale(data, path):
    """Replace the clip x by a*x + b: a range of a few ULPs, or a huge one."""
    a = data.draw(st.sampled_from(_SCALES))
    b = data.draw(st.sampled_from(_OFFSETS))
    clip = load_tensor(path).data.astype(np.float64)
    save_tensor(VideoTensor((a * clip + b).astype(np.float32)), path)


class TestExitCodeContract:
    """Every subcommand, fed dropped flags, out-of-range numbers, rescaled
    clips and corrupt input files, exits 0, 1 or 2 without a traceback:
    stdout holds one JSON report or nothing, and exit 2 leaves a JSON error
    line on stderr."""

    @pytest.mark.parametrize("command", sorted(_argv_and_inputs(".")))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_exit_codes(self, contract_inputs, command, data):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(contract_inputs, tmp, dirs_exist_ok=True)
            argv, inputs = _argv_and_inputs(tmp)[command]
            video = f"{tmp}/video.wfvt"
            menu = ["drop", "number"] + ["corrupt"] * bool(inputs)
            menu += ["field"] * (command == "decode")
            menu += ["scale"] * (video in inputs)
            changes = data.draw(st.lists(st.sampled_from(menu), min_size=1, max_size=2))
            if "field" in changes:  # before any corruption of the manifest
                _replace_config_field(data, Path(inputs[0]))
            if "scale" in changes:  # before any corruption of the clip
                _rescale(data, Path(video))
            for change in changes:
                if change == "drop":
                    argv = _drop_flag(data, argv)
                elif change == "number":
                    argv = _replace_number(data, argv)
                elif change == "corrupt":
                    _corrupt(data, Path(data.draw(st.sampled_from(inputs))))
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse rejected the argv
                    assert exc.code == 2
                    return
        assert code in (0, 1, 2)
        if code == 2:
            assert out.getvalue() == ""
            assert "error" in json.loads(err.getvalue().splitlines()[-1])
        else:
            report = json.loads(out.getvalue())
            assert report["verdict"] == ("pass" if code == 0 else "fail")


@pytest.mark.parametrize("command", sorted(_argv_and_inputs(".")))
def test_report_names_its_command(capsys, monkeypatch, tmp_path, contract_inputs, command):
    """Every report, and the stderr summary, names the subcommand that ran."""
    monkeypatch.delenv("WFCODEC_THREADS", raising=False)
    shutil.copytree(contract_inputs, tmp_path, dirs_exist_ok=True)
    argv, _ = _argv_and_inputs(tmp_path)[command]
    code, report, err = run_cli(capsys, argv)
    assert code in (0, 1)
    assert report["command"] == command
    assert err.splitlines() == [f"wfcodec {command}: {report['verdict']}"]
