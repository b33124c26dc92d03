"""CLI contract: JSON reports on stdout, exit code 0 iff verdict pass,
errors surfaced with exit code 2."""

import importlib.util
import json
import os
import subprocess
import sys

import pytest

import wfcodec
from wfcodec import Rng, new_tensor, random_normal, save_tensor, load_tensor
from wfcodec.cli import main
from wfcodec.synthetic import smooth_video

from helpers import make_random

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
        ],
        ids=["unknown-key", "missing-config-key", "no-config", "no-shape"],
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

    def test_non_utf8_latent_manifest_exits_2(self, capsys, tmp_path, video_file):
        def write(path):
            with open(path, "rb") as fh:
                text = fh.read()
            with open(path, "wb") as fh:
                fh.write(text.replace(b'"direct"', b'"\xff"'))

        result = self._decode_edited_manifest(capsys, tmp_path, video_file, write)
        assert_input_error(*result, "FormatError")

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


def child_env(**extra) -> dict:
    """This environment for a child process, with the imported wfcodec's
    directory first on PYTHONPATH, so the child runs the package under test
    (pytest's ``pythonpath`` setting reaches only this process)."""
    package_root = os.path.dirname(os.path.dirname(wfcodec.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


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
        path = tmp_path / "v.wfvt"
        save_tensor(make_random(5, (1, 5, 16, 16)), path)
        proc = subprocess.run(
            [sys.executable, "-m", "wfcodec.cli", "roundtrip", str(path)],
            capture_output=True,
            text=True,
            env=child_env(WFCODEC_THREADS="1"),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["verdict"] == "pass"
        warnings = [
            json.loads(line) for line in proc.stderr.splitlines()
            if "thread_cap_not_applied" in line
        ]
        if importlib.util.find_spec("threadpoolctl") is None:
            assert warnings == [{
                "warning": "thread_cap_not_applied",
                "reason": "threadpoolctl is not installed",
                "value": "1",
            }]
        else:
            assert warnings == []


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

    def test_missing_threadpoolctl_warns_and_keeps_verdict(self, capsys, monkeypatch):
        monkeypatch.setenv("WFCODEC_THREADS", "1")
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)  # import raises ImportError
        code, report, err = run_cli(capsys, self.CACHE_TABLE)
        assert code == 0 and report["verdict"] == "pass"
        lines = err.splitlines()
        assert json.loads(lines[0])["reason"] == "threadpoolctl is not installed"
        assert lines[1:] == ["wfcodec cache-table: pass"]
