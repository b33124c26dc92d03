"""The README's Python quick start runs as written, at a narrow width, and
every command line of its CLI block parses."""

import re
import shlex
from pathlib import Path

import wfcodec
from wfcodec import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def _quick_start() -> str:
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_quick_start_prints_its_comments(monkeypatch, capsys):
    """Every ``print(...)  # value`` line prints its comment, and the
    block's own stream-equals-direct assert holds."""
    code = _quick_start()
    expected = re.findall(r"^print\([^#\n]*\) +# (.*)$", code, re.M)
    assert len(expected) == 2

    def narrow(name, latent_channels=4, **overrides):
        assert name in wfcodec.model.PRESET_BASE_CHANNELS
        return wfcodec.ModelConfig(
            base_channels=8, c_flow=8, latent_channels=latent_channels, **overrides
        )

    monkeypatch.setattr(wfcodec, "preset_config", narrow)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_cli_block_parses():
    """Each ``wfcodec ...`` line of the CLI section's bash block, its
    backslash continuations joined, is accepted by the CLI's parser."""
    (block,) = re.findall(r"^## CLI\n.*?^```bash\n(.*?)^```", README.read_text(),
                          re.M | re.S)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line) for line in lines if line.startswith("wfcodec ")]
    assert len(commands) == 9
    parser = cli._build_parser()
    for argv in commands:
        parser.parse_args(argv[1:])
