"""The README's library example runs as written, and its CLI examples parse."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from streamgate.cli import SCHEMA, build_experiment, build_parser, parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_block_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    avg_error, adapted_fraction, mean_c = map(float, capsys.readouterr().out.split())
    assert 0.0 <= avg_error <= 1.0 and adapted_fraction == 1 / 3 and mean_c == 3.0


def test_readme_cli_examples_parse():
    section = README.read_text().split("## CLI", 1)[1]
    block = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    lines = [line for line in block.splitlines() if line.startswith("streamgate ")]
    assert {shlex.split(line)[1] for line in lines} == {"run", "sweep", "replay"}
    for line in lines:
        # "[--flag]" marks an optional flag; parse it as given.
        argv = shlex.split(line.replace("[", "").replace("]", ""))[1:]
        build_parser().parse_args(argv)


def test_readme_config_block_lists_every_key():
    section = README.read_text().split("Configs are flat", 1)[1]
    cfg = parse_config_text(re.search(r"```ini\n(.*?)```", section, re.S).group(1))
    assert set(cfg) == set(SCHEMA)
    build_experiment(cfg)
