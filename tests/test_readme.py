"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

from streamgate.cli import CONFIG_KEYS, build_experiment, parse_config_text

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_use_block_runs(capsys):
    section = README.read_text().split("## Library use", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    avg_error, adapted_fraction, mean_c = map(float, capsys.readouterr().out.split())
    assert 0.0 <= avg_error <= 1.0 and adapted_fraction == 1 / 3 and mean_c == 3.0


def test_readme_config_block_lists_every_key():
    section = README.read_text().split("Configs are flat", 1)[1]
    cfg = parse_config_text(re.search(r"```ini\n(.*?)```", section, re.S).group(1))
    assert set(cfg) == CONFIG_KEYS
    build_experiment(cfg)
