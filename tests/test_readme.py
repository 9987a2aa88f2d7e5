"""The README's examples run as written."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from tunedline.config import bundled_config_path, parse_sweep_config

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def code_blocks(language: str) -> list[str]:
    """The bodies of README's ```<language> blocks, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)


def test_ini_example_is_the_bundled_500km_config():
    (block,) = code_blocks("ini")
    bundled = bundled_config_path("experiment_500km").read_text()
    assert parse_sweep_config(block) == parse_sweep_config(bundled)


@pytest.mark.parametrize("block", code_blocks("python"))
def test_python_example_runs(block):
    proc = subprocess.run([sys.executable, "-c", block], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
