"""The README's quick start runs; its commands and config keys are the
parser's."""

import argparse
import re
from pathlib import Path

from curvedual import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Quick start (Python)", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, flags=re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md quick start", "exec"), {})


def test_config_keys_match_the_parser():
    text = README.read_text(encoding="utf-8")
    listing = text.split("The config keys are:\n\n", 1)[1].split("\n\n", 1)[0]
    keys = re.findall(r"^- `([^`]+)`", listing, flags=re.M)
    assert len(keys) == len(set(keys))
    assert set(keys) == cli._CONFIG_KEYS


def test_commands_match_the_parser():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    headings = re.findall(r"^### (.+)$", section, flags=re.M)
    commands = next(action.choices for action in cli._PARSER._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert headings == list(commands)
