"""The package's public names and the documentation of its front end."""

import argparse
import re
from pathlib import Path

import eur
from eur import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def test_all_is_unique_and_resolves():
    assert len(eur.__all__) == len(set(eur.__all__))
    assert [name for name in eur.__all__ if not hasattr(eur, name)] == []


def _documented_commands(text):
    return {m.group(1) for m in re.finditer(r"^\s*eur (\w+)", text, re.MULTILINE)}


def test_documented_subcommands_match_the_parser():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    readme_cli = README.split("## CLI", 1)[1].split("```")[1]
    assert _documented_commands(cli.__doc__) == set(sub.choices)
    assert _documented_commands(readme_cli) == set(sub.choices)


def test_readme_paths_exist():
    paths = set(re.findall(r"\b(?:scripts|tests|perfbench)/[\w./-]*\w", README))
    assert paths
    assert sorted(p for p in paths if not (ROOT / p).exists()) == []
