"""The package's public names and the documentation of its front end."""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import eur
from eur import cli

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _fresh_python(code, cwd):
    """Run `code` in a new interpreter that imports eur from this checkout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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


def test_scalar_commands_do_not_import_numpy(tmp_path):
    code = f"""
import contextlib, io, sys
from eur import cli
argvs = [
    ["eval", "--c", "0.8"],
    ["constants"],
    ["critique", "--c", "0.6"],
    ["sweep", "--from", "0.5", "--to", "0.9", "--step", "0.01", "--out", {str(tmp_path / "s.csv")!r}],
    ["verify", "--suite", "shape", "--c-list", "0.5"],
    ["verify", "--suite", "critique", "--c-list", "0.3"],
    ["verify", "--suite", "grid", "--c-list", "0.5", "0.9"],
    ["verify", "--suite", "qubit", "--c-list", "0.8"],
]
with contextlib.redirect_stdout(io.StringIO()):
    assert [cli.main(argv) for argv in argvs] == [0] * len(argvs)
assert "numpy" not in sys.modules
"""
    _fresh_python(code, tmp_path)
    assert (tmp_path / "s.csv").read_text().count("\n") == 42


def test_star_import_binds_every_public_name(tmp_path):
    code = """
namespace = {}
exec("from eur import *", namespace)
del namespace["__builtins__"]
import eur
from eur import core, errors, oracle, solve
expected = [*core.__all__, *errors.__all__, *oracle.__all__, *solve.__all__]
assert eur.__all__ == expected
assert sorted(namespace) == sorted(expected)
assert all(namespace[name] is getattr(eur, name) for name in expected)
"""
    _fresh_python(code, tmp_path)


def test_each_oracle_name_resolves_on_first_access(tmp_path):
    # every name in oracle.__all__ must load through eur's lazy __getattr__
    code = """
import importlib
import eur
names = importlib.import_module("eur.oracle").__all__
assert all(getattr(eur, name) is getattr(eur.oracle, name) for name in names)
"""
    _fresh_python(code, tmp_path)
