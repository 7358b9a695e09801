"""The package's public names and the documentation of its front end."""

import argparse
import ast
import inspect
import itertools
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eur
from eur import cli, core, oracle, solve

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def _fresh_python(code, cwd, *flags, environ=os.environ):
    """Run `code` in a new interpreter that imports eur from this checkout,
    with the variables of `environ`; return its stdout."""
    env = dict(environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_all_is_unique_and_resolves():
    assert len(eur.__all__) == len(set(eur.__all__))
    assert [name for name in eur.__all__ if not hasattr(eur, name)] == []


def _documented_commands(text):
    return {m.group(1) for m in re.finditer(r"^\s*eur (\w+)", text, re.MULTILINE)}


def test_documented_subcommands_match_the_parser():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    readme_section = README.split("## CLI", 1)[1].split("\n## ", 1)[0]
    readme_cli = readme_section.split("```")[1]
    assert _documented_commands(cli.__doc__) == set(sub.choices)
    assert _documented_commands(readme_cli) == set(sub.choices)
    # every option of every subcommand, help aside, is named in both
    options = {
        opt
        for parser in sub.choices.values()
        for action in parser._actions
        if not isinstance(action, argparse._HelpAction)
        for opt in action.option_strings
    }
    for text in (cli.__doc__, readme_section):
        assert sorted(o for o in options if not re.search(re.escape(o) + r"(?![\w-])", text)) == []


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


# the variables that set OpenBLAS's thread count, as cli._random_checks reads them
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _blas_threads_after(tmp_path, argvs, preset=None, numpy_first=False):
    """Run cli.main on each argv in a fresh interpreter whose only thread
    variable is `preset` (a (name, value) pair), numpy imported first if
    asked.  Return the exit codes, the three variables afterwards, and the
    interpreter's task count (None where /proc/self/task does not exist)."""
    environ = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    if preset is not None:
        environ[preset[0]] = preset[1]
    code = f"""
import contextlib, io, os
{"import numpy" if numpy_first else ""}
from eur import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in {argvs!r}]
tasks = len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
print(repr((codes, {{name: os.environ.get(name) for name in {_BLAS_THREAD_VARS!r}}}, tasks)))
"""
    return ast.literal_eval(_fresh_python(code, tmp_path, environ=environ))


_RANDOM_SEED_7 = [["verify", "--suite", "random", "--seed", "7"]]


def test_random_suite_runs_blas_on_one_thread(tmp_path):
    codes, threads, tasks = _blas_threads_after(tmp_path, _RANDOM_SEED_7)
    assert codes == [0]
    assert threads == {"OPENBLAS_NUM_THREADS": "1", "GOTO_NUM_THREADS": None, "OMP_NUM_THREADS": None}
    if tasks is not None:
        assert tasks == 1  # no BLAS worker thread


@pytest.mark.parametrize("name", _BLAS_THREAD_VARS)
def test_random_suite_keeps_a_preset_thread_count(tmp_path, name):
    codes, threads, tasks = _blas_threads_after(tmp_path, _RANDOM_SEED_7, preset=(name, "2"))
    assert codes == [0]
    assert threads == {var: "2" if var == name else None for var in _BLAS_THREAD_VARS}
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    if tasks is not None and cpus >= 2 and "openblas" in blas:
        assert tasks == 2  # the worker runs, so the one-thread test can see it


def test_random_suite_keeps_the_thread_count_of_a_loaded_numpy(tmp_path):
    codes, threads, _ = _blas_threads_after(tmp_path, _RANDOM_SEED_7, numpy_first=True)
    assert codes == [0]
    assert threads == dict.fromkeys(_BLAS_THREAD_VARS)


def test_other_commands_leave_the_thread_count_alone(tmp_path):
    argvs = [
        ["eval", "--c", "0.8"],
        ["constants"],
        ["sweep", "--from", "0.5", "--to", "0.9", "--step", "0.01", "--out", str(tmp_path / "s.csv")],
        ["critique", "--c", "0.6"],
        ["verify", "--suite", "grid", "--c-list", "0.5", "0.9"],
        ["verify", "--suite", "qubit", "--c-list", "0.8"],
        ["verify", "--suite", "shape", "--c-list", "0.5"],
        ["verify", "--suite", "critique", "--c-list", "0.3"],
    ]
    codes, threads, _ = _blas_threads_after(tmp_path, argvs)
    assert codes == [0] * len(argvs)
    assert threads == dict.fromkeys(_BLAS_THREAD_VARS)


def test_star_import_binds_every_public_name(tmp_path):
    code = """
namespace = {}
exec("from eur import *", namespace)
del namespace["__builtins__"]
import eur
from eur import core, errors, solve
expected = [*core.__all__, *errors.__all__, *solve.__all__]
assert eur.__all__ == expected
assert sorted(namespace) == sorted(expected)
assert all(namespace[name] is getattr(eur, name) for name in expected)
"""
    _fresh_python(code, tmp_path)


def test_importing_eur_loads_neither_oracle_nor_numpy(tmp_path):
    code = """
import sys
import eur
assert "eur.oracle" not in sys.modules and "numpy" not in sys.modules
import eur.cli
assert "eur.oracle" not in sys.modules and "numpy" not in sys.modules
"""
    _fresh_python(code, tmp_path)


def test_cli_loads_neither_dataclasses_nor_json(tmp_path):
    """`import eur.cli` and `import eur.oracle` load none of the heavy
    standard modules, and only a --json command loads json.  -S keeps
    site-packages hooks from loading any of them first."""
    code = """
import contextlib, io, sys
HEAVY = {"dataclasses", "inspect", "ast", "dis", "json"}
assert not HEAVY & set(sys.modules)

def added(step):
    before = set(sys.modules)
    step()
    return HEAVY & (set(sys.modules) - before)

def run(*argv):
    from eur import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(list(argv)) == 0

assert added(lambda: __import__("eur.cli")) == set()
assert added(lambda: __import__("eur.oracle")) == set()
for argv in (["eval", "--c", "0.8"], ["constants"], ["critique", "--c", "0.6"]):
    run(*argv)
    assert "json" not in sys.modules, argv
assert added(lambda: run("eval", "--c", "0.8", "--json")) == {"json"}
"""
    _fresh_python(code, tmp_path, "-S")


# the name tuples of perfbench/trace_run.py, and the eur module each names
_TRACED_GROUPS = {
    "SOLVE_SPANS": "solve",
    "ORACLE_SPANS": "oracle",
    "CLI_CORE_SPANS": "core",
    "CORE_NS": "core",
    "SOLVE_OWN_COUNTERS": "solve",
}


def test_traced_names_exist():
    """perfbench/trace_run.py's traced() skips any name a module no longer
    has, so a rename would drop a per-layer metric and fail nothing; and
    micro() and traced() read some names directly, as `solve.c_star`, so a
    rename would end every traced run with an AttributeError.  Every name of
    the traced groups, every `patch(<module>, "<name>", ...)` and every
    `<module>.<name>` read on cli, core, oracle or solve must exist.  The file
    is read with ast, never imported."""
    tree = ast.parse((ROOT / "perfbench" / "trace_run.py").read_text())
    groups = {
        target.id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name) and target.id in _TRACED_GROUPS
    }
    assert set(groups) == set(_TRACED_GROUPS)
    modules = {"cli": cli, "core": core, "oracle": oracle, "solve": solve}
    names = {(_TRACED_GROUPS[group], name) for group, group_names in groups.items() for name in group_names}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add((node.value.id, node.attr))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "patch":
            module, attr = node.args[:2]
            if isinstance(module, ast.Name) and module.id in modules and isinstance(attr, ast.Constant):
                names.add((module.id, attr.value))
    missing = sorted(f"{module}.{name}" for module, name in names if not hasattr(modules[module], name))
    assert missing == []
    # the H1 time of the trace reads the region tag of each traced b_vs report
    assert solve.b_vs(0.8).region.tag is solve.RegionTag.H1


def test_every_public_oracle_runs_in_a_suite():
    """Every function in oracle.__all__ is called by a verify suite, as
    oracle.<name> in src/eur/cli.py: an oracle that no suite runs checks
    nothing that the CLI reports.  The file is read with ast."""
    tree = ast.parse((ROOT / "src" / "eur" / "cli.py").read_text())
    referenced = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "oracle"
    }
    functions = [name for name in oracle.__all__ if inspect.isfunction(getattr(oracle, name))]
    assert functions
    assert sorted(set(functions) - referenced) == []


def test_the_oracle_layer_is_region_free():
    """src/eur/oracle.py, read with ast, names neither RegionTag nor
    classify_region and reads no .region or .tag attribute: the oracles
    measure against b_vs in every region, and what each region must show is
    the verify suites' to judge."""
    tree = ast.parse((ROOT / "src" / "eur" / "oracle.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Attribute):
            names.update((node.attr, "." + node.attr))
    assert sorted(names & {"RegionTag", "classify_region", ".region", ".tag"}) == []


# each record's fields, in the order that positional construction and unpacking rely on
_RECORD_FIELDS = {
    eur.AdmissibleInterval: ("lo", "hi"),
    eur.RootResult: ("root", "bracket", "residual", "iterations"),
    eur.Region: ("tag",),
    eur.BoundReport: ("c", "nats", "region", "witness"),
    eur.CritiqueRoot: ("alpha", "p_a", "p_b", "residual", "admissible", "violated_constraint"),
    eur.CritiqueReport: ("c", "theta", "interval", "roots"),
    oracle.OracleReport: ("c", "oracle_min", "analytic_ref", "gap", "argmin", "resolution"),
    oracle.RandomStateSummary: ("dim", "samples", "seed", "min_margin", "argmin_index", "argmin_overlap"),
    oracle.ShapeSummary: (
        "c",
        "n_steps_not_falling",
        "n_sign_changes",
        "n_zero_offset",
        "k_steps_not_rising",
        "k_steps_not_falling",
        "k_endpoint_gap",
        "e1_sign_changes",
        "m1_step_below",
        "m1_step_above",
    ),
    cli.Check: ("suite", "passed", "text"),
}


@pytest.mark.parametrize("record", _RECORD_FIELDS, ids=lambda record: record.__name__)
def test_records_are_immutable_named_tuples(record):
    fields = _RECORD_FIELDS[record]
    assert issubclass(record, tuple)
    assert record._fields == fields
    value = record._make(range(len(fields)))
    assert value == tuple(range(len(fields)))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_readme_shows_the_bound_report_repr():
    block = README.split("## Library", 1)[1].split("```")[1]
    lines = block.split("report = b_vs(0.8)", 1)[1].splitlines()
    comment = [lines[0]] + list(itertools.takewhile(lambda line: line.lstrip().startswith("#   "), lines[1:]))
    assert " ".join(line.split("#", 1)[1].strip() for line in comment) == repr(eur.b_vs(0.8))


def _special_floats():
    out = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1e-300, 1e-160, 1e-13, 0.5, 2.0]
    out += [1e155, 1e308, sys.float_info.max]
    for x in (eur.INV_SQRT2, eur.c_star().root, 1.0):
        out += [math.nextafter(x, 0.0), x, math.nextafter(x, 2.0)]
    return out


def _non_finite_floats(value):
    """Every float inside value, a record (a named tuple) of nested tuples
    and lists, that is not finite."""
    if isinstance(value, float):
        return [] if math.isfinite(value) else [value]
    if isinstance(value, (tuple, list)):
        return [x for v in value for x in _non_finite_floats(v)]
    return []


# the two -inf returns that the exception contract does not yet cover
_DOCUMENTED_INF = {
    "k_max_value": lambda c: c == 1.0,
    "k_endpoint_value": lambda c: abs(c - eur.INV_SQRT2) < 1e-8,
}


# every public function of eur and eur.oracle that takes floats
_PUBLIC_FUNCTIONS = {
    name: fn
    for module in (eur, oracle)
    for name in module.__all__
    if inspect.isfunction(fn := getattr(module, name))
    and name not in {"find_root", "random_state_check"}
}


# the functions whose value is an entropy, which is never -0.0; b_vs's is the
# nats field of its report.  nats_to_bits, which maps its input, and the
# oracles are left out.
_ENTROPIES = {
    "b_mu", "f_bound", "g_bound", "h_min", "binary_entropy", "lattice_bound", "m_inf", "m1_objective",
    "h1_bound", "b_vs",
}


def _arity(fn):
    return sum(p.default is p.empty for p in inspect.signature(fn).parameters.values())


def _contract_breach(name, args):
    """None when the function returns finite floats (in every field of a
    returned record), an entropy among them never -0.0, or raises an
    EurError, else what it did instead."""
    try:
        value = _PUBLIC_FUNCTIONS[name](*args)
    except eur.EurError:
        return None
    except Exception as exc:
        return repr(exc)
    non_finite = _non_finite_floats(value)
    allowed = name in _DOCUMENTED_INF and _DOCUMENTED_INF[name](*args)
    if non_finite and not (allowed and non_finite == [-math.inf]):
        return value
    if name in _ENTROPIES:
        entropy = value.nats if name == "b_vs" else value
        if entropy == 0.0 and math.copysign(1.0, entropy) < 0.0:
            return value
    return None


def test_non_finite_floats_visits_record_fields():
    region = eur.classify_region(0.8)
    [nan] = _non_finite_floats(eur.BoundReport(0.8, math.nan, region, (0.5, 0.5)))
    assert math.isnan(nan)
    assert _non_finite_floats(eur.BoundReport(0.8, 0.5, region, (0.5, math.inf))) == [math.inf]


def test_special_floats_give_finite_values_or_eur_errors():
    """Every public function, on every combination of special floats for its
    required arguments, honours the float contract."""
    assert _ENTROPIES <= set(_PUBLIC_FUNCTIONS)
    floats = _special_floats()
    bad, calls = [], 0
    for name, fn in _PUBLIC_FUNCTIONS.items():
        for args in itertools.product(floats, repeat=_arity(fn)):
            calls += 1
            if (breach := _contract_breach(name, args)) is not None:
                bad.append((name, args, breach))
    assert calls > 4000
    assert bad == []


# examples per function: Hypothesis spends about 1.3 ms on each, so 70
# keeps the whole test near 3 s, and the oracles that take tens of
# milliseconds on an in-domain overlap get fewer
_SLOW_EXAMPLES = {
    "critique_report": 20,
    "eqsin_roots": 20,
    "grid_min": 20,
    "qubit_min": 20,
    "shape_check": 10,
}


@pytest.mark.parametrize("name", sorted(_PUBLIC_FUNCTIONS))
def test_any_floats_give_finite_values_or_eur_errors(name):
    """The float contract on drawn arguments: any float, over the full
    range, or one of the special floats."""
    floats = st.floats() | st.sampled_from(_special_floats())

    @settings(
        derandomize=True, database=None, deadline=None, max_examples=_SLOW_EXAMPLES.get(name, 70)
    )
    @given(st.tuples(*[floats] * _arity(_PUBLIC_FUNCTIONS[name])))
    def check(args):
        assert _contract_breach(name, args) is None

    check()


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README, re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
