"""The package's export list and its run-time imports."""

import ast
import os
import subprocess
import sys

import geodeduce
from conftest import ROOT


def test_every_exported_name_resolves():
    assert [n for n in geodeduce.__all__ if not hasattr(geodeduce, n)] == []
    assert len(set(geodeduce.__all__)) == len(geodeduce.__all__)


def test_runtime_does_not_import_numpy():
    # a fresh interpreter: the test suite itself imports numpy
    code = ("import sys\n"
            "from geodeduce.cli import cli_main\n"
            "assert cli_main(['check', 'examples/pappus.gc', 'coll(G,H,I)',"
            " '--seeds', '100']) == 0\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "coll(G,H,I): holds\n"


def _unused_imports(path):
    """(line, name) for each name the module imports and never reads.
    Scopes are not told apart: a name read anywhere in the module counts."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):  # import a.b binds a
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_no_module_imports_a_name_it_never_uses():
    # __init__.py imports names to re-export them
    files = [p for p in (ROOT / "src" / "geodeduce").glob("*.py") if p.name != "__init__.py"]
    files += [*(ROOT / "tools").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    unused = {p.relative_to(ROOT).as_posix(): _unused_imports(p) for p in sorted(files)}
    assert {p: names for p, names in unused.items() if names} == {}


def test_ladder_times_runs_one_figure(default_rules):
    """tools/ladder_times.py times a figure in a fresh interpreter, in either
    mode, and prints one table row with the report's facts; the timings are
    not checked."""
    from geodeduce import parse_construction
    from geodeduce.pipeline import PipelineConfig, run_pipeline
    from conftest import concyclic_text

    for mode in ("fixpoint", "filtered"):
        out = subprocess.run([sys.executable, str(ROOT / "tools" / "ladder_times.py"),
                              "--repeat", "1", "--mode", mode, "circle4"],
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        header, _, row = out.stdout.splitlines()
        columns = [c.strip() for c in header.strip("|").split("|")]
        cells = dict(zip(columns, (c.strip() for c in row.strip("|").split("|"))))
        assert columns[:6] == ["input", "total", "saturate", "filter", "score", "emit"]
        assert columns[6] == "sample" and float(cells["sample"]) >= 0
        assert cells["input"] == "circle4" and cells["peak RSS"].endswith(" MB")
        report = run_pipeline(parse_construction(concyclic_text(4)), default_rules,
                              PipelineConfig(mode=mode))
        assert cells["facts"] == str(len(report.records))
