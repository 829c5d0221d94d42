"""The package's export list and its run-time imports."""

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
