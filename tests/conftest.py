import pathlib
import runpy

import pytest

from geodeduce import parse_construction, parse_rules

ROOT = pathlib.Path(__file__).resolve().parent.parent

# the ladder figures, kept in the tool that compares their reports
_LADDERS = runpy.run_path(str(ROOT / "tools" / "diff_reports.py"))
concyclic_text, feet_text = _LADDERS["concyclic_text"], _LADDERS["feet_text"]


@pytest.fixture(scope="session")
def root():
    return ROOT


@pytest.fixture(scope="session")
def default_rules():
    return parse_rules((ROOT / "rules" / "gddm-default.gr").read_text())


def load_construction(name):
    return parse_construction((ROOT / "examples" / f"{name}.gc").read_text())


@pytest.fixture(scope="session")
def midline():
    return load_construction("midline")


@pytest.fixture(scope="session")
def pappus():
    return load_construction("pappus")


@pytest.fixture(scope="session")
def inscribed():
    return load_construction("inscribed")


BUNDLED = ("midline", "pappus", "inscribed")


@pytest.fixture(scope="session", params=BUNDLED)
def bundled(request):
    return load_construction(request.param)
