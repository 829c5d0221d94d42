import pathlib

import pytest

from geodeduce import initial_facts, parse_construction, parse_rules

ROOT = pathlib.Path(__file__).resolve().parent.parent


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


def concyclic_text(k):
    """`point O A`, then k - 1 points on the circle centred at O through A."""
    return "point O A\n" + "".join(f"on_circle {p} O A\n" for p in "BCDEFGHIJ"[:k - 1])


def feet_text(k):
    """`point A B`, then k free points Xi, each with its foot Fi on line AB."""
    return "point A B\n" + "".join(f"point X{i}\nfoot F{i} X{i} A B\n"
                                    for i in range(1, k + 1))


@pytest.fixture(scope="session", params=BUNDLED)
def bundled(request):
    return load_construction(request.param)
