"""The package's export list."""

import geodeduce


def test_every_exported_name_resolves():
    assert [n for n in geodeduce.__all__ if not hasattr(geodeduce, n)] == []
    assert len(set(geodeduce.__all__)) == len(geodeduce.__all__)
