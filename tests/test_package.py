"""The package namespace: every exported name resolves and is listed once."""

import markovmix


def test_all_names_exist_once():
    names = markovmix.__all__
    assert sorted(n for n in set(names) if names.count(n) > 1) == []
    assert [n for n in names if not hasattr(markovmix, n)] == []
