"""The package's public names: each one ``__all__`` lists is there, once."""

import temporaltable


def test_every_public_name_resolves():
    missing = [name for name in temporaltable.__all__ if not hasattr(temporaltable, name)]
    assert missing == []


def test_public_names_are_listed_once():
    names = temporaltable.__all__
    assert sorted(set(names)) == sorted(names)
