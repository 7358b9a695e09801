"""The package's public names: listed once, each one importable."""

import eur


def test_all_is_unique_and_resolves():
    assert len(eur.__all__) == len(set(eur.__all__))
    assert [name for name in eur.__all__ if not hasattr(eur, name)] == []
