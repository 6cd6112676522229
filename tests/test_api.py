"""The package's public surface."""

import strassen7


def test_every_export_resolves_once():
    names = strassen7.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(strassen7, name)]
    assert missing == []
