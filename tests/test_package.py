"""The public surface: every exported name exists."""

import infinitebin


def test_every_exported_name_resolves():
    assert len(set(infinitebin.__all__)) == len(infinitebin.__all__)
    for name in infinitebin.__all__:
        assert hasattr(infinitebin, name), name
    namespace: dict = {}
    exec("from infinitebin import *", namespace)
    assert set(infinitebin.__all__) <= namespace.keys()
