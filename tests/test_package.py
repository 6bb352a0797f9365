from types import ModuleType

import diii_clans


def test_public_names_resolve_and_are_not_modules():
    assert len(set(diii_clans.__all__)) == len(diii_clans.__all__)
    for name in diii_clans.__all__:
        assert not isinstance(getattr(diii_clans, name), ModuleType), name


def test_star_import_exports_exactly_all():
    namespace: dict = {}
    exec("from diii_clans import *", namespace)
    namespace.pop("__builtins__")
    assert set(namespace) == set(diii_clans.__all__)
