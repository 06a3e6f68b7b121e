"""The public names of the package, which load their modules on first use."""

from __future__ import annotations

import importlib

import pytest

import idealforms


def test_every_public_name_is_its_defining_object():
    for name in idealforms.__all__:
        module = importlib.import_module(f"idealforms.{idealforms._MODULE_OF[name]}")
        obj = getattr(idealforms, name)
        assert obj is getattr(module, name), name
        defined_in = getattr(obj, "__module__", None)
        if defined_in and defined_in.startswith("idealforms."):
            assert defined_in == module.__name__, name


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from idealforms import *", namespace)
    assert set(idealforms.__all__) <= set(namespace)
    assert set(idealforms.__all__) <= set(dir(idealforms))
    assert idealforms.__all__ == sorted(set(idealforms.__all__))


def test_unknown_names_raise():
    with pytest.raises(AttributeError, match="no_such_name"):
        idealforms.no_such_name
    with pytest.raises(ImportError):
        from idealforms import no_such_name  # noqa: F401
