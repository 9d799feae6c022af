"""The lazy package namespace: every public name is its submodule's object."""

import sys

import pytest

import fdprofiles
import fdprofiles.integrate


def test_every_public_name_is_its_submodules_object():
    for name in fdprofiles.__all__[1:]:
        obj = getattr(fdprofiles, name)
        assert obj.__module__.startswith("fdprofiles.") and getattr(sys.modules[obj.__module__], name) is obj
    assert fdprofiles.__all__[0] == "__version__" and len(set(fdprofiles.__all__)) == len(fdprofiles.__all__)
    assert dir(fdprofiles) == sorted(fdprofiles.__all__)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from fdprofiles import *", namespace)
    assert all(namespace[name] is getattr(fdprofiles, name) for name in fdprofiles.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fdprofiles.no_such_name  # noqa: B018
    assert not hasattr(fdprofiles, "eternal_alpha")


def test_a_patched_submodule_attribute_is_what_the_package_serves(monkeypatch):
    # the package stores no resolved value, so a wrapper never outlives its patch
    original = fdprofiles.solve_profile
    patched = object()
    monkeypatch.setattr(fdprofiles.integrate, "solve_profile", patched)
    assert fdprofiles.solve_profile is patched
    monkeypatch.undo()
    assert fdprofiles.solve_profile is original
    assert "solve_profile" not in vars(fdprofiles)
