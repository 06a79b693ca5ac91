"""The export lists of the package modules name what exists.

Every module of `povmbell` declares `__all__`. Each name listed there must
exist in its module, and the package namespace must re-export exactly the
names its library modules list, so deleting a function without its exports
(or an export without its function) fails here rather than at a user's
`import *`.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import povmbell

MODULES = sorted(info.name for info in pkgutil.iter_modules(povmbell.__path__))
# the command-line front end is reached as `povmbell.cli`; importing the
# library does not load it
FRONT_END = {"cli"}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists_and_is_reexported(name):
    module = importlib.import_module(f"povmbell.{name}")
    exported = module.__all__
    assert len(set(exported)) == len(exported), f"povmbell.{name}.__all__ repeats a name"
    assert [n for n in exported if not hasattr(module, n)] == []
    if name not in FRONT_END:
        assert [n for n in exported if getattr(povmbell, n, None) is not getattr(module, n)] == []


def test_package_reexports_nothing_else():
    listed = set()
    for name in sorted(set(MODULES) - FRONT_END):
        listed.update(importlib.import_module(f"povmbell.{name}").__all__)
    public = {
        name
        for name, value in vars(povmbell).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == listed
