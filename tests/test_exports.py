"""Every name a ``stickyalign`` module lists in ``__all__`` resolves, so a
deleted helper cannot linger in the exports."""

import importlib
import pkgutil

import pytest

import stickyalign

MODULES = sorted(m.name for m in pkgutil.iter_modules(stickyalign.__path__))


def test_every_module_is_found():
    assert {"dynamics", "monotone", "ensemble", "kernels"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"stickyalign.{name}")
    exported = getattr(module, "__all__", ())
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
