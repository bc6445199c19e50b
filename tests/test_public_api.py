"""Every name a ``repro`` package exports in ``__all__`` resolves."""

import importlib
import pkgutil

import pytest

import repro


def _packages():
    names = [repro.__name__]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            names.append(info.name)
    return names


@pytest.mark.parametrize("package", _packages())
def test_every_export_resolves(package):
    module = importlib.import_module(package)
    exports = getattr(module, "__all__", ())
    missing = [name for name in exports if not hasattr(module, name)]
    assert not missing, f"{package}.__all__ names missing attributes: {missing}"
