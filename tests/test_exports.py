"""Every name a package exports through ``__all__`` resolves."""

import importlib

import pytest

PACKAGES = ["multires", "multires.model", "multires.embedding", "multires.numerics"]


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
