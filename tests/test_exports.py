import importlib
import pkgutil

import pytest

import tripsmith

PACKAGES = sorted(
    name for _, name, is_pkg in pkgutil.walk_packages(tripsmith.__path__, "tripsmith.")
    if is_pkg
)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    exported = getattr(module, "__all__", None)
    assert exported, f"{package} declares no __all__"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
    assert len(set(exported)) == len(exported)
