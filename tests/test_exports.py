import importlib
import pkgutil

import pytest

import kinetic_em

MODULES = ["kinetic_em"] + sorted(
    info.name for info in pkgutil.walk_packages(kinetic_em.__path__, "kinetic_em.")
)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    exported = getattr(mod, "__all__", ())
    assert len(set(exported)) == len(exported)
    missing = [name for name in exported if not hasattr(mod, name)]
    assert missing == []
