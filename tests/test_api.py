import importlib

import pytest

import juntalab

MODULES = ["boolfn", "cli", "fourier", "learner", "measure", "russo", "sampling"]

# exported by their module but deliberately left out of the package namespace
MODULE_ONLY = {("russo", "gcd_chain"), ("russo", "poly_gcd"), ("cli", "entry"), ("cli", "main")}


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_reach_the_package(name):
    module = importlib.import_module(f"juntalab.{name}")
    for attr in module.__all__:
        assert hasattr(module, attr), f"juntalab.{name}.__all__ lists missing {attr}"
        if (name, attr) not in MODULE_ONLY:
            assert getattr(juntalab, attr, None) is getattr(module, attr), (
                f"juntalab.{name}.{attr} is not importable from juntalab"
            )
