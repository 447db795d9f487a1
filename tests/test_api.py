import importlib
import importlib.util
from pathlib import Path

import pytest

import juntalab

MODULES = ["boolfn", "cli", "fourier", "learner", "measure", "russo", "sampling"]

# exported by their module but deliberately left out of the package namespace
MODULE_ONLY = {("russo", "poly_gcd"), ("cli", "entry"), ("cli", "main")}

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_reach_the_package(name):
    module = importlib.import_module(f"juntalab.{name}")
    for attr in module.__all__:
        assert hasattr(module, attr), f"juntalab.{name}.__all__ lists missing {attr}"
        if (name, attr) not in MODULE_ONLY:
            assert getattr(juntalab, attr, None) is getattr(module, attr), (
                f"juntalab.{name}.{attr} is not importable from juntalab"
            )


def test_benchmark_tracer_targets_stay_bound():
    # the benchmark's tracer rebinds each target through owner.__dict__, so a
    # name it wraps must stay bound in that module or class, even when the
    # module itself no longer calls it
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for owner, attr, *_ in tracing.TARGETS:
        assert attr in vars(owner), f"{owner.__name__}.{attr} is traced but not bound"
