import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def bench_inputs():
    """bench/inputs.py, loaded by path (the benchmark directory is no package)."""
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]
