"""Names other code looks up by string: the package's __all__ and the bench tracer's targets.

A function removed or renamed in the package would otherwise only show
up as a LookupError in a traced benchmark run.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import weillab

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _load_tracer():
    # bench/tracer.py imports only the standard library at module level
    spec = importlib.util.spec_from_file_location("weillab_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_name_resolves():
    missing = [name for name in weillab.__all__ if not hasattr(weillab, name)]
    assert missing == []
    assert len(set(weillab.__all__)) == len(weillab.__all__)


def test_every_bench_trace_target_exists():
    tracer = _load_tracer()
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr in tracer.TARGETS.values()
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


def test_prime_power_decomposition_keeps_its_cache_statistics():
    # the benchmark reports the hit ratio of this cache
    info = weillab.core.prime_power_decomposition.cache_info()
    assert info.hits >= 0 and info.misses >= 0
