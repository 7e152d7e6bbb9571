"""Names other code looks up by string: the package's __all__ and the bench tracer's targets.

A function removed or renamed in the package would otherwise only show
up as a LookupError in a traced benchmark run, and one moved off the
traced path as a span the traced run never enters.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import weillab

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "bench" / "tracer.py"
WORKER_PATH = ROOT / "bench" / "worker.py"


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


def _run_worker(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, str(WORKER_PATH), *args], env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_traced_cli_run_enters_every_required_span(tmp_path):
    out = tmp_path / "trace.json"
    _run_worker(
        "cli", str(out), "--",
        "enumerate", "--q-min", "2", "--q-max", "50", "--format", "csv", "--output", str(tmp_path / "out.csv"),
        "--jobs", "1",
    )
    assert _load_tracer().unentered(json.loads(out.read_text()), "cli") == []


def test_traced_stream_run_enters_every_required_span(tmp_path):
    requests = [
        {"kind": "make", "q": 7, "a": 0, "b": -13, "pr": [7, 1], "class_kind": "PirrB"},
        {"kind": "label", "q": 8, "a": 1, "b": -7, "pr": [2, 3], "class_kind": "PirrA", "label": "2.8.b_ah"},
        {"kind": "decode", "q": 7, "a": 0, "b": -13, "pr": [7, 1], "label": "2.7.a_an"},
        {"kind": "bounds", "q": 8, "b": -7, "lo": 0, "hi": 18},
    ]
    requests_path = tmp_path / "requests.jsonl"
    requests_path.write_text("".join(json.dumps(request) + "\n" for request in requests))
    out = tmp_path / "summary.json"
    _run_worker("stream", str(requests_path), str(out), "--trace")
    summary = json.loads(out.read_text())
    assert (summary["attempted"], summary["failed"]) == (4, 0), summary["failures"]
    assert _load_tracer().unentered(summary["trace"], "stream") == []


def test_prime_power_decomposition_keeps_its_cache_statistics():
    # the benchmark reports the hit ratio of this cache
    info = weillab.core.prime_power_decomposition.cache_info()
    assert info.hits >= 0 and info.misses >= 0
