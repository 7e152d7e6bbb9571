"""Names other code looks up by string: the package's __all__ and the bench tracer's targets.

A function removed or renamed in the package would otherwise only show
up as a LookupError in a traced benchmark run, and one moved off the
traced path as a span the traced run never enters.

``import weillab`` loads ``core`` and ``classify`` and resolves the other
names on first use, so the tests of that lazy resolution run in a fresh
interpreter, where no other test has loaded a submodule yet.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weillab

ROOT = Path(__file__).resolve().parent.parent
TRACER_PATH = ROOT / "bench" / "tracer.py"
WORKER_PATH = ROOT / "bench" / "worker.py"
# the submodules that define the names of __all__, and those loaded on first use
DEFINING = ("bounds", "classify", "core", "records", "two_adic", "verdict")
LAZY_SUBMODULES = ("records", "bounds", "two_adic", "verdict", "cli")


def _fresh(code: str):
    """The value that code leaves in ``result``, run where no weillab module is loaded yet.

    The interpreter runs with -S, so no site module loads anything first,
    and imports weillab from the checkout's src; result goes back as JSON.
    """
    script = f"import json, sys\nsys.path.insert(0, {str(ROOT / 'src')!r})\n{code}\nprint(json.dumps(result))"
    completed = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


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


def test_importing_the_package_loads_only_core_and_classify():
    assert _fresh("import weillab\nresult = sorted(name for name in sys.modules if name.startswith('weillab'))") == [
        "weillab",
        "weillab.classify",
        "weillab.core",
    ]


def test_each_public_name_is_the_object_its_defining_submodule_holds():
    # every name is resolved through the package before the test imports a submodule itself;
    # a submodule that binds the name binds that very object, and a class or function's
    # own module is among them
    mismatched = _fresh(
        f"""
import importlib, weillab
resolved = {{name: getattr(weillab, name) for name in weillab.__all__}}
modules = [importlib.import_module("weillab." + name) for name in {DEFINING!r}]
result = []
for name, value in resolved.items():
    holders = [module.__name__ for module in modules if name in vars(module)]
    if not holders or any(vars(sys.modules[holder])[name] is not value for holder in holders):
        result.append(name)
    elif callable(value) and value.__module__ not in holders:
        result.append(name)
"""
    )
    assert mismatched == []


def test_classify_stays_the_function_after_every_submodule_is_imported():
    # importing a submodule binds it on the package; the classify function must keep its name
    result = _fresh(
        f"""
import importlib, weillab
for name in {(*DEFINING, "cli")!r}:
    importlib.import_module("weillab." + name)
import weillab.classify
result = [callable(weillab.classify), weillab.classify is sys.modules["weillab.classify"].classify]
"""
    )
    assert result == [True, True]
    assert weillab.classify is importlib.import_module("weillab.classify").classify


def test_lazily_loaded_submodules_are_the_modules():
    # bench/worker.py reads weillab.records before its loop and weillab.cli.main in traced mode
    result = _fresh(
        f"""
import weillab
result = [getattr(weillab, name) is sys.modules.get("weillab." + name) for name in {LAZY_SUBMODULES!r}]
result.append(callable(weillab.cli.main))
"""
    )
    assert result == [True] * (len(LAZY_SUBMODULES) + 1)


def test_dir_lists_every_public_name_before_any_is_loaded():
    result = _fresh(
        "import weillab\n"
        "listed = dir(weillab)\n"
        "result = [sorted(set(weillab.__all__) - set(listed)), 'weillab.records' in sys.modules]"
    )
    assert result == [[], False]
    assert set(weillab.__all__) <= set(dir(weillab))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        weillab.no_such_name
    assert not hasattr(weillab, "no_such_name")


def test_star_import_binds_every_public_name_and_the_package_keeps_each():
    # a name resolved once is kept in the package namespace, so later lookups skip __getattr__
    result = _fresh(
        "import weillab\n"
        "namespace = {}\n"
        "exec('from weillab import *', namespace)\n"
        "result = [name for name in weillab.__all__ if namespace.get(name, namespace) is not vars(weillab).get(name)]"
    )
    assert result == []


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
