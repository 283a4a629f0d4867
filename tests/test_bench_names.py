"""The names the benchmark reads from the package, and the names the
package exports, still exist.

perfbench/layers.py skips a traced layer the package no longer has, counts
a layer's items only when it is a generator function, and a cache metric of
BENCHMARK.json needs a public lru_cache of that name; a renamed or deleted
function would otherwise turn into a silently missing metric.  These tests
only read those files.
"""

import importlib
import importlib.util
import inspect
import json
import pkgutil
from pathlib import Path

import lgmult

ROOT = Path(__file__).resolve().parent.parent


def _bench_layers():
    spec = importlib.util.spec_from_file_location("bench_layers", ROOT / "perfbench" / "layers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_modules():
    return {
        info.name: importlib.import_module(f"lgmult.{info.name}")
        for info in pkgutil.iter_modules(lgmult.__path__)
        if info.name != "__main__"
    }


def test_every_traced_layer_is_a_package_function():
    modules = _package_modules()
    for layer in _bench_layers().LAYERS:
        mod_name, fn_name = layer.split(".")
        assert callable(getattr(modules.get(mod_name), fn_name, None)), layer


def test_every_item_counted_layer_is_a_generator_function():
    modules = _package_modules()
    layers = _bench_layers().ITEM_COUNTERS
    assert layers
    for layer in layers:
        mod_name, fn_name = layer.split(".")
        assert inspect.isgeneratorfunction(getattr(modules[mod_name], fn_name)), layer


def test_every_cache_metric_names_a_public_lru_cache():
    _package_modules()
    caches = _bench_layers().public_caches()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    wanted = [n.split(".")[1] for n in names if n.startswith("cache.") and n.endswith(".currsize")]
    assert wanted
    for name in wanted:
        assert name in caches and hasattr(caches[name], "cache_info"), name


def test_every_export_resolves_once():
    assert len(lgmult.__all__) == len(set(lgmult.__all__))
    for name in lgmult.__all__:
        assert hasattr(lgmult, name), name
