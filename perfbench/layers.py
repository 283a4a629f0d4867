"""Per-layer tracing of lgmult from outside the program.

The tracer replaces each public function named in LAYERS, at every
attribute of an ``lgmult`` module that holds it (the defining module and
every importer, such as ``verify.char_poly``), with a wrapper that records
a span: layer id, nesting depth, start and end in nanoseconds.  A nested
traced call is a child span, and a layer's self time is its spans' total
duration minus the time their child spans cover.  Generator functions get
one span per item drawn, since their work happens at ``next()``.

Spans are kept in memory (up to MAX_SPANS) and written out at the end.  A
layer the program no longer has is skipped, so it yields a missing metric
rather than a crashed run.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable

PACKAGE = "lgmult"

LAYERS = (
    "enumeration.enumerate_connected",
    "linegraph.line_graph",
    "spectra.char_poly",
    "spectra.eig_classes",
    "spectra.trig_min_poly",
    "spectra.multiplicity_in_poly",
    "spectra.annihilator_dimension",
    "spectra.numeric_spectrum",
    "spectra.numeric_multiplicity",
    "intpoly.div_exact",
    "certify.optimal_certificate",
    "certify.pendant_cycle_decompose",
    "families.realize",
    "verify.check_graph",
)

# Spans past this many are counted but not stored: 2M spans take 64 MB.
MAX_SPANS = 2_000_000

SPAN_FIELDS = ("layer", "depth", "start_ns", "end_ns")


def _is_optimal(cert: Any) -> bool:
    return type(cert).__name__ != "NotOptimal"


def _root_order(a: int, b: int) -> int:
    """Order of exp(i*pi*a/b), the only thing 2cos(a*pi/b)'s minimal
    polynomial depends on."""
    return 2 * b if a % 2 else b


# Counters on a layer's results: layer -> (counter suffix, predicate).
RESULT_COUNTERS: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "spectra.multiplicity_in_poly": ("nonzero", lambda r: r != 0),
    "certify.optimal_certificate": ("optimal", _is_optimal),
    "spectra.annihilator_dimension": ("zero", lambda r: r == 0),
    "spectra.numeric_multiplicity": ("abstained", lambda r: r is None),
}

# Counters on a layer's exceptions and on a generator layer's items.
FAILURE_COUNTERS = {"intpoly.div_exact": "intpoly.div_exact.failed"}
ITEM_COUNTERS = {"enumeration.enumerate_connected": "enumeration.graphs"}

# Useful-to-attempted ratios: metric -> (numerator, denominator).
RATIOS = {
    "spectra.multiplicity_in_poly.nonzero_share": (
        "spectra.multiplicity_in_poly.nonzero",
        "spectra.multiplicity_in_poly.calls",
    ),
    "certify.optimal_certificate.optimal_share": (
        "certify.optimal_certificate.optimal",
        "certify.optimal_certificate.calls",
    ),
    "spectra.trig_min_poly.distinct_orders_share": (
        "spectra.trig_min_poly.distinct_orders",
        "spectra.trig_min_poly.calls",
    ),
    "spectra.trig_min_poly.distinct_orders_per_build": (
        "spectra.trig_min_poly.distinct_orders",
        "spectra.trig_min_poly.builds",
    ),
}


def _package_modules() -> list[Any]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def public_caches() -> dict[str, Any]:
    """Every public ``lru_cache``d function of the package, by name."""
    found: dict[str, Any] = {}
    for mod in _package_modules():
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and hasattr(obj, "cache_info")
                and getattr(obj, "__module__", None) == mod.__name__
            ):
                found[name] = obj
    return found


class Tracer:
    """Wraps the layers on install() and restores them on uninstall()."""

    def __init__(self, layers: tuple[str, ...] = LAYERS) -> None:
        self.layers: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.counters: dict[str, int] = {}
        self.spans = array("q")
        self.spans_dropped = 0
        self._requested = layers
        self._stack: list[list[int]] = []
        self._orders: set[int] = set()
        self._patches: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        modules = _package_modules()
        for layer in self._requested:
            mod_name, fn_name = layer.split(".")
            mod = sys.modules.get(f"{PACKAGE}.{mod_name}")
            fn = getattr(mod, fn_name, None) if mod is not None else None
            if not callable(fn):
                continue
            wrapper = self._wrap(layer, fn)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._patches.append((m, attr, value))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def _count(self, name: str) -> None:
        self.counters[name] = self.counters.get(name, 0) + 1

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        lid = len(self.layers)
        self.layers.append(layer)
        self.calls.append(0)
        self.self_ns.append(0)
        calls, self_ns, stack, spans = self.calls, self.self_ns, self._stack, self.spans
        clock = time.perf_counter_ns
        tracer = self
        span_cap = 4 * MAX_SPANS

        def close(frame: list[int], start: int) -> None:
            end = clock()
            stack.pop()
            dur = end - start
            calls[lid] += 1
            self_ns[lid] += dur - frame[0]
            if stack:
                stack[-1][0] += dur
            if len(spans) < span_cap:
                spans.extend((lid, len(stack), start, end))
            else:
                tracer.spans_dropped += 1

        if inspect.isgeneratorfunction(fn):
            items = ITEM_COUNTERS.get(layer, f"{layer}.items")
            self.counters[items] = 0

            def traced_gen(*args: Any, **kwargs: Any) -> Any:
                it = fn(*args, **kwargs)
                while True:
                    frame = [0]
                    stack.append(frame)
                    start = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(frame, start)
                    tracer._count(items)
                    yield item

            return traced_gen

        counter = RESULT_COUNTERS.get(layer)
        if counter is not None:
            counter_name = f"{layer}.{counter[0]}"
            self.counters[counter_name] = 0
        failed_name = FAILURE_COUNTERS.get(layer)
        if failed_name:
            self.counters[failed_name] = 0
        orders = self._orders if layer == "spectra.trig_min_poly" else None

        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                if failed_name:
                    tracer._count(failed_name)
                raise
            finally:
                close(frame, start)
            if counter is not None and counter[1](result):
                tracer._count(counter_name)
            if orders is not None:
                orders.add(_root_order(*args))
            return result

        for attr in ("__module__", "__name__", "__qualname__", "__doc__", "__wrapped__"):
            setattr(traced, attr, getattr(fn, attr, None))
        if hasattr(fn, "cache_info"):
            traced.cache_info = fn.cache_info
            traced.cache_clear = fn.cache_clear
        return traced

    def metrics(self) -> dict[str, float]:
        """Per-layer calls and self seconds, counters, ratios and cache
        sizes, read after uninstall()."""
        out: dict[str, float] = {}
        for lid, layer in enumerate(self.layers):
            out[f"{layer}.calls"] = self.calls[lid]
            out[f"{layer}.self_s"] = self.self_ns[lid] / 1e9
        out.update(self.counters)
        if "spectra.trig_min_poly" in self.layers:
            out["spectra.trig_min_poly.distinct_orders"] = len(self._orders)
        caches = public_caches()
        if "trig_min_poly" in caches:
            out["spectra.trig_min_poly.builds"] = caches["trig_min_poly"].cache_info().misses
        for name, fn in sorted(caches.items()):
            out[f"cache.{name}.currsize"] = fn.cache_info().currsize
        for ratio, (num, den) in RATIOS.items():
            if num in out and den in out:
                out[ratio] = out[num] / out[den] if out[den] else 0.0
        out["trace.spans"] = len(self.spans) // 4 + self.spans_dropped
        return out

    def write(self, stem: Path) -> None:
        """Write the spans to ``stem``.spans (native int64, SPAN_FIELDS per
        span) and a JSON header naming the layer ids."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        with open(stem.with_suffix(".spans"), "wb") as fh:
            self.spans.tofile(fh)
        header = {
            "fields": SPAN_FIELDS,
            "layers": self.layers,
            "spans": len(self.spans) // 4,
            "dropped": self.spans_dropped,
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=2) + "\n")
