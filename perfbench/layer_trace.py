"""Layer tracer for cubicchow, installed from outside the package.

It wraps the public functions of each traced module, the arithmetic methods
of ``WPoly`` and of the diagonal models, and every registered check in an
aggregated span (calls, total time, self time), counts work sizes at the
layer boundaries, and reads ``cache_info()`` of every ``lru_cache`` in the
package.  Nothing under ``src/`` is modified.

Run as a script it traces one ``verify`` invocation in the current process
and writes the collected statistics as JSON::

    PYTHONPATH=src python3 perfbench/layer_trace.py STATS.json \
        --n-min 1 --n-max 4 --format json --out report.json
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import json
import sys
import time

PACKAGE = "cubicchow"
MODULES = ("wpoly", "linalg", "grassmann", "fano", "hodge", "diagonal", "checks", "cli")


class Tracer:
    """Aggregated spans keyed by name; a span's self time excludes its child spans."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # open spans: [name, time spent in child spans]

    def count(self, name: str, value: int) -> None:
        self.counters[name] += value

    def count_max(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters[name], value)

    def wrap(self, name, fn, measure=None, cache=None):
        """Return ``fn`` wrapped in span ``name``.

        ``measure(tracer, args, result)`` records work sizes after each call;
        for a cached function (``cache`` set) it runs only on a cache miss.
        A call made while the same span is already innermost (recursion, or
        ``a - b`` delegating to ``a + (-b)``) is folded into that span.
        """
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        cache = cache if measure is not None else None
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            misses = cache.cache_info().misses if cache is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[1]
            if measure is not None and (cache is None or cache.cache_info().misses != misses):
                measure(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def _rref_size(tracer, args, result):
    rows = args[0]
    cells = len(rows) * len(rows[0]) if rows else 0
    tracer.count("linalg.rref.cells", cells)
    tracer.count_max("linalg.rref.max_cells", cells)


def _schubert_pairs(tracer, args, result):
    tracer.count("grassmann.schubert_mul.term_pairs", len(args[1]) * len(args[2]))


def _pairing_cells(tracer, args, result):
    tracer.count("fano.fano_pairing.cells", result.matrix.rows * result.matrix.cols)


def _product_pairs(tracer, args, result):
    tracer.count("diagonal.product.term_pairs", len(args[0].terms) * len(args[1].terms))


# span name -> (counters it owns, function recording them)
MEASURES = {
    "linalg.rref": (("cells", "max_cells"), _rref_size),
    "grassmann.schubert_mul": (("term_pairs",), _schubert_pairs),
    "fano.fano_pairing": (("cells",), _pairing_cells),
    "diagonal.product": (("term_pairs",), _product_pairs),
}

# Pieri steps are leaves called about 1.6 million times by schubert_mul in a
# single_n24 run; a span each would add about a third to the run and charge
# that overhead to schubert_mul's self time, so they stay inside its span.
UNTRACED = {"grassmann.pieri_mul", "grassmann.pieri_mul11"}

# span name -> (module, class, method names); each method object gets its own wrapper
METHODS = {
    "wpoly.mul": ("wpoly", "WPoly", ("__mul__", "__rmul__")),
    "wpoly.add": ("wpoly", "WPoly", ("__add__", "__radd__", "__sub__", "__rsub__")),
    "diagonal.product": ("diagonal", "_FormalSum", ("__mul__",)),
}


def package_modules() -> list:
    """The package and every one of its submodules, the traced ones imported first."""
    for short in MODULES:
        importlib.import_module(f"{PACKAGE}.{short}")
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def _namespaces(mod):
    """(label, dict) for a module and for each class it defines."""
    yield mod.__name__, vars(mod)
    for obj in list(vars(mod).values()):
        if inspect.isclass(obj) and obj.__module__ == mod.__name__:
            yield f"{mod.__name__}.{obj.__qualname__}", vars(obj)


def discover_caches(modules) -> dict:
    """Every object with ``cache_info`` bound in a module or class namespace."""
    found = {}
    for mod in modules:
        for _, namespace in _namespaces(mod):
            for obj in namespace.values():
                if callable(getattr(obj, "cache_info", None)):
                    inner = inspect.unwrap(obj)
                    short = inner.__module__.rsplit(".", 1)[-1]
                    found[f"{short}.{inner.__qualname__}"] = obj
    return dict(sorted(found.items()))


def _public_functions(mod):
    """Public module-level functions defined in ``mod`` (cached ones included)."""
    for attr, obj in vars(mod).items():
        if attr.startswith("_") or inspect.isclass(obj) or not callable(obj):
            continue
        if getattr(inspect.unwrap(obj), "__module__", None) == mod.__name__:
            yield attr, obj


class Installation:
    """The wrappers installed into the package and the caches found in it."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        modules = package_modules()
        self.caches = discover_caches(modules)
        self.bound: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, fn in list(_public_functions(mod)):
                if f"{short}.{attr}" in UNTRACED:
                    continue
                cache = fn if callable(getattr(fn, "cache_info", None)) else None
                self._wrap(f"{short}.{attr}", fn, cache)
        # Rebind in every module, so that ``grassmann.rref`` and
        # ``fano.build_ring`` are traced as well as ``linalg.rref`` and
        # ``grassmann.build_ring``.
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = self.bound.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for name, (short, cls_name, methods) in METHODS.items():
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            for method in methods:
                fn = vars(cls)[method]
                hit = self.bound.get(id(fn))
                setattr(cls, method, hit[1] if hit and hit[0] is fn else self._wrap(name, fn))
        checks = sys.modules[f"{PACKAGE}.checks"]
        checks.REGISTRY[:] = [
            dataclasses.replace(c, fn=tracer.wrap(f"checks.{c.check_id}", c.fn))
            for c in checks.REGISTRY
        ]
        self.check_fns = {id(c.fn) for c in checks.REGISTRY}

    def _wrap(self, name, fn, cache=None):
        owned, measure = MEASURES.get(name, ((), None))
        for counter in owned:
            self.tracer.counters.setdefault(f"{name}.{counter}", 0)
        wrapper = self.tracer.wrap(name, fn, measure, cache)
        self.bound[id(fn)] = (fn, wrapper)
        return wrapper

    def unpatched(self) -> list[str]:
        """Bindings through which a traced function is still reached unwrapped."""
        missed = [
            f"{label}.{attr}"
            for mod in package_modules()
            for label, namespace in _namespaces(mod)
            for attr, obj in namespace.items()
            if id(obj) in self.bound and self.bound[id(obj)][0] is obj
        ]
        checks = sys.modules[f"{PACKAGE}.checks"]
        missed += [
            f"{PACKAGE}.checks.REGISTRY[{c.check_id}]"
            for c in checks.REGISTRY
            if id(c.fn) not in self.check_fns
        ]
        return sorted(missed)

    def report(self) -> dict:
        return {
            "spans": {
                name: {"calls": calls, "total_s": total, "self_s": self_s}
                for name, (calls, total, self_s) in sorted(self.tracer.spans.items())
            },
            "counters": dict(sorted(self.tracer.counters.items())),
            "caches": {
                name: {"hits": info.hits, "misses": info.misses}
                for name, info in ((name, fn.cache_info()) for name, fn in self.caches.items())
            },
            "unpatched": self.unpatched(),
        }


def main(argv: list[str]) -> int:
    stats_path, verify_args = argv[0], argv[1:]
    installation = Installation(Tracer())
    code = sys.modules[f"{PACKAGE}.cli"].main(verify_args)
    with open(stats_path, "w", encoding="utf-8") as handle:
        json.dump(installation.report(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
