"""In-process span tracer that wraps microloc's public functions.

``Tracer.install()`` replaces every public module-level function and every
public method of the layer modules with a timing wrapper, and rebinds each
name that other microloc modules imported with ``from .x import y`` so that
no call path escapes the wrapper.  Spans are kept in memory; ``summary()``
returns per-span call counts, inclusive seconds and self seconds (inclusive
minus the time covered by directly nested spans).

A function missing from the program (for example one deleted by a later
change) is simply never wrapped, so its metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time

LAYERS = ("metric", "grids", "partition", "backend", "quantize", "moyal",
          "recombine", "parametrix", "radon", "expressions", "cli")

# the CLI entry point encloses every other span; a span around it would
# make the coverage of wall time by layer spans meaningless
UNTRACED = {"cli.main"}

# spans that also record the rise of the process peak RSS inside them
RSS_SPANS = {"quantize.weyl_quantize"}


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.top_level_s = 0.0
        # per open span: [name, child seconds]
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}

    # -- recording -----------------------------------------------------

    def _wrap(self, name: str, func):
        stats = self.stats.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "rss_rise_mb": 0.0})
        stack, depth = self._stack, self._depth
        track_rss = name in RSS_SPANS
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
                if track_rss else 0
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            t0 = clock()
            try:
                return func(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                stats["calls"] += 1
                stats["self_s"] += dt - frame[1]
                if depth[name] == 0:
                    stats["s"] += dt
                if track_rss:
                    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                    stats["rss_rise_mb"] += (rss1 - rss0) / 1024.0
                if stack:
                    stack[-1][1] += dt
                else:
                    self.top_level_s += dt

        return functools.update_wrapper(wrapper, func)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public callables and rebind imported names."""
        import numpy as np

        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"microloc.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or f"{layer}.{attr}" in UNTRACED:
                    continue
                if layer == "backend":
                    # kernels live in _kernels / _kernels_py; take them all
                    if not callable(obj) or inspect.ismodule(obj):
                        continue
                elif not (inspect.isfunction(obj)
                          and obj.__module__ == mod.__name__):
                    if inspect.isclass(obj) and obj.__module__ == mod.__name__:
                        self._wrap_methods(layer, obj)
                    continue
                if id(obj) not in replaced:
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        svd = np.linalg.svd
        replaced[id(svd)] = self._wrap("linalg.svd", svd)
        np.linalg.svd = replaced[id(svd)]

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "microloc"
                                   or mod_name.startswith("microloc.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            name = f"{layer}.{attr}"
            if name in self.stats:
                name = f"{layer}.{cls.__name__}.{attr}"
            setattr(cls, attr, self._wrap(name, obj))

    def summary(self) -> dict:
        return {"spans": self.stats, "top_level_s": self.top_level_s}
