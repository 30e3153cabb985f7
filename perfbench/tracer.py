"""Outside-in layer spans for the eprlock benchmark.

The tracer wraps the public functions of the package modules from outside:
each call into a span-wrapped function records a span (name, start, end,
parent span), and each call into a count-only function bumps a counter.
Spans stay in memory until :meth:`Tracer.dump` writes them out. Nothing
inside the package is edited; the wrappers replace module attributes, and
names that one module imported from another (``from .spectra import
two_mode_variance``) are rebound too, so direct calls are seen as well.

Single-threaded by design: the open-span stack assumes calls nest.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter

# Modules whose public functions are wrapped, by layer name. ``spectra``
# is called ~10^5 times per fig4 run from inside the fit, so it gets call
# counters instead of spans.
LAYERS = ("cli", "nopo", "kernels", "locksim", "estimation", "spectra")
COUNT_ONLY = ("spectra",)

# Root span around one workload run; its self time is harness overhead.
HARNESS = "harness.run"


def _samples(series) -> int:
    return int(series.samples.size)


# Work counters taken at span boundaries: span name -> (counter, amount).
# Amounts come from the call's arguments or its result, never from the
# program's internals.
WORK = {
    "kernels.servo_loop": ("kernels.servo_samples", lambda a, k, r: len(a[0] if a else k["dist"])),
    "kernels.cavity_rk4": ("kernels.rk4_steps", lambda a, k, r: int(a[7] if len(a) > 7 else k["n_steps"])),
    "estimation.welch_psd": ("estimation.welch_samples", lambda a, k, r: _samples(a[0] if a else k["series"])),
    "locksim.synth_epr_photocurrents": ("locksim.samples_synthesized", lambda a, k, r: sum(map(_samples, r))),
    "locksim.synth_theta_process": ("locksim.samples_synthesized", lambda a, k, r: _samples(r)),
    "locksim.shot_noise_reference": ("locksim.samples_synthesized", lambda a, k, r: _samples(r)),
}


def _wrappable(obj, module) -> bool:
    fn = getattr(obj, "py_func", obj)  # a numba dispatcher exposes py_func
    return inspect.isfunction(fn) and getattr(obj, "__module__", None) == module.__name__


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[list] = []  # [name, parent index or None, start, end]
        self.calls: Counter = Counter()
        self.work: Counter = Counter()
        self.bound: set[str] = set()
        self._stack: list[int] = []

    # -- recording -------------------------------------------------------

    def span(self, name: str, fn):
        spans, stack, calls, work, clock = self.spans, self._stack, self.calls, self.work, self.clock
        counter = WORK.get(name)

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append([name, stack[-1] if stack else None, clock(), None])
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[sid][3] = clock()
                stack.pop()
            calls[name] += 1
            if counter is not None:
                work[counter[0]] += counter[1](args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        modules = {layer: getattr(package, layer, None) for layer in LAYERS}
        by_object: dict[int, dict[str, object]] = {}
        for layer, module in modules.items():
            if module is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not _wrappable(obj, module):
                    continue
                name = f"{layer}.{attr}"
                wrapper = self.counter(name, obj) if layer in COUNT_ONLY else self.span(name, obj)
                setattr(module, attr, wrapper)
                self.bound.add(name)
                by_object.setdefault(id(obj), {})[attr] = wrapper
        # Rebind names other modules imported directly from a layer module.
        for module in filter(None, modules.values()):
            for attr, obj in list(vars(module).items()):
                wrappers = by_object.get(id(obj))
                if wrappers:
                    setattr(module, attr, wrappers.get(attr, next(iter(wrappers.values()))))

    # -- analysis --------------------------------------------------------

    def self_times(self) -> list[float]:
        """Span duration minus the durations of its direct children."""
        own = [end - start for _name, _parent, start, end in self.spans]
        for _name, parent, start, end in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: inclusive seconds and self seconds; per layer: self seconds."""
        inclusive, own, layer = Counter(), Counter(), Counter()
        for (name, _parent, start, end), self_s in zip(self.spans, self.self_times()):
            inclusive[name] += end - start
            own[name] += self_s
            layer[name.split(".", 1)[0]] += self_s
        return inclusive, own, layer

    def wall(self) -> float:
        roots = [end - start for name, parent, start, end in self.spans if parent is None]
        return float(sum(roots))

    def dump(self, path, extra: dict) -> None:
        t0 = self.spans[0][2] if self.spans else 0.0
        payload = dict(extra)
        payload["run_id"] = self.run_id
        payload["spans"] = [
            {"id": i, "name": name, "parent": parent, "start": start - t0, "end": end - t0, "run_id": self.run_id}
            for i, (name, parent, start, end) in enumerate(self.spans)
        ]
        payload["calls"] = dict(self.calls)
        payload["work"] = dict(self.work)
        payload["layer_self_s"] = dict(self.totals()[2])
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1, allow_nan=False)
            fh.write("\n")
