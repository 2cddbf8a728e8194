"""Spans around the calls ``tomospectra.ensemble`` makes into other modules.

The package has no tracing of its own, so the benchmark installs it from
outside: it replaces the names ``tomospectra.ensemble`` looks up at call
time (``build_state``, ``stream``, ``np``, ...) with timing wrappers.
Spans are aggregated in memory per name -- calls, total time and the
part of that time covered by child spans -- so the traced run does not
grow with the replica count.  A name the package no longer has is
skipped and reports zero calls.
"""

import time

import numpy

PERF = time.perf_counter

# (module attribute of tomospectra.ensemble, span name)
ENSEMBLE_CALLS = (
    ("build_state", "pauli.build_state"),
    ("setting_probability_table", "pauli.prob_table"),
    ("correlation_tensor_values", "pauli.correlation_values"),
    ("correlations_from_frequencies", "estimation.correlations"),
    ("reconstruct_from_values", "estimation.reconstruct"),
    ("estimate_complete", "estimation.complete"),
    ("build_complete_frame", "estimation.frame"),
)


class Tracer:
    """Per-name span totals: ``stats[name] = [calls, seconds, child_seconds]``."""

    def __init__(self):
        self.stats = {}
        self.events = 0
        self._open = []  # child seconds accumulated by each open span

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        self._open.append(0.0)
        start = PERF()
        try:
            return fn(*args, **kwargs)
        finally:
            seconds = PERF() - start
            child = self._open.pop()
            entry = self.stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += seconds
            entry[2] += child
            if self._open:
                self._open[-1] += seconds

    def wrap(self, name, fn):
        """``fn`` with every call recorded as a span called ``name``."""

        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def calls(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[0]

    def seconds(self, name):
        return self.stats.get(name, [0, 0.0, 0.0])[1]

    def self_seconds(self, name):
        entry = self.stats.get(name, [0, 0.0, 0.0])
        return entry[1] - entry[2]

    def reset(self):
        self.stats = {}
        self.events = 0


class _TracedGenerator:
    """A ``numpy.random.Generator`` whose count draws are spans."""

    def __init__(self, rng, tracer):
        self._rng = rng
        self._tracer = tracer

    def _draw(self, method, *args, **kwargs):
        counts = self._tracer.span("sampling.draw", method, *args, **kwargs)
        self._tracer.events += int(counts.sum())
        return counts

    def multinomial(self, *args, **kwargs):
        return self._draw(self._rng.multinomial, *args, **kwargs)

    def poisson(self, *args, **kwargs):
        return self._draw(self._rng.poisson, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class _Namespace:
    """A stand-in module: listed attributes overridden, the rest delegated."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def install(ts, tracer):
    """Wrap the package's cross-module calls for the rest of the process."""
    ensemble, estimation, gof = ts.ensemble, ts.estimation, ts.gof

    for attr, name in ENSEMBLE_CALLS:
        if hasattr(ensemble, attr):
            setattr(ensemble, attr, tracer.wrap(name, getattr(ensemble, attr)))
    # estimate_complete reconstructs through the estimation module's own name
    if hasattr(estimation, "reconstruct_from_values"):
        setattr(estimation, "reconstruct_from_values",
              tracer.wrap("estimation.reconstruct", estimation.reconstruct_from_values))
    if hasattr(ensemble, "stream"):
        timed_stream = tracer.wrap("sampling.stream", ensemble.stream)
        setattr(ensemble, "stream",
              lambda *args, **kwargs: _TracedGenerator(timed_stream(*args, **kwargs), tracer))
    if getattr(ensemble, "np", None) is numpy:
        linalg = _Namespace(numpy.linalg, eigvalsh=tracer.wrap(
            "ensemble.eigvalsh", numpy.linalg.eigvalsh))
        setattr(ensemble, "np", _Namespace(numpy, linalg=linalg))
    # a2_null_sf reaches a2_null_cdf through the gof module's global
    if hasattr(gof, "a2_null_cdf"):
        setattr(gof, "a2_null_cdf", tracer.wrap("gof.a2_cdf", gof.a2_null_cdf))
