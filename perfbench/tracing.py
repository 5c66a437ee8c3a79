"""Span tracing of otoclab's public functions, installed from outside.

:func:`install` rebinds each function in :data:`TARGETS`, in every loaded
``otoclab`` module that holds a reference to it, to a wrapper that records a
span ``(name, start, end, parent)`` in memory.  ``operators.OperatorMatrix``
stands for the construction checks in ``OperatorMatrix.__post_init__``.
Nothing is recorded while ``Tracer.enabled`` is false, and nothing in the
package changes unless :func:`install` is called.
"""

import functools
import importlib
import json
import statistics
import sys
import time

TARGETS = (
    "operators.embed",
    "operators.OperatorMatrix",
    "kicked_rotor.coupled_floquet",
    "kicked_rotor.apply_floquet",
    "bipartite.apply_local",
    "bipartite.kron_conjugate",
    "bipartite.diag_conjugate",
    "bipartite.right_multiply_embedded",
    "bipartite.trace_product",
    "otoc.otoc_series_dense",
    "otoc.otoc_series_stochastic",
    "otoc.fit_lyapunov_phase",
    "otoc.fit_relaxation_phase",
    "rmt.sample_cue",
    "rmt.sample_interaction",
    "rmt.rmt_otoc_mc",
    "classical.classical_lyapunov",
    "phasespace.coherent_frame",
    "phasespace.evolve_product_state",
    "phasespace.partial_trace_over_first",
    "phasespace.reduced_husimi",
    "cli.run",
    "cli.write_csv",
)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.enabled = True
        self._open = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            span = [name, time.perf_counter(), None, parent]
            self.spans.append(span)
            self._open.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._open.pop()
                span[2] = time.perf_counter()

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def install(tracer):
    """Wrap every target; returns the ``(owner, attribute, original)``
    bindings replaced, so that a caller can put them back."""
    replaced = []
    for target in TARGETS:
        module_name, attr = target.split(".")
        module = importlib.import_module(f"otoclab.{module_name}")
        if attr == "OperatorMatrix":
            owner, key = module.OperatorMatrix, "__post_init__"
            replaced.append((owner, key, vars(owner)[key]))
            setattr(owner, key, tracer.wrap(target, vars(owner)[key]))
            continue
        original = getattr(module, attr)
        wrapper = tracer.wrap(target, original)
        for name, loaded in list(sys.modules.items()):
            if name == "otoclab" or name.startswith("otoclab."):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        replaced.append((loaded, key, original))
                        setattr(loaded, key, wrapper)
    return replaced


def summarize(spans):
    """Per target: exact call count, self time (span minus its children)
    and median span duration, all in seconds."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    durations = {t: [] for t in TARGETS}
    self_s = dict.fromkeys(TARGETS, 0.0)
    for (name, start, end, _), children in zip(spans, child_time):
        durations[name].append(end - start)
        self_s[name] += end - start - children
    return {
        t: {
            "calls": len(durations[t]),
            "self_s": self_s[t],
            "median_s": statistics.median(durations[t]) if durations[t] else 0.0,
        }
        for t in TARGETS
    }
