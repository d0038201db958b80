"""Span tracer installed from outside the program.

``Tracer.install`` rebinds public functions of the dirac88 modules to
wrappers that record one span (name, start, end, parent) per call.  Every
module-level name bound to a wrapped function is rebound, so calls through
``from .x import f`` aliases are seen too.  Only public functions are
wrapped: private helpers may be renamed or deleted by refactors, and the
layer names must survive them.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict


def _times_at(position):
    return lambda args, kwargs: len(args[position] if len(args) > position else kwargs["times"])


def _file_bytes(args, kwargs):
    path = str(args[0] if args else kwargs["path"])
    return os.path.getsize(path) + os.path.getsize(path + ".json")


def _command_name(args, kwargs):
    return "cli." + (args[0] if args else kwargs["command"])


# (module, function, span name or callable(args, kwargs) -> name, counter hook)
# A counter hook returns an amount added to "<span name>.<counter>" after the call.
TARGETS = [
    ("dirac88.cli", "run_command", _command_name, None),
    ("dirac88.evolution", "run_free", "evolution.run_free", ("samples", _times_at(1))),
    ("dirac88.evolution", "evolve_sourced", "evolution.evolve_sourced", ("samples", _times_at(2))),
    ("dirac88.evolution", "energy_expectation", "evolution.energy_expectation", None),
    ("dirac88.evolution", "alpha_expectation_series", "evolution.alpha_expectation_series", None),
    ("dirac88.evolution", "alpha_density_series", "evolution.alpha_density_series", None),
    ("dirac88.evolution", "zitter_decompose", "evolution.zitter_decompose", None),
    ("dirac88.spin", "angular_momentum_series", "spin.angular_momentum_series", None),
    ("dirac88.algebra", "transformed_dirac88", "algebra.transformed_dirac88", None),
    ("dirac88.algebra", "verify_identities", "algebra.verify_identities", None),
    ("dirac88.fields", "save_em_csv", "fields.save_em_csv", ("bytes", _file_bytes)),
    ("dirac88.oracle", "maxwell_evolve", "oracle.maxwell_evolve", None),
    ("dirac88.oracle", "compare", "oracle.compare", None),
] + [
    ("dirac88.states", fn, "states.build", None)
    for fn in ("travelling_wave", "standing_wave", "circular_wave_analytic", "electron_rest_mix",
               "electron_gaussian_packet", "uniform_current", "gaussian_dipole_current")
] + [
    ("dirac88.lorentz", fn, "lorentz.boosts", None)
    for fn in ("em_wavefunction_transform", "tensor_boost_oracle", "closed_form_field_boost")
]


class Tracer:
    """Records spans in memory; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, counter=None):
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            span = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if counter is not None:
                    counters[f"{label}.{counter[0]}"] += counter[1](args, kwargs)

        return traced

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        import dirac88  # noqa: F401  (loads every submodule)
        from dirac88.fields import GridSpec

        modules = [m for n, m in sys.modules.items() if n == "dirac88" or n.startswith("dirac88.")]
        for module_name, attr, name, counter in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self.wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)
        self._rebind(GridSpec, "wave_vectors",
                      self.wrap(GridSpec.wave_vectors, "fields.wave_vectors"))
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children, so the self times of all spans add up to the time covered
        by the outermost spans.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)
