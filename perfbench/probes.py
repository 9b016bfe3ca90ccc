"""Outside-in probes on ampcsim: they rebind its functions and methods, and
restore them afterwards, so that the program itself is never edited.

``TrialProbe`` is installed for every trial. It hooks only per-trial
boundaries: the algorithm's entry point (to split set-up from solving), the
oracle entry points, and ``Simulator.__init__`` (to see every simulator a
trial constructs, including ones the code drops). Nothing per round or per
query is hooked, so it is cheap enough for the untraced run.

``Tracer`` is installed on top of it for the traced run. It wraps each
layer's public functions and methods in spans and records each layer's self
time (span time minus the time of wrapped children) and counts.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Callable, Optional

from ampcsim import (
    biconnectivity,
    connectivity,
    contraction,
    graphs,
    mis,
    oracles,
    primitives,
    runtime,
    trees,
)

clock = time.perf_counter

# Modules whose public functions and methods are central, charged work; each
# gets a ``<module>.self_s`` layer metric.
CENTRAL_MODULES = (connectivity, contraction, trees, biconnectivity, primitives)
# Connectivity's sparse reduction is timed apart from the rest of the module.
REDUCE_FUNCTIONS = frozenset({"reduce_small_space", "shrink_vertices_step", "resolve_pointers"})
GENERATORS = ("gen_random_graph", "gen_cycles", "gen_random_forest")


def _oracle_functions() -> list[tuple[object, str]]:
    return [(oracles, name) for name in _public_functions(oracles)] + [(mis, "lfmis_oracle")]


def _public_functions(module) -> list[str]:
    """Names of the public functions defined in (not imported into) ``module``."""
    return [
        name
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and not name.startswith("_") and fn.__module__ == module.__name__
    ]


def _public_methods(module) -> list[tuple[type, str]]:
    """Plain public methods of the classes defined in ``module``, plus the
    hand-written ``__init__`` of non-dataclass classes."""
    found = []
    for cls in vars(module).values():
        if not inspect.isclass(cls) or cls.__module__ != module.__name__:
            continue
        for name, fn in vars(cls).items():
            if not inspect.isfunction(fn):
                continue
            if not name.startswith("_") or (name == "__init__" and not dataclasses.is_dataclass(cls)):
                found.append((cls, name))
    return found


class Patches:
    """Rebinds functions and methods and undoes it in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def function(self, module, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace every binding of ``module.name`` in every ampcsim module,
        so that callers that imported the name directly see the wrapper."""
        original = getattr(module, name)
        replacement = functools.wraps(original)(make(original))
        for mod in [m for key, m in sys.modules.items() if key.split(".")[0] == "ampcsim"]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, replacement)

    def method(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(cls)[name]
        self._undo.append((cls, name, original))
        setattr(cls, name, functools.wraps(original)(make(original)))

    def undo(self) -> None:
        while self._undo:
            target, attr, value = self._undo.pop()
            setattr(target, attr, value)


class TrialProbe:
    """Per-trial boundaries: entry time, oracle time, and every simulator.

    ``entry`` names the algorithm function, as ``(module, name)``; the time
    from the trial's start to its first call is the trial's set-up.
    """

    def __init__(self, entry: tuple[object, str]):
        self._entry = entry
        self._patches = Patches()
        self.start_trial()

    def start_trial(self) -> None:
        self.started = clock()
        self.entered: Optional[float] = None
        self.oracle_s = 0.0
        self._oracle_depth = 0
        self.simulators: list[runtime.Simulator] = []

    def __enter__(self) -> "TrialProbe":
        probe = self

        def entry(fn):
            def wrapper(*args, **kwargs):
                if probe.entered is None:
                    probe.entered = clock()
                return fn(*args, **kwargs)
            return wrapper

        def oracle(fn):
            def wrapper(*args, **kwargs):
                probe._oracle_depth += 1
                started = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    probe._oracle_depth -= 1
                    if probe._oracle_depth == 0:
                        probe.oracle_s += clock() - started
            return wrapper

        def register(fn):
            def wrapper(sim, *args, **kwargs):
                fn(sim, *args, **kwargs)
                probe.simulators.append(sim)
            return wrapper

        module, name = self._entry
        self._patches.function(module, name, entry)
        for module, name in _oracle_functions():
            self._patches.function(module, name, oracle)
        self._patches.method(runtime.Simulator, "__init__", register)
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()

    def setup_s(self, ended: float) -> float:
        return (self.entered if self.entered is not None else ended) - self.started

    def model_costs(self) -> dict[str, int]:
        """Model costs summed over every simulator the trial constructed."""
        sims = self.simulators
        return {
            "rounds": sum(s.total_rounds() for s in sims),
            "adaptive_rounds": sum(s.adaptive_rounds() for s in sims),
            "max_queries": max((s.max_queries_per_machine() for s in sims), default=0),
            "communication": sum(s.total_communication() for s in sims),
            "budget_violations": sum(s.violation_count() for s in sims),
        }

    def charged_rounds(self) -> int:
        return sum(1 for s in self.simulators for m in s.metrics if m.charged)


# Layer span names. Each one's self time is reported as ``<name>_s``.
SPAN_NAMES = (
    "graphs.generate",
    "graphs.build",
    "runtime.init",
    "runtime.round",
    "runtime.charge",
    "runtime.store_read",
    "runtime.store_write",
    "connectivity.reduce",
    "connectivity.self",
    "contraction.self",
    "trees.self",
    "biconnectivity.self",
    "primitives.self",
    "oracles.verify",
)


class Tracer:
    """Spans around every layer boundary, aggregated per trial.

    ``self_s`` maps each span name to its self time; the time of the trial
    that no span covers is ``trial time - covered``.
    """

    def __init__(self):
        self._patches = Patches()
        self.start_trial()

    def start_trial(self) -> None:
        self.self_s: dict[str, float] = dict.fromkeys(SPAN_NAMES, 0.0)
        self.counts: defaultdict[str, int] = defaultdict(int)
        # Each open span's accumulated child time; the bottom entry is the
        # trial itself.
        self._stack: list[float] = [0.0]

    @property
    def covered(self) -> float:
        return self._stack[0]

    def _span(self, name: str, count: Optional[Callable] = None):
        tracer = self

        def make(fn):
            def wrapper(*args, **kwargs):
                stack = tracer._stack
                stack.append(0.0)
                started = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - started
                    tracer.self_s[name] += elapsed - stack.pop()
                    stack[-1] += elapsed
                if count is not None:
                    count(tracer.counts, args)
                return result
            return wrapper

        return make

    def __enter__(self) -> "Tracer":
        p = self._patches
        for name in GENERATORS:
            p.function(graphs, name, self._span("graphs.generate"))
        p.method(graphs.Graph, "__init__", self._span("graphs.build", _count_build))

        p.method(runtime.Simulator, "__init__", self._span("runtime.init"))
        p.method(runtime.Simulator, "run_round", self._span("runtime.round"))
        p.method(runtime.Simulator, "charge", self._span("runtime.charge"))
        for name in ("query", "query_indexed"):
            p.method(runtime.MachineContext, name, self._span("runtime.store_read", _count("store_reads")))
        p.method(runtime.MachineContext, "write", self._span("runtime.store_write", _count("store_writes")))

        for module in CENTRAL_MODULES:
            short = module.__name__.rsplit(".", 1)[1]
            for name in _public_functions(module):
                span = "connectivity.reduce" if module is connectivity and name in REDUCE_FUNCTIONS else f"{short}.self"
                p.function(module, name, self._span(span))
            for cls, name in _public_methods(module):
                p.method(cls, name, self._span(f"{short}.self"))

        for module, name in _oracle_functions():
            p.function(module, name, self._span("oracles.verify"))
        return self

    def __exit__(self, *exc) -> None:
        self._patches.undo()


def _count(key: str):
    def count(counts, args):
        counts[key] += 1
    return count


def _count_build(counts, args) -> None:
    counts["builds"] += 1
    counts["edges_built"] += len(args[0].edges)
