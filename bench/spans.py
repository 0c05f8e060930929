"""Layer spans recorded from outside the package.

``rebind`` replaces a package function by a wrapper in every namespace that
holds it: the defining module, modules that imported the name directly
(``engine.edge_transition``, ``census.kemeny_spectrum``, ...), the
module-level dispatch tables that ``chains.build_matrix`` looks kinds up in,
and the package root. It returns the undo steps. Nothing under ``src/``
changes.

A span is (name, start, end, parent index, op id). Spans nest by call; the
tracer keeps each name's self time (duration minus the time its child spans
cover) and its work counts as spans close.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from typing import Callable, Iterator

import nbkemeny
from nbkemeny import census, chains, cli, engine, formulas, graphs, ratmath

MODULES = (nbkemeny, graphs, chains, engine, ratmath, formulas, census, cli)

WALK = {"vertex": "vertex", "edge": "edge", "non-backtracking": "nb"}


def rebind(original, replacement) -> list[Callable[[], None]]:
    """Point every package reference to ``original`` at ``replacement``."""
    undo = []
    for mod in MODULES:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append(lambda m=mod, a=attr: setattr(m, a, original))
            elif isinstance(value, dict):
                for key, entry in list(value.items()):
                    if entry is original:
                        value[key] = replacement
                        undo.append(lambda d=value, k=key: d.__setitem__(k, original))
    return undo


def _walk(P, *args, **kwargs) -> str:
    return WALK[P.kind]


def _vertex(*args, **kwargs) -> str:
    return "vertex"


def _mfpt_work(tracer: "Tracer", args, result) -> None:
    # N masked solves of an N x N system: 2N^3/3 flops to factor and 2N^2
    # to substitute each; kept as 3x the flop count so the sum stays integral
    N = args[0].order
    tracer.counts["engine.mfpt.solves"] += N
    tracer.counts["engine.mfpt.flops_computed_x3"] += N * (2 * N**3 + 6 * N**2)


def _states(tracer: "Tracer", args, result) -> None:
    tracer.counts["chains.states"] += result.order


def _graph_done(tracer: "Tracer", args, result) -> None:
    # the canonical name is the last step of classifying a census graph
    tracer.op += 1


# (module, function, span name, walk label, hook run after the call)
TARGETS = (
    (ratmath, "exact_solve", "ratmath.exact_solve", None, None),
    (ratmath, "exact_inverse", "ratmath.exact_inverse", None, None),
    (ratmath, "bareiss_det", "ratmath.bareiss_det", None, None),
    (ratmath, "charpoly_pencil", "ratmath.charpoly_pencil", None, None),
    (graphs, "profile", "graphs.profile", None, None),
    (chains, "vertex_transition", "chains.vertex_transition", None, _states),
    (chains, "edge_transition", "chains.edge_transition", None, _states),
    (chains, "nb_transition", "chains.nb_transition", None, _states),
    (chains, "build_matrix", "chains.build_matrix", None, None),
    (engine, "stationary", "engine.stationary", _walk, None),
    (engine, "mfpt", "engine.mfpt", _walk, _mfpt_work),
    (engine, "kemeny_spectrum", "engine.spectrum", _walk, None),
    (engine, "kemeny_charpoly", "engine.charpoly", _walk, None),
    (engine, "resistance", "engine.resistance", _vertex, None),
    (engine, "kemeny_triple", "engine.kemeny_triple", None, None),
    (census, "canonical_graph6", "census.canonical_graph6", None, _graph_done),
    (census, "census_nb_vs_edge", "census.census_nb_vs_edge", None, None),
)

# generator functions: a span covers each next(), the time the consumer
# waits for the next item
GENERATORS = ((census, "enumerate_graphs", "census.enumerate_graphs"),)


class Tracer:
    """Spans and counts of one traced pass. The compute loop sets ``op``
    before each op; census ops advance it as each graph is classified."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.op = 0
        self._stack: list[list] = []  # [span index, seconds covered by children]
        self._undo: list[Callable[[], None]] = []

    def _open(self, name: str) -> None:
        parent = self._stack[-1][0] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _close(self) -> None:
        end = time.perf_counter()
        index, child = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - span[1]
        self.self_s[span[0]] += duration - child
        self.counts[span[0] + ".calls"] += 1
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, fn, name: str, label, hook):
        def traced(*args, **kwargs):
            self._open(name if label is None else f"{name}.{label(*args, **kwargs)}")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        def traced(*args, **kwargs) -> Iterator:
            inner = fn(*args, **kwargs)
            while True:
                self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close()
                self.counts[name + ".yielded"] += 1
                yield item

        return traced

    def install(self) -> None:
        for mod, attr, name, label, hook in TARGETS:
            fn = getattr(mod, attr)
            self._undo += rebind(fn, self._wrap(fn, name, label, hook))
        for mod, attr, name in GENERATORS:
            fn = getattr(mod, attr)
            self._undo += rebind(fn, self._wrap_generator(fn, name))

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()

    def deterministic_counts(self) -> dict:
        """Work counts that must repeat exactly on the same inputs."""
        out = dict(self.counts)
        out["engine.mfpt.flops_computed"] = out.pop("engine.mfpt.flops_computed_x3", 0) / 3
        return out

    def write(self, path) -> None:
        """Spans as JSON lines [name, start, end, parent index, op id], times
        in seconds from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, round(start - t0, 9), round(end - t0, 9), parent, op]))
                fh.write("\n")
