"""In-memory spans and counters around calls into the fsro modules.

The tracer wraps public functions from the outside: it swaps each target for
a wrapper wherever an fsro module holds a reference to it, and restores the
originals on exit. A span is (name, start, end, parent index). Calls made
inside a span are its children, and a span's self time is its duration minus
its children's, which do not overlap because the traced run is one thread.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

import fsro.baselines
import fsro.bench
import fsro.data
import fsro.engine
from fsro.fitness import FitnessEvaluator
from fsro.rng import RngStream

# span name -> function; every fsro module attribute bound to it is wrapped
FUNCTION_SPANS = {
    "bench.run_experiment": fsro.bench.run_experiment,
    "bench.run_single": fsro.bench.run_single,
    "data.stratified_split": fsro.data.stratified_split,
    "engine.run_search": fsro.engine.run_search,
    "engine.step": fsro.engine.step,
    "baselines.ga_run": fsro.baselines.ga_run,
    "baselines.ga_step": fsro.baselines.ga_step,
    "baselines.bpso_run": fsro.baselines.bpso_run,
    "baselines.bpso_step": fsro.baselines.bpso_step,
}
# span name -> FitnessEvaluator method
METHOD_SPANS = {
    "fitness.setup": "__init__",
    "fitness.call": "__call__",
    "fitness.accuracy": "accuracy",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._seen: set[bytes] = set()

    def wrap(self, name: str, fn):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, time.perf_counter(), None, open_[-1] if open_ else -1])
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                spans[index][2] = time.perf_counter()

        return traced

    def _count_draws(self, fn):
        counts = self.counts

        def next_raw(stream):
            counts["rng.draws"] += 1
            return fn(stream)

        return next_raw

    def _count_masks(self, fn):
        counts, seen = self.counts, self._seen

        def evaluate(evaluator, mask):
            counts["fitness.calls"] += 1
            key = mask.tobytes()
            if key not in seen:
                seen.add(key)
                counts["fitness.unique"] += 1
            return fn(evaluator, mask)

        return evaluate

    def _new_run(self, fn):
        seen = self._seen

        def run_single(*args, **kwargs):
            seen.clear()  # one evaluator, and one mask cache, per run
            return fn(*args, **kwargs)

        return run_single

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        modules = [m for n, m in sys.modules.items() if n == "fsro" or n.startswith("fsro.")]
        undo = []

        def swap(owner, attr, new):
            undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)

        for name, fn in FUNCTION_SPANS.items():
            wrapped = self.wrap(name, fn)
            if name == "bench.run_single":
                wrapped = self._new_run(wrapped)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        swap(module, attr, wrapped)
        for name, attr in METHOD_SPANS.items():
            method = FitnessEvaluator.__dict__[attr]
            wrapped = self.wrap(name, method)
            if attr == "__call__":
                wrapped = self._count_masks(wrapped)
            swap(FitnessEvaluator, attr, wrapped)
        swap(RngStream, "next_raw", self._count_draws(RngStream.__dict__["next_raw"]))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def self_times(self, name: str) -> list[float]:
        child = defaultdict(float)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        return [s[2] - s[1] - child[i] for i, s in enumerate(self.spans) if s[0] == name]

    def dump(self, path, label: str) -> None:
        with open(path, "a", encoding="utf-8") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps({"run": label, "name": name, "start": start,
                                    "end": end, "parent": parent}) + "\n")
