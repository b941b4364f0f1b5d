"""Shared domain types for the frog-snake optimizer and its harness.

Solutions are binary feature masks held as 1-D numpy uint8 arrays with values
in {0, 1}. Masks are compared positionwise and keyed into caches by their raw
bytes, so two equal masks always hash to the same cache entry. Fitness values
are float64 throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ConfigError(ValueError):
    """Invalid parameter or run configuration."""


class DataError(ValueError):
    """Dataset ingestion or validation failure."""


def require_finite(params, *names: str) -> None:
    """Raise ConfigError naming the first of the fields `names` that is NaN or infinite."""
    for name in names:
        if not math.isfinite(getattr(params, name)):
            raise ConfigError(f"{name} must be finite, got {getattr(params, name)}")


def mask_key(mask: np.ndarray) -> bytes:
    """Hashable cache key; equal masks yield equal keys."""
    return mask.tobytes()


def mask_string(mask: np.ndarray) -> str:
    return "".join("1" if b else "0" for b in mask)


@dataclass
class PopulationState:
    """Full engine state between iterations, passed by `drive` from one
    `engine.step` to the next; `drive` numbers the iterations.

    Row i of `solutions` (n, d) uint8 is one agent's mask, `frog[i]` says
    whether it is a frog (else a snake), and `fitness[i]` is its fitness from
    the last evaluation (NaN before the first).

    Invariants kept by the engine: frog_share + snake_share == 1 (within fp),
    the row count is constant, both groups are non-empty after every step,
    and global_best_fitness never increases.

    Rows are in age order: `initialize` creates them in order, and
    `ess_mutation` appends each clone as the last row and deletes a donor
    without moving the rest. That order is the tie rule: among equally fit
    rows the earliest is relabelled or dropped first.
    """

    solutions: np.ndarray
    frog: np.ndarray
    fitness: np.ndarray
    frog_share: float
    snake_share: float
    global_best_mask: np.ndarray | None = None
    global_best_fitness: float | None = None
    # whether any capture in the most recent step succeeded
    captured: bool = False


@dataclass(frozen=True)
class TraceRow:
    """Per-iteration diagnostics row, one per iteration including iteration 0."""

    iteration: int
    best_fitness: float
    frog_count: int
    snake_count: int
    predation_success: bool


@dataclass
class SearchOutcome:
    """What a single optimizer run produces before dataset-level bookkeeping."""

    best_mask: np.ndarray
    best_fitness: float
    trace: list[TraceRow]


def drive(iterations: int, state, step, best,
          counts=lambda state: (0, 0, False)) -> SearchOutcome:
    """The one generation loop: `state = step(state)` `iterations` times, with a
    trace row for the initial state and after each step. best(state) gives the
    (fitness, mask) best so far; counts(state) the frog and snake counts and
    the capture flag."""
    trace = []
    for t in range(iterations + 1):
        state = step(state) if t else state
        fitness, mask = best(state)
        trace.append(TraceRow(t, fitness, *counts(state)))
    return SearchOutcome(best_mask=mask.copy(), best_fitness=fitness, trace=trace)


@dataclass
class RunResult:
    """One seeded run of one algorithm on one dataset.

    test_accuracy is best_mask's accuracy on the run's held-out split, the
    one whose KNN error the search optimised, not on rows it never saw.
    """

    algorithm: str
    dataset: str
    seed: int
    best_fitness: float
    best_mask: np.ndarray
    test_accuracy: float
    selected_count: int
    wall_time_seconds: float
    trace: list[TraceRow]
