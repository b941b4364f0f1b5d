"""Reference binary optimizers sharing the frog-snake fitness interface.

Both are elitist, use the same zero-mask repair, and consume one RngStream in
a fixed order, so their runs replay exactly like the main engine's. Each run
is its initialisation plus one `core.drive` call: GA's state is the (n, d)
uint8 population array and its float64 fitness array, BPSO's the six arrays
and values that `bpso_step` takes and returns.

They take the engine's batch protocol, `evaluate(masks) -> list[float]`,
passed the population array (GA: its offspring rows) once for the initial
population and once per generation after all of its draws. GA scores its
offspring together once they are all bred. BPSO defers its personal-best
updates until the swarm's batch is scored; that changes nothing, because
particle i's velocity reads only its own pbest[i] and the gbest from the
start of the sweep.

Both draw their initial population with `engine.random_masks`, and BPSO
draws its whole sweep with `engine.draw_rows`: one speculative block for
all remaining particles, and at the first all-zero position the stream goes
back to that particle's end, its repair draw runs, and the particles after
it are drawn again. The draw order is still the one `bpso_step` documents.
The velocity update runs in numpy, one ufunc per Python float operation and
in the same order, so every element rounds as the scalar expression did.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigError, SearchOutcome, drive, require_finite
from .engine import draw_rows, random_masks, repair_mask
from .rng import RngStream, uniforms

# relative distance from the sigmoid threshold inside which a sampling
# uniform is compared again against math.exp's sigmoid; np.exp is
# within a few ulp (2**-52 each) of it
SIGMOID_BAND = 2.0 ** -40

# bound on every BPSO velocity component: sigmoid(6) is about 0.9975, so a
# bit at the clamp still samples the other value about once in 400 draws
VELOCITY_CLAMP = 6.0


@dataclass(frozen=True)
class GaParams:
    """Genetic-algorithm settings; every field has a CLI flag.

    crossover_rate is the chance that a parent pair is cut at a random
    point, mutation_rate the chance that each offspring gets one random bit
    flip. population_size (>= 2) is the number of rows and max_iterations
    the number of generations.
    """

    crossover_rate: float = 0.8
    mutation_rate: float = 0.3
    population_size: int = 40
    max_iterations: int = 100

    def __post_init__(self):
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ConfigError(f"crossover_rate must be in [0,1], got {self.crossover_rate}")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ConfigError(f"mutation_rate must be in [0,1], got {self.mutation_rate}")
        if self.population_size < 2:
            raise ConfigError(f"population_size must be >= 2, got {self.population_size}")
        if self.max_iterations < 0:
            raise ConfigError(f"max_iterations must be >= 0, got {self.max_iterations}")

    def search(self, dim: int, evaluate, rng: RngStream) -> SearchOutcome:
        return ga_run(self, dim, evaluate, rng)


@dataclass(frozen=True)
class BpsoParams:
    """Binary particle swarm settings; every field has a CLI flag.

    A velocity becomes inertia_weight times itself, plus cognitive_factor
    times a uniform times the step to the particle's personal best, plus
    social_factor times a uniform times the step to the global best, and is
    clipped to the module constant VELOCITY_CLAMP in magnitude.
    population_size (>= 1) is the number of particles and max_iterations
    the number of sweeps.
    """

    inertia_weight: float = 1.0
    cognitive_factor: float = 2.0
    social_factor: float = 2.0
    population_size: int = 40
    max_iterations: int = 100

    def __post_init__(self):
        require_finite(self, "inertia_weight", "cognitive_factor", "social_factor")
        if self.population_size < 1:
            raise ConfigError(f"population_size must be >= 1, got {self.population_size}")
        if self.max_iterations < 0:
            raise ConfigError(f"max_iterations must be >= 0, got {self.max_iterations}")

    def search(self, dim: int, evaluate, rng: RngStream) -> SearchOutcome:
        return bpso_run(self, dim, evaluate, rng)


def sigmoid_transfer(v: float) -> float:
    """Map a velocity to a bit-selection probability in (0, 1)."""
    return 1.0 / (1.0 + math.exp(-v))


def _sample_bits(velocity: np.ndarray, u: np.ndarray) -> np.ndarray:
    """u < sigmoid_transfer(velocity), elementwise, as uint8 bits.

    np.exp screens every element; one within SIGMOID_BAND of its threshold,
    or whose exp overflowed, is decided again with sigmoid_transfer itself.
    """
    with np.errstate(over="ignore"):
        e = np.exp(-velocity)
    p = 1.0 / (1.0 + e)
    take = u < p
    for i in zip(*np.nonzero((np.abs(u - p) <= SIGMOID_BAND * p) | np.isinf(e))):
        take[i] = u[i] < sigmoid_transfer(velocity[i])
    return take.astype(np.uint8)


def _tournament(fitness: list[float], rng: RngStream) -> int:
    """Binary tournament without replacement; the first pick wins ties."""
    i = rng.index(len(fitness))
    j = rng.index(len(fitness) - 1)
    if j >= i:
        j += 1
    return j if fitness[j] < fitness[i] else i


def ga_step(population: np.ndarray, fitness: np.ndarray, params: GaParams,
            evaluate, rng: RngStream) -> tuple[np.ndarray, np.ndarray]:
    """One elitist generation: tournament parents, one-point crossover at the
    crossover rate, then one random bit flip per offspring at the mutation
    rate; the offspring are scored in one batch after the last draw.

    Takes and returns the (n, d) population and its fitness. Row 0 is the
    first fittest parent; rows 1.. are filled pair by pair, and the last
    pair of an even n keeps only its first child. No crossover is a cut at d.
    """
    n, dim = population.shape
    scores = fitness.tolist()
    elite = int(np.argmin(fitness))  # the first wins ties
    children = np.empty_like(population)
    children[0] = population[elite]
    for row in range(1, n, 2):
        p1, p2 = population[_tournament(scores, rng)], population[_tournament(scores, rng)]
        point = dim if rng.uniform() >= params.crossover_rate or dim < 2 else 1 + rng.index(dim - 1)
        # indexing a row is cheaper than iterating a two-row slice
        for k, head, tail in zip(range(row, n), (p1, p2), (p2, p1)):
            child = children[k]
            child[:point], child[point:] = head[:point], tail[point:]
            if rng.uniform() < params.mutation_rate:
                child[rng.index(dim)] ^= 1
            repair_mask(child, rng)
    return children, np.concatenate([fitness[elite:elite + 1], evaluate(children[1:])])


def ga_run(params: GaParams, dim: int, evaluate, rng: RngStream) -> SearchOutcome:
    """The elite leads each generation, so its fittest mask is the best so far."""
    population = random_masks(params.population_size, dim, rng)
    # argmin: the first of the fittest rows wins ties
    return drive(params.max_iterations, (population, np.array(evaluate(population))),
                 lambda state: ga_step(*state, params, evaluate, rng),
                 lambda state: (float(state[1].min()), state[0][np.argmin(state[1])]))


def _fly(positions: np.ndarray, velocities: np.ndarray, pbest: np.ndarray, gbest: np.ndarray,
         params: BpsoParams, rng: RngStream) -> list[np.ndarray]:
    """The sweep's draws: every particle's new [position, velocity] rows.

    Kept apart from bpso_step, so its arrays are freed before the batch is
    scored.
    """
    w, c1, c2 = params.inertia_weight, params.cognitive_factor, params.social_factor
    dim = gbest.size
    to_pbest = pbest.astype(np.float64) - positions
    to_gbest = gbest.astype(np.float64) - positions

    def sweep(first, raws):
        # (w*v + c1*r1*(pbest - x)) + c2*r2*(gbest - x), as the scalar form
        rows = slice(first, first + len(raws))
        r = uniforms(raws)
        vel = w * velocities[rows]
        vel += c1 * r[:, 0:2 * dim:2] * to_pbest[rows]
        vel += c2 * r[:, 1:2 * dim:2] * to_gbest[rows]
        np.clip(vel, -VELOCITY_CLAMP, VELOCITY_CLAMP, out=vel)
        return _sample_bits(vel, r[:, 2 * dim:]), vel

    return draw_rows(rng, len(positions), 3 * dim, sweep)


def bpso_step(positions: np.ndarray, velocities: np.ndarray, pbest: np.ndarray,
              pbest_fit: np.ndarray, gbest: np.ndarray, gbest_fit: float,
              params: BpsoParams, evaluate, rng: RngStream):
    """One synchronous swarm sweep: velocities first, then sigmoid resampling,
    then one batch evaluation and the personal- and global-best updates.
    Takes and returns the swarm: (n, d) positions, velocities and personal
    bests, their fitness, and the global best and its fitness.

    Per particle, the draw order is the cognitive and then the social
    uniform for each dimension, one sampling uniform per dimension, and the
    repair draw if the new position is all-zero.
    """
    positions, velocities = _fly(positions, velocities, pbest, gbest, params, rng)
    fitness = np.array(evaluate(positions), dtype=np.float64)
    better = fitness < pbest_fit
    pbest = np.where(better[:, None], positions, pbest)
    pbest_fit = np.where(better, fitness, pbest_fit)
    i = int(np.argmin(pbest_fit))  # the first wins ties
    if pbest_fit[i] < gbest_fit:
        gbest, gbest_fit = pbest[i].copy(), float(pbest_fit[i])
    return positions, velocities, pbest, pbest_fit, gbest, gbest_fit


def bpso_run(params: BpsoParams, dim: int, evaluate, rng: RngStream) -> SearchOutcome:
    positions = random_masks(params.population_size, dim, rng)
    fit = np.array(evaluate(positions))
    i = int(np.argmin(fit))  # the first wins ties
    # bpso_step replaces the swarm's arrays and writes none, so they may share rows
    swarm = (positions, np.zeros(positions.shape), positions, fit, positions[i], float(fit[i]))
    return drive(params.max_iterations, swarm,
                 lambda swarm: bpso_step(*swarm, params, evaluate, rng),
                 lambda swarm: (swarm[5], swarm[4]))
