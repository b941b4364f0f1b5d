"""Benchmark workloads: dataset shape, CLI settings and seeded data generation.

Each workload's reason for existing is its `why` in BENCHMARK.json; the
layer each one loads or bypasses is in layers.json. The generators depend
only on the benchmark seed, so the same seed writes the same CSV bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fsro.data import Dataset, generate_m_of_n, save_csv
from fsro.rng import RngStream

POPULATION = 40
ALGORITHMS = ("fsro", "ga", "bpso")
# timed rounds cycle through this many CLI base seeds, so a run's medians
# cover several search paths instead of one seed's luck
VARIANTS = 3


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int], Dataset]  # benchmark seed -> dataset
    runs: int  # seeded runs per CLI command
    iterations: int
    workers: int

    def cli_seed(self, seed: int, variant: int = 0) -> int:
        """CLI base seed for one of VARIANTS disjoint sets of run seeds.

        Kept apart from the data generator's RngStream(seed), so no split
        replays the data's own draws.
        """
        return 1000 + 100 * seed + 10 * variant


def make_madelon(n_instances: int, n_informative: int, n_redundant: int,
                 n_noise: int, seed: int) -> Dataset:
    """Madelon-style two-class data (Guyon et al., NIPS 2003 challenge).

    Class clusters sit on the vertices of an n_informative-dimensional
    hypercube, alternating classes, with Gaussian spread; redundant features
    are random linear combinations of the informative ones and the rest is
    Gaussian noise. Columns are shuffled. Every value is real-valued, so KNN
    distances have no ties.
    """
    g = np.random.Generator(np.random.PCG64(seed))
    n_vertices = 1 << n_informative
    vertices = np.array([[(v >> b) & 1 for b in range(n_informative)]
                         for v in range(n_vertices)], dtype=np.float64) * 2.0 - 1.0
    vertex_class = g.permutation(np.arange(n_vertices) % 2)
    # round-robin cluster membership keeps both classes the same size
    cluster = g.permutation(np.arange(n_instances) % n_vertices)
    informative = vertices[cluster] + g.standard_normal((n_instances, n_informative))
    redundant = informative @ g.uniform(-1.0, 1.0, (n_informative, n_redundant))
    noise = g.standard_normal((n_instances, n_noise))
    features = np.hstack([informative, redundant, noise])[:, g.permutation(
        n_informative + n_redundant + n_noise)]
    labels = vertex_class[cluster].astype(np.int64)
    name = f"madelon-{features.shape[1]}-{n_instances}"
    return Dataset(name=name, features=features, labels=labels)


WORKLOADS = {w.name: w for w in (
    Workload("narrow", lambda seed: generate_m_of_n(6, 3, 7, 1000, RngStream(seed)),
             runs=2, iterations=6, workers=1),
    Workload("large", lambda seed: make_madelon(600, 5, 15, 480, seed),
             runs=2, iterations=1, workers=2),
)}


def write_csv(workload: Workload, seed: int, path: Path) -> Dataset:
    dataset = workload.generate(seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_csv(dataset, path)
    return dataset
