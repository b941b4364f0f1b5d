"""Frog-snake prey-predation optimization for wrapper feature selection."""

from .baselines import BpsoParams, GaParams, bpso_run, ga_run, sigmoid_transfer
from .bench import (
    Decision,
    ExperimentSummary,
    run_experiment,
    run_single,
    summarize,
    wilcoxon_signed_rank,
)
from .core import (
    ConfigError,
    DataError,
    PopulationState,
    RunResult,
    SearchOutcome,
    TraceRow,
)
from .data import Dataset, Split, generate_m_of_n, load_csv, save_csv, stratified_split
from .engine import FsroParams, initialize, run_search, step
from .fitness import FitnessEvaluator, FitnessParams
from .rng import RngStream

__version__ = "0.1.0"
