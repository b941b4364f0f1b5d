"""Command-line front end: run experiments, compare algorithms, generate data.

Outputs are plain CSV with full-precision floats so a re-run with the same
configuration and seed reproduces summary.csv, runs.csv, and the trace files
byte for byte. Wall-clock measurements, which can never replay exactly, go to
a separate timings.csv and to stdout.

A run's test_accuracy in runs.csv (and average_accuracy in summary.csv, its
mean) is the best mask's accuracy on the same held-out split that the
search's fitness scored. It is not measured on rows the search never saw,
so it is an optimistic estimate of generalization.

`compare` runs two algorithms on the same seeds, so run k of each sees the
same split, and tests the pairs with a two-sided Wilcoxon signed-rank test.
paired.csv holds each run seed's best fitness per algorithm; comparison.csv
holds the p-value, the paper's +/- decision at significance level 0.05
('+' when p < 0.05) and `better`, the algorithm whose best fitness ranks
lower (the larger rank sum of improvements), empty when the rank sums are
equal. The p-value is the exact signed-rank count for every number of
nonzero differences, a ratio of integers with the same bits on every
platform.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .bench import ALGORITHMS, SIGNIFICANCE, run_experiment, wilcoxon_signed_rank
from .core import ConfigError, DataError, RunResult, mask_string
from .data import Dataset, generate_m_of_n, load_csv, save_csv, write_rows
from .fitness import FitnessParams
from .rng import MASK64, RngStream


def _synthetic(spec: str, seed: int) -> Dataset:
    """The m-of-n dataset that 'm-of-n:R,M,NOISE,INSTANCES' names, drawn from seed."""
    try:
        kind, rest = spec.split(":", 1)
        if kind != "m-of-n":
            raise ValueError(f"unknown synthetic kind {kind!r}")
        n_relevant, m, n_noise, n_instances = (int(v) for v in rest.split(","))
    except ValueError as e:
        raise ConfigError(f"bad --synthetic spec {spec!r} "
                          f"(expected m-of-n:R,M,NOISE,INSTANCES): {e}")
    return generate_m_of_n(n_relevant, m, n_noise, n_instances, RngStream(seed))


def _load_dataset(args) -> Dataset:
    if args.synthetic:
        return _synthetic(args.synthetic, args.seed)
    if not args.dataset:
        raise ConfigError("either --dataset or --synthetic is required")
    return load_csv(args.dataset, label_column=args.label_column, has_header=not args.no_header)


def _params(cls, args):
    """`cls` with each field set by the flag whose dest is its name; a field
    whose flag is absent, on the command line and in the config, keeps the
    class default."""
    return cls(**{f.name: getattr(args, f.name) for f in fields(cls) if hasattr(args, f.name)})


def _output_dir(path: Path) -> Path:
    """`path`, rejected when it, or the nearest part of it that exists, is
    not a directory. Called before any run, so a bad --out costs no
    experiment and leaves the file it names untouched."""
    for part in (path, *path.parents):
        # a dangling link exists too: mkdir would fail on it
        if part.exists() or part.is_symlink():
            if not part.is_dir():
                raise ConfigError(f"--out: {part} is not a directory")
            break
    return path


def _write_run_outputs(out: Path, results: list[RunResult], summary) -> None:
    write_rows(out / "summary.csv",
               ["mean_fitness", "best_fitness", "worst_fitness", "std_fitness",
                "average_accuracy", "average_reduction", "runs"],
               [[summary.mean_fitness, summary.best_fitness, summary.worst_fitness,
                 summary.std_fitness, summary.average_accuracy,
                 summary.average_reduction, summary.runs]])
    write_rows(out / "runs.csv",
               ["algorithm", "dataset", "seed", "best_fitness", "test_accuracy",
                "selected_count", "best_mask"],
               [[r.algorithm, r.dataset, r.seed, r.best_fitness, r.test_accuracy,
                 r.selected_count, mask_string(r.best_mask)] for r in results])
    write_rows(out / "timings.csv",
               ["seed", "wall_time_seconds"],
               [[r.seed, r.wall_time_seconds] for r in results])
    for r in results:
        write_rows(out / f"trace_{r.seed}.csv",
                   ["iteration", "best_fitness", "frog_count", "snake_count",
                    "predation_success"],
                   [[t.iteration, t.best_fitness, t.frog_count, t.snake_count,
                     int(t.predation_success)] for t in r.trace])


def _print_summary(dataset: Dataset, algorithm: str, summary) -> None:
    print(f"dataset={dataset.name} features={dataset.n_features} "
          f"instances={dataset.n_instances} classes={dataset.n_classes}")
    print(f"algorithm={algorithm} runs={summary.runs}")
    for name in ("mean_fitness", "best_fitness", "worst_fitness", "std_fitness",
                 "average_accuracy", "average_reduction", "average_time"):
        print(f"  {name:18s} {getattr(summary, name):.6f}")


def cmd_run(args) -> int:
    dataset = _load_dataset(args)
    algo_params = _params(ALGORITHMS[args.algorithm], args)
    fit_params = _params(FitnessParams, args)
    out = _output_dir(Path(args.out))
    results, summary = run_experiment(args.algorithm, dataset, algo_params,
                                      fit_params, args.runs, args.seed,
                                      workers=args.workers)
    out.mkdir(parents=True, exist_ok=True)
    _write_run_outputs(out, results, summary)
    _print_summary(dataset, args.algorithm, summary)
    print(f"wrote summary.csv, runs.csv, timings.csv and {len(results)} trace files to {out}")
    return 0


def cmd_compare(args) -> int:
    # required here, not by argparse, so a config file can supply it
    if args.algorithms is None:
        raise ConfigError("compare needs --algorithms ALGO_A ALGO_B")
    algo_a, algo_b = args.algorithms
    if algo_a == algo_b:
        raise ConfigError(f"compare needs two different algorithms, got {algo_a!r} twice")
    algo_params = {algo: _params(ALGORITHMS[algo], args) for algo in (algo_a, algo_b)}
    dataset = _load_dataset(args)
    fit_params = _params(FitnessParams, args)
    out = _output_dir(Path(args.out))
    results = {}
    for algo in (algo_a, algo_b):
        res, _ = run_experiment(algo, dataset, algo_params[algo],
                                fit_params, args.runs, args.seed,
                                workers=args.workers)
        results[algo] = res
    fits_a = [r.best_fitness for r in results[algo_a]]
    fits_b = [r.best_fitness for r in results[algo_b]]
    p_value, decision, direction = wilcoxon_signed_rank(fits_a, fits_b)
    # lower fitness is better: a positive direction means a's ranks larger
    better = {1: algo_b, -1: algo_a, 0: ""}[direction]
    out.mkdir(parents=True, exist_ok=True)
    write_rows(out / "paired.csv",
               ["seed", f"fitness_{algo_a}", f"fitness_{algo_b}"],
               [[r_a.seed, r_a.best_fitness, r_b.best_fitness]
                for r_a, r_b in zip(results[algo_a], results[algo_b])])
    write_rows(out / "comparison.csv",
               ["algorithm_a", "algorithm_b", "dataset", "runs", "p_value", "decision", "better"],
               [[algo_a, algo_b, dataset.name, args.runs, p_value, decision.value, better]])
    print(f"{algo_a} vs {algo_b} on {dataset.name}: "
          f"p={p_value:.6f} decision={decision.value} better={better or 'neither'}")
    print(f"wrote paired.csv and comparison.csv to {out}")
    return 0


def cmd_gen(args) -> int:
    path = Path(args.out)
    _output_dir(path.parent)
    dataset = _synthetic(args.synthetic, args.seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_csv(dataset, path)
    print(f"wrote {dataset.n_instances}x{dataset.n_features} dataset to {path}")
    return 0


def _add_data_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--dataset", help="CSV file with numeric features and one label column")
    source.add_argument("--synthetic", help="synthetic spec, e.g. m-of-n:6,3,7,1000")
    p.add_argument("--label-column", default="-1",
                   help="label column index or header name (default: last column)")
    p.add_argument("--no-header", action="store_true",
                   help="treat the first CSV row as data, not a header")


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    # A flag whose dest is the name of a params field sets that field in
    # every params class that has it (_params). Its default is the class's:
    # an absent flag sets no attribute.
    def param(*flag, **kwargs):
        p.add_argument(*flag, default=argparse.SUPPRESS, **kwargs)

    p.add_argument("--runs", type=int, default=30, help="number of seeded runs")
    param("--iterations", dest="max_iterations", type=int)
    param("--pop-size", dest="population_size", type=int)
    p.add_argument("--seed", type=int, default=1, help="base seed; run k uses seed+k")
    param("--alpha", type=float, help="weight of the error term in the fitness")
    param("--knn-k", dest="k_neighbors", type=int, metavar="KNN_K")
    p.add_argument("--out", default="fsro_out", help="output directory")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel run workers; pool workers share the CPUs' BLAS "
                        "threads, a serial run keeps them all")
    p.add_argument("--config", help="key=value file; explicit flags win")
    # frog-snake engine overrides
    param("--max-dis", type=float)
    param("--decision-dis", type=float)
    param("--w1", type=float)
    param("--w2", type=float)
    param("--d1", type=float)
    param("--d2", type=float)
    # ga overrides
    param("--crossover-rate", type=float)
    param("--mutation-rate", type=float)
    # bpso overrides
    param("--inertia", dest="inertia_weight", type=float)
    param("--cognitive", dest="cognitive_factor", type=float)
    param("--social", dest="social_factor", type=float)


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and its subcommands' parsers by name."""
    parser = argparse.ArgumentParser(
        prog="fsro",
        description="Frog-snake prey-predation optimization for feature selection",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    run_p = subs.add_parser("run", help="run one algorithm over M seeded runs")
    _add_data_flags(run_p)
    _add_run_flags(run_p)
    run_p.add_argument("--algorithm", choices=ALGORITHMS, default="fsro")
    run_p.set_defaults(func=cmd_run)

    cmp_p = subs.add_parser("compare", help="run two algorithms on identical seeds", description=(
        "Run two algorithms on identical seeds. paired.csv gets each run seed's best fitness "
        "per algorithm; comparison.csv gets the two-sided paired Wilcoxon signed-rank "
        f"p-value, the decision, '+' when p < {SIGNIFICANCE} (a significance level, not "
        "--alpha), and better, the algorithm whose best fitness ranks lower (the larger rank "
        "sum of improvements), empty when the rank sums are equal. The p-value is the exact "
        "signed-rank count for every number of nonzero differences, a ratio of integers with "
        "the same bits on every platform."))
    _add_data_flags(cmp_p)
    _add_run_flags(cmp_p)
    cmp_p.add_argument("--algorithms", nargs=2, choices=ALGORITHMS,
                       metavar=("ALGO_A", "ALGO_B"))
    cmp_p.set_defaults(func=cmd_compare)

    gen_p = subs.add_parser("gen", help="write a synthetic dataset to CSV")
    gen_p.add_argument("--synthetic", required=True, help="e.g. m-of-n:6,3,7,1000")
    gen_p.add_argument("--seed", type=int, default=1)
    gen_p.add_argument("--out", required=True, help="output CSV path")
    gen_p.set_defaults(func=cmd_gen)

    return parser, subs.choices


def _config_args(sub: argparse.ArgumentParser, path: str) -> list[str]:
    """The flag tokens that a file of key=value lines stands for, for argparse
    to parse and check as it does the command line.

    A key is a long flag's name, not its dest: pop-size (or pop_size) is
    --pop-size. A value becomes --key=value, or --key v1 v2 for a flag that
    takes several; a zero-argument flag is given bare for true and left out
    for false.
    """
    flags = {opt[2:].replace("-", "_"): (opt, a.nargs) for a in sub._actions
             if a.dest not in ("config", "help")
             for opt in a.option_strings if opt.startswith("--")}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}")
    tokens = {}  # flag -> its tokens; a key's last line wins, as on the command line
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        flag, nargs = flags.get(key.replace("-", "_"), (None, None))
        if flag is None:
            raise ConfigError(f"{path}:{ln}: unknown option {key!r}")
        if nargs != 0:
            tokens[flag] = [f"{flag}={value}"] if nargs is None else [flag, *value.split()]
        elif value.lower() not in ("true", "false"):
            raise ConfigError(f"{path}:{ln}: {key} takes true or false")
        else:
            tokens[flag] = [flag] if value.lower() == "true" else []
    return [token for flag_tokens in tokens.values() for token in flag_tokens]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, sub_map = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "config", None):
            # the file's flags go first, so explicit flags still win
            args = parser.parse_args(
                [argv[0], *_config_args(sub_map[args.command], args.config), *argv[1:]])
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        # run k uses seed + k, and a stream takes seeds below 2**64
        last = args.seed + max(getattr(args, "runs", 1), 1) - 1
        if last > MASK64:
            raise ConfigError(f"--seed {args.seed} gives run seeds up to {last}; "
                              "seeds must be below 2**64")
        return args.func(args)
    except (ConfigError, DataError, OSError) as e:
        # OSError: an output that cannot be written
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
