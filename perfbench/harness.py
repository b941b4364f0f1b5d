"""Measurement logic behind run.py: rounds of CLI commands, the traced run,
the oracle checks and the metric arithmetic. run.py puts src/ on the path
before importing this module.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import fsro.cli
import micro
from fsro.data import load_csv
from oracle import Oracle, replay_digest
from tracer import Tracer
from workloads import ALGORITHMS, POPULATION, VARIANTS, write_csv

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
DEADLINE_S = 170.0


class Bench:
    def __init__(self, workload, seed: int, seconds: int):
        self.started = time.perf_counter()
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.work = WORK / f"{workload.name}-s{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.data = self.work / "data.csv"
        write_csv(workload, seed, self.data)
        self.oracle = Oracle(self.data)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[int, str] = {}  # CLI seed variant -> replay digest

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def cli_args(self, algo: str, out: Path, workers: int, variant: int) -> list[str]:
        wl = self.workload
        return ["run", "--dataset", str(self.data.relative_to(ROOT)), "--algorithm", algo,
                "--runs", str(wl.runs), "--iterations", str(wl.iterations),
                "--pop-size", str(POPULATION), "--seed", str(wl.cli_seed(self.seed, variant)),
                "--workers", str(workers), "--out", str(out.relative_to(ROOT))]

    def check(self, label: str, outs: dict, exit_codes: dict, variant: int) -> None:
        """Oracle-check one set of three commands and record its replay digest."""
        runs = self.workload.runs
        failed = 0
        for algo, out in outs.items():
            if exit_codes[algo] != 0:
                reasons = [f"exit code {exit_codes[algo]}"] * runs
            else:
                base = self.workload.cli_seed(self.seed, variant)
                reasons = self.oracle.check_command(out, list(range(base, base + runs)),
                                                    self.workload.iterations)
            self.failures += [f"{label}/{algo}: {r}" for r in reasons]
            failed += min(runs, len(reasons))
        digest = replay_digest(list(outs.values()))
        if self.digests.setdefault(variant, digest) != digest:
            # outputs must replay byte for byte, so every run of this set fails
            self.failures.append(f"{label}: replay digest differs")
            failed = runs * len(outs)
        self.attempted += runs * len(outs)
        self.failed += failed

    def mean_fitness(self, out: Path) -> float:
        with open(out / "summary.csv", newline="", encoding="utf-8") as f:
            return float(next(csv.DictReader(f))["mean_fitness"])

    def run_process(self, algo: str, out: Path, variant: int) -> dict:
        """One CLI command as its own process; wall, set-up and peak RSS."""
        record = out.parent / f"{algo}.probe.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        cmd = [sys.executable, str(Path(__file__).with_name("probe.py")), str(record),
               *self.cli_args(algo, out, self.workload.workers, variant)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            err = b"timed out"
        wall = time.perf_counter() - start
        marks = [float(p.read_text()) for p in out.parent.glob(f"{algo}.probe.json.*")]
        result = {"wall": wall, "exit": proc.returncode,
                  "setup": min(marks) - start if marks else None, "rss_mb": None}
        if record.is_file():
            rec = json.loads(record.read_text())  # worker_kb is 0 without a pool
            result["rss_mb"] = (rec["self_kb"] + self.workload.workers * rec["worker_kb"]) / 1024
        if proc.returncode != 0:
            print(f"perfbench: {algo} exited {proc.returncode}: "
                  f"{err.decode(errors='replace').strip()[-500:]}", file=sys.stderr)
        return result

    def process_round(self, label: str, variant: int) -> dict:
        base = self.work / label
        base.mkdir(parents=True)
        results, outs = {}, {}
        for algo in ALGORITHMS:
            outs[algo] = base / algo
            results[algo] = self.run_process(algo, outs[algo], variant)
        self.check(label, outs, {a: r["exit"] for a, r in results.items()}, variant)
        return {"results": results, "outs": outs}

    def in_process(self, label: str, tracers: dict | None = None) -> dict:
        """The three commands in this process at one worker; wall per command."""
        walls, outs, codes = {}, {}, {}
        for algo in ALGORITHMS:
            outs[algo] = self.work / label / algo
            args = self.cli_args(algo, outs[algo], workers=1, variant=0)
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                if tracers is None:
                    codes[algo] = fsro.cli.main(args)
                else:
                    tracer = tracers[algo] = Tracer()
                    with tracer.installed():
                        codes[algo] = tracer.wrap("cli.main", fsro.cli.main)(args)
                walls[algo] = time.perf_counter() - start
        self.check(label, outs, codes, variant=0)
        return {"walls": walls, "outs": outs}


def _median(values) -> float:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else float("nan")


def _run_times(out: Path) -> list[float]:
    with open(out / "timings.csv", newline="", encoding="utf-8") as f:
        return [float(r["wall_time_seconds"]) for r in csv.DictReader(f)]


def end_to_end(bench: Bench) -> dict[str, float]:
    rounds = []
    measure_start = time.perf_counter()
    while True:
        r = len(rounds)
        rounds.append(bench.process_round(f"round{r}", r % VARIANTS))
        print(f"round {r}: " + " ".join(
            f"{a}_s={res['wall']:.4f}" for a, res in rounds[-1]["results"].items()))
        elapsed = time.perf_counter() - measure_start
        per_round = elapsed / len(rounds)
        if elapsed + per_round > bench.seconds or bench.remaining() < 3 * per_round:
            break
    walls = {a: [r["results"][a]["wall"] for r in rounds] for a in ALGORITHMS}
    metrics = {
        "setup_s": _median(r["results"][a]["setup"] for r in rounds for a in ALGORITHMS),
        "experiment_s": _median(sum(r["results"][a]["wall"] for a in ALGORITHMS)
                                for r in rounds),
        **{f"{a}_s": _median(walls[a]) for a in ALGORITHMS},
        "peak_rss_mb": _median(max((r["results"][a]["rss_mb"] or 0.0) for a in ALGORITHMS)
                               for r in rounds),
    }
    metrics["run_pass_ratio"] = 1.0 - bench.failed / bench.attempted
    print(f"rounds measured: {len(rounds)}")
    return metrics


def per_layer(bench: Bench) -> dict[str, float]:
    wl = bench.workload
    pooled = bench.process_round("pool", variant=0)
    plain = bench.in_process("plain")
    tracers: dict = {}
    traced = bench.in_process("traced", tracers)

    run_time = {a: sum(_run_times(plain["outs"][a])) for a in ALGORITHMS}
    pool_runs = {a: _run_times(pooled["outs"][a]) for a in ALGORITHMS}
    dataset = load_csv(bench.data)
    m = {}
    m.update(micro.rng_metrics(dataset.n_features, bench.seed))
    m.update(micro.engine_metrics(dataset.n_features, bench.seed))
    m.update(micro.fitness_metrics(dataset, bench.seed))
    m["data.load_csv_s"] = micro.load_csv_seconds(bench.data)

    for algo, t in tracers.items():
        m[f"rng.draws.{algo}"] = t.counts["rng.draws"]
        m[f"rng.share_est.{algo}"] = (t.counts["rng.draws"] * m["rng.next_raw_ns"] * 1e-9
                                      / run_time[algo])
        calls, unique = t.counts["fitness.calls"], t.counts["fitness.unique"]
        m[f"fitness.calls.{algo}"] = calls
        m[f"fitness.unique.{algo}"] = unique
        m[f"fitness.hit_rate.{algo}"] = 1.0 - unique / calls if calls else 0.0
        fit_self = sum(sum(t.self_times(n)) for n in
                       ("fitness.setup", "fitness.call", "fitness.accuracy"))
        m[f"fitness.self_s.{algo}"] = fit_self
        m[f"fitness.share.{algo}"] = fit_self / sum(t.durations("bench.run_single"))
        m[f"bench.run_s_p50.{algo}"] = statistics.median(pool_runs[algo])
        m[f"{algo}_mean_fitness"] = bench.mean_fitness(traced["outs"][algo])
    m["engine.step_ms"] = _median(tracers["fsro"].durations("engine.step")) * 1e3
    m["engine.step_self_ms"] = _median(tracers["fsro"].self_times("engine.step")) * 1e3
    m["baselines.ga_step_self_ms"] = _median(tracers["ga"].self_times("baselines.ga_step")) * 1e3
    m["baselines.bpso_step_self_ms"] = _median(
        tracers["bpso"].self_times("baselines.bpso_step")) * 1e3
    m["data.split_ms"] = _median(d for t in tracers.values()
                                 for d in t.durations("data.stratified_split")) * 1e3
    pool_walls = sum(pooled["results"][a]["wall"] for a in ALGORITHMS)
    m["bench.pool_efficiency"] = (sum(sum(v) for v in pool_runs.values())
                                  / (wl.workers * pool_walls))
    m["cli.overhead_s"] = sum(t.durations("cli.main")[0] - t.durations("bench.run_experiment")[0]
                              for t in tracers.values())
    m["trace.overhead_ratio"] = (sum(t.durations("cli.main")[0] for t in tracers.values())
                                 / sum(plain["walls"].values()))

    spans = WORK / f"spans-{wl.name}-s{bench.seed}.jsonl"
    spans.unlink(missing_ok=True)
    for algo, t in tracers.items():
        t.dump(spans, algo)
    print(f"spans written to {spans.relative_to(ROOT)}")
    _design_checks(wl.name, m)
    return m


def _design_checks(name: str, m: dict) -> None:
    """Print whether the trace confirms what the workload was built to load."""
    if name == "narrow":
        checks = {"fitness is the majority of FSRO run time":
                  m["fitness.share.fsro"] > 0.5}
    else:
        checks = {"evaluator holds no distance stack": abs(m["fitness.stack_mb"]) < 0.01}
    for text, holds in checks.items():
        print(f"design {name}: {text}: {'holds' if holds else 'DOES NOT HOLD'}")
