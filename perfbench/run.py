"""Paper-shaped benchmark of the fsro CLI: FSRO, GA and BPSO on one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload {narrow,large} --seed N \
        --seconds S --trace {0,1}

The seed makes the workload's dataset, written as CSV before any timing, and
the CLI's base seeds, which all three algorithms share so their runs pair.
Every CLI output is checked by the oracle in oracle.py and must replay byte
for byte.

--trace 0 runs rounds of three `fsro run` commands, one per algorithm, each
its own process, until --seconds have passed; successive rounds cycle
through a few base seeds. It reports the end-to-end metrics as medians over
rounds (set-up: over every command).
--trace 1 runs one such round for the pool numbers, then the same three
commands in-process at one worker, once plain and once under the spans and
counters of tracer.py, then the layer microbenchmarks of micro.py, and
reports the per-layer metrics.

Metric names and units come from BENCHMARK.json. Every metric is printed by
name with its unit; the last line of stdout is the JSON result. The command
exits 2 without a result when the fsro sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "fsro" / "__init__.py").is_file():
        _die(f"no fsro sources under {ROOT / 'src'}; run from a full checkout")
    if args.seed < 0 or args.seconds < 1:
        _die("--seed must be >= 0 and --seconds >= 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    from harness import Bench, end_to_end, per_layer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _die(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds)
    metrics = per_layer(bench) if args.trace else end_to_end(bench)
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = {w["name"] for w in wanted} ^ set(metrics)
    if missing:
        _die(f"benchmark bug: metrics and BENCHMARK.json disagree on {sorted(missing)}")
    for variant, digest in bench.digests.items():
        print(f"replay digest variant {variant}: {digest}")
    for reason in bench.failures[:20]:
        print(f"FAILED {reason}")
    print(f"{'metric':40s} {'value':>18s} unit")
    for w in wanted:
        print(f"{w['name']:40s} {metrics[w['name']]:18.6f} {w['unit']}")
    shutil.rmtree(bench.work, ignore_errors=True)
    print(json.dumps({
        "correct": bench.failed == 0 and not bench.failures,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {w["name"]: {"value": metrics[w["name"]], "unit": w["unit"]} for w in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
