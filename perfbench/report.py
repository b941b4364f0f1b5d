"""Run every workload untraced and traced; print every metric by name and unit.

Usage (from the repository root):

    python3 perfbench/report.py [--seed N] [--seconds S] [--baseline PATH]

With --baseline the numbers, replay digests and deterministic values are
also written to PATH as JSON (perfbench/baseline.json holds the seed
commit's).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC = ("rng.draws.", "fitness.calls.", "fitness.unique.", "fitness.hit_rate.",
                 "_mean_fitness")


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict[str, str]]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    # "replay digest variant N: HEX", one line per CLI seed variant
    digests = {line.split()[3].rstrip(":"): line.split()[-1]
               for line in lines if line.startswith("replay digest variant ")}
    return json.loads(lines[-1]), digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    report = {"seed": args.seed, "seconds": seconds, "machine": {
        "arch": platform.machine(), "cpus": os.cpu_count(),
        "python": platform.python_version()}, "workloads": {}}
    ok = True
    print(f"{'workload':8s} {'metric':34s} {'value':>18s} unit")
    for workload in (w["name"] for w in spec["workloads"]):
        entry = report["workloads"][workload] = {}
        digests: dict[str, str] = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, found = run(workload, args.seed, seconds, trace)
            if any(digests.get(v, d) != d for v, d in found.items()):
                ok = False
                print(f"{workload:8s} REPLAY DIGESTS DIFFER between traced and untraced runs")
            digests.update(found)
            ok &= result["correct"]
            entry[kind] = {k: v["value"] for k, v in result["metrics"].items()}
            entry[f"{kind}_runs"] = {"attempted": result["attempted"],
                                     "failed": result["failed"]}
            for name, m in result["metrics"].items():
                print(f"{workload:8s} {name:34s} {m['value']:18.6f} {m['unit']}")
        entry["replay_digests"] = dict(sorted(digests.items()))
        entry["deterministic"] = {k: v for k, v in entry["per_layer"].items()
                                  if any(tag in k for tag in DETERMINISTIC)}
        for variant, digest in sorted(digests.items()):
            print(f"{workload:8s} replay digest variant {variant}: {digest}")
    if args.baseline:
        args.baseline.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print("all outputs correct" if ok else "SOME OUTPUTS FAILED THE ORACLE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
