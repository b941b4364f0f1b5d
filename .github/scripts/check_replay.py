"""Check that benchmark runs replay the digests in perfbench/baseline.json.

Usage:

    python3 .github/scripts/check_replay.py WORKLOAD...

For each workload it runs `perfbench/run.py --seed 1 --seconds 10 --trace 0`,
prints the run's output, and fails unless the run printed a replay digest
for variant 0, every variant's digest equals the baseline's, and the run's
oracle checks all passed.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def check(workload: str) -> None:
    text = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=ROOT, check=True, stdout=subprocess.PIPE, text=True).stdout
    print(text)
    baseline = json.loads((ROOT / "perfbench" / "baseline.json").read_text(encoding="utf-8"))
    want = baseline["workloads"][workload]["replay_digests"]
    got = dict(re.findall(r"^replay digest variant (\d+): (\w+)$", text, re.M))
    assert "0" in got, f"{workload}: no replay digest for variant 0"
    wrong = sorted(v for v, digest in got.items() if want.get(v) != digest)
    assert not wrong, f"{workload}: variants {wrong} differ from perfbench/baseline.json"
    assert json.loads(text.splitlines()[-1])["correct"], f"{workload}: an oracle check failed"


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    for name in sys.argv[1:]:
        check(name)
