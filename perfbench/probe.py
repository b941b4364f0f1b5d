"""Run the fsro CLI as its console script does, recording set-up end and peak RSS.

Usage: python3 perfbench/probe.py RECORD.json CLI-ARGS...

The first call of `run_single` in each process (the CLI process, or each
forked pool worker) writes its clock reading to RECORD.json.<pid>; the
earliest of them ends set-up. At exit RECORD.json gets the exit code and the
peak RSS of the process and of its largest reaped worker.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def main() -> int:
    record = sys.argv[1]
    import fsro.bench
    import fsro.cli

    original = fsro.bench.run_single
    marked = []

    def run_single(*args, **kwargs):
        if not marked:
            marked.append(os.getpid())
            with open(f"{record}.{os.getpid()}", "w", encoding="utf-8") as f:
                f.write(repr(time.perf_counter()))
        return original(*args, **kwargs)

    fsro.bench.run_single = run_single
    code = fsro.cli.main(sys.argv[2:])
    with open(record, "w", encoding="utf-8") as f:
        json.dump({
            "exit": code,
            "self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "worker_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }, f)
    return code


if __name__ == "__main__":
    sys.exit(main())
