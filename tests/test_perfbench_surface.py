"""The fsro names the benchmark harness in perfbench/ imports, wraps and
patches still exist, so a src/ change that drops or renames one fails here,
in tier-1, rather than in a benchmark run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# harness imports tracer, micro, oracle and workloads; the tracer looks its
# targets up when it is installed, and probe.py patches bench.run_single
CHECK = """
import sys
sys.path[:0] = sys.argv[1:]
import fsro.bench, fsro.cli
import harness
with harness.Tracer().installed():
    pass
assert callable(fsro.bench.run_single) and callable(fsro.cli.main)
"""


def test_the_benchmark_harness_imports_and_its_tracer_installs(tmp_path):
    # -B: no bytecode is written into perfbench/ or src/
    done = subprocess.run([sys.executable, "-B", "-c", CHECK,
                           str(ROOT / "perfbench"), str(ROOT / "src")],
                          cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
