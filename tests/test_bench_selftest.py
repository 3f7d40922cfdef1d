"""The benchmark's own toy-size self-test runs against the current source.

``bench/worker.py`` drives the package through its public calls (load,
build, open, train, serve); running the self-test here catches a source
change that breaks one of those calls before a benchmark run does.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    proc = subprocess.run([sys.executable, "bench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
