"""Toy-size self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload shrunk to a 2,000-candidate corpus, untraced and
traced, and asserts that each run is correct and emits exactly the metrics
BENCHMARK.json names, each with its unit and a finite value.  Takes about
ten seconds.
"""
from __future__ import annotations

import dataclasses
import json
import math
import sys

import run
from workloads import WORKLOADS


def toy(wl):
    return dataclasses.replace(wl, corpus_size=2000, serve_queries=20,
                               min_rounds=2, train_queries=8,
                               setup_repeats=2, epochs=2)


def main() -> int:
    run.pin_blas_threads()
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for wl in WORKLOADS.values():
        for trace in (0, 1):
            out = run.report(run.measure(toy(wl), seed=7, seconds=0.1,
                                         trace=bool(trace)), bool(trace))
            assert out["correct"] and out["failed"] == 0, (wl.name, trace, out)
            assert out["attempted"] >= 1
            got = {name: m["unit"] for name, m in out["metrics"].items()}
            assert got == expected[trace], (wl.name, trace,
                                             set(got) ^ set(expected[trace]))
            for name, m in out["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            print(f"{wl.name} trace={trace}: {len(got)} metrics ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
