"""Mutation check: every mutant below must make the tests fail.

Each mutant is one textual replacement in a package file, which must match
exactly once, and the test files (or pytest node ids) that should catch it.
The script copies ``src/`` and ``tests/`` into a temporary directory, checks
that the named tests pass there unmutated, then applies each mutant to the
copy in turn, runs its tests with ``OPENBLAS_NUM_THREADS=1`` and puts the
file back.  A mutant is killed when its tests fail and survives when they
pass.  The checkout is only read.  A failing hypothesis test shrinks its
example for a minute or more, so a mutant that one catches names faster
tests that catch it too.  The idea is DeMillo, Lipton & Sayward, "Hints
on test data selection: help for the practicing programmer" (IEEE
Computer, 1978).

    python3 tools/mutants.py            # every mutant
    python3 tools/mutants.py ties       # mutants whose name contains "ties"

Prints one line per mutant (killed or survived, and seconds) and exits 1
if any mutant survives, 2 if a replacement does not match exactly once or
the unmutated tests fail.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str            # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "attention input gradient summed as q + (v + k)",
        "src/cmcrank/nn/attention.py",
        "    dx += linear_backward(_merge_heads(d_kh), (x, params.w_k), grads.w_k, grads.b_k)\n"
        "    dx += linear_backward(_merge_heads(d_vh), (x, params.w_v), grads.w_v, grads.b_v)\n",
        "    d_k = linear_backward(_merge_heads(d_kh), (x, params.w_k), grads.w_k, grads.b_k)\n"
        "    dx += linear_backward(_merge_heads(d_vh), (x, params.w_v), grads.w_v, grads.b_v) + d_k\n",
        ("tests/test_training.py::TestPinnedTraining",),
    ),
    Mutant(
        "stacked bias gradient from the first example only",
        "src/cmcrank/nn/ops.py",
        "np.sum(g.sum(axis=1), axis=0, out=out)",
        "np.sum(g[0], axis=0, out=out)",
        ("tests/test_attention.py", "tests/test_encoder_layer.py"),
    ),
    Mutant(
        "attention backward stacks its tape entries in reverse order",
        "src/cmcrank/nn/attention.py",
        "list(zip(*entries))[:6]",
        "list(zip(*entries[::-1]))[:6]",
        ("tests/test_attention.py::TestStackedBackward::"
         "test_equals_per_example_loop_bit_for_bit",
         "tests/test_training.py::TestPinnedTraining"),
    ),
    Mutant(
        "rank_by_score breaks ties by descending id",
        "src/cmcrank/index.py",
        "np.lexsort((ids[keep], ",
        "np.lexsort((~ids[keep], ",
        ("tests/test_index.py",),
    ),
    Mutant(
        "flush_tiny flushes nothing",
        "src/cmcrank/nn/ops.py",
        "    x[np.abs(x) < np.sqrt(np.finfo(x.dtype).tiny)] = 0.0\n",
        "",
        ("tests/test_training.py", "tests/test_reranker.py"),
    ),
    Mutant(
        "CmcParams.init rebinds arr instead of writing into it",
        "src/cmcrank/reranker.py",
        "arr[:] = 0.02 * rng.standard_normal(arr.shape)",
        "arr = 0.02 * rng.standard_normal(arr.shape)",
        ("tests/test_checkpoint.py",),
    ),
    Mutant(
        "assemble_batch_example draws the gold slot before the uniforms",
        "src/cmcrank/training.py",
        "        if n_sampled:\n"
        "            rng.random(out=uniforms[c])\n"
        "        slots[c] = rng.integers(0, k)\n",
        "        slots[c] = rng.integers(0, k)\n"
        "        if n_sampled:\n"
        "            rng.random(out=uniforms[c])\n",
        ("tests/test_training.py::TestPoolCache",
         "tests/test_training.py::TestPinnedTraining"),
    ),
    Mutant(
        "extra residual missing from the backward only",
        "src/cmcrank/reranker.py",
        "            dx += d_out\n",
        "",
        ("tests/test_gradcheck.py", "tests/test_training.py::TestPinnedTraining"),
    ),
    Mutant(
        "rank_by_score takes ids and scores of different lengths",
        "src/cmcrank/index.py",
        "if ids.ndim != 1 or scores.shape != ids.shape:",
        "if ids.ndim != 1:",
        ("tests/test_index.py::TestSearch::test_ids_and_scores_of_different_shapes_rejected",),
    ),
    Mutant(
        "run_batch normalizes accuracy by the K' survivors, not the retrieved pool",
        "src/cmcrank/pipeline.py",
        "in_pool=retrieved > 0, ",
        "",
        ("tests/test_pipeline.py::TestRunBatch::"
         "test_normalized_accuracy_counts_golds_in_the_retrieved_pool",),
    ),
)


def run_tests(work: Path, tests: tuple[str, ...]) -> bool:
    """True if the tests pass in ``work``."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=str(work / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or any(a in m.name for a in argv)]
    if not chosen:
        print(f"no mutant matches {argv}", file=sys.stderr)
        return 2
    for m in chosen:
        count = (ROOT / m.path).read_text(encoding="utf-8").count(m.old)
        if count != 1:
            print(f"mutant {m.name!r}: its text occurs {count} times in {m.path}, "
                  "not once", file=sys.stderr)
            return 2
    survived = 0
    with tempfile.TemporaryDirectory(prefix="cmcrank-mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        if not run_tests(work, tuple(sorted({t for m in chosen for t in m.tests}))):
            print("the unmutated tests fail; no mutant was run", file=sys.stderr)
            return 2
        for m in chosen:
            target = work / m.path
            original = target.read_text(encoding="utf-8")
            target.write_text(original.replace(m.old, m.new), encoding="utf-8")
            start = time.perf_counter()
            try:
                killed = not run_tests(work, m.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            survived += not killed
            print(f"{'killed  ' if killed else 'SURVIVED'} {time.perf_counter() - start:6.1f} s"
                  f"  {m.name}  ({', '.join(m.tests)})", flush=True)
    print(f"{len(chosen) - survived} of {len(chosen)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
