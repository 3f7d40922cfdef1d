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
        "attention score guard always true: exp unshifted whatever the bound",
        "src/cmcrank/nn/attention.py",
        "    small = qq * kk <= SCORE_MARGIN ** 2 and vv < math.inf\n",
        "    small = True\n",
        ("tests/test_attention.py::TestScoreBound",),
    ),
    Mutant(
        "attention score guard always false: every block max-shifted",
        "src/cmcrank/nn/attention.py",
        "    small = qq * kk <= SCORE_MARGIN ** 2 and vv < math.inf\n",
        "    small = False\n",
        ("tests/test_pipeline.py::TestPinnedServing",
         "tests/test_training.py::TestPinnedTraining"),
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
        "scan blocks start one row late",
        "src/cmcrank/index.py",
        "            lo = block * self.rows\n",
        "            lo = block * self.rows + 1\n",
        ("tests/test_index.py::TestSplitScan",),
    ),
    Mutant(
        "scan leaves the remainder rows a block of their own",
        "src/cmcrank/index.py",
        "self.blocks = len(matrix) // rows",
        "self.blocks = -(-len(matrix) // rows)",
        ("tests/test_index.py::TestSplitScan",),
    ),
    Mutant(
        "block select keeps exactly k rows, not every row tied with the k-th",
        "src/cmcrank/index.py",
        "                return np.flatnonzero(scores >= kth), kth\n",
        "                return np.argpartition(-scores, k - 1)[:k], kth\n",
        ("tests/test_index.py::TestBlockSelect",),
    ),
    Mutant(
        "block select keeps nothing when its k-th score is NaN",
        "src/cmcrank/index.py",
        "            if kth == kth:\n                return np.flatnonzero(scores >= kth), kth\n",
        "            return np.flatnonzero(scores >= kth), kth\n",
        ("tests/test_index.py::TestBlockSelect::"
         "test_overflow_in_one_block_equals_ranking_every_score",),
    ),
    Mutant(
        "block select under a bound keeps exactly k candidates, not their ties",
        "src/cmcrank/index.py",
        "        return keep[values >= kth], kth\n",
        "        return keep[np.argpartition(-values, k - 1)[:k]], kth\n",
        ("tests/test_index.py::TestBlockSelect",),
    ),
    Mutant(
        "block select takes its bound from the block's top score, not its k-th",
        "src/cmcrank/index.py",
        "                return np.flatnonzero(scores >= kth), kth\n",
        "                return np.flatnonzero(scores >= kth), scores.max()\n",
        ("tests/test_index.py::TestBlockSelect",),
    ),
    Mutant(
        "scan splits below the d floor",
        "src/cmcrank/index.py",
        " and dim >= SPLIT_MIN_DIM:",
        ":",
        ("tests/test_pipeline.py::TestSplitScan::test_unsplit_scan_starts_no_helper",),
    ),
    Mutant(
        "scan splits over a multi-threaded BLAS",
        "src/cmcrank/parallel.py",
        " or not blas_single_threaded():",
        ":",
        ("tests/test_pipeline.py::TestSplitScan::test_multithreaded_blas_keeps_one_product",),
    ),
    Mutant(
        "scan asks for helpers on CPUs other scans hold",
        "src/cmcrank/parallel.py",
        "min(cpus - _cpus_held - 1, blocks - 1)",
        "min(cpus - 1, blocks - 1)",
        ("tests/test_pipeline.py::TestSplitScan::test_no_helper_for_cpus_other_scans_hold",),
    ),
    Mutant(
        "run_batch workers leave their CPUs to scan helpers",
        "src/cmcrank/pipeline.py",
        "with workers_hold_cpus(threads - 1), ThreadPoolExecutor(threads) as pool:",
        "with ThreadPoolExecutor(threads) as pool:",
        ("tests/test_pipeline.py::TestSplitScan::test_batch_workers_leave_no_cpu_for_helpers",),
    ),
    Mutant(
        "a forked child keeps its parent's helper pool",
        "src/cmcrank/parallel.py",
        "    os.register_at_fork(after_in_child=_forget_pool)\n",
        "    pass\n",
        ("tests/test_pipeline.py::TestSplitScan::test_split_scan_starts_a_helper_and_exits",),
    ),
    Mutant(
        "a helper writes its query-row block one row late",
        "src/cmcrank/nn/attention.py",
        "            lo = b * block\n",
        "            lo = b * block + (\"helper\" in __import__(\"threading\").current_thread().name)\n",
        ("tests/test_attention.py::TestSplitForward::test_equals_one_thread_bit_for_bit",),
    ),
    Mutant(
        "attention splits below the block floor",
        "src/cmcrank/nn/attention.py",
        "    if blocks < SPLIT_MIN_BLOCKS or not parallel.run_blocks(blocks, start):\n",
        "    if not parallel.run_blocks(blocks, start):\n",
        ("tests/test_pipeline.py::TestSplitAttention::test_below_the_floor_starts_no_helper",),
    ),
    Mutant(
        "attention asks for helpers on CPUs the ledger holds",
        "src/cmcrank/parallel.py",
        "min(cpus - _cpus_held - 1, blocks - 1)",
        "min(cpus - 1, blocks - 1)",
        ("tests/test_pipeline.py::TestSplitAttention::"
         "test_batch_workers_leave_no_cpu_for_attention_helpers",),
    ),
    Mutant(
        "attention helpers share one score scratch",
        "src/cmcrank/nn/attention.py",
        "        scratch = np.empty((h, block, length), dtype=qh.dtype) if attn is None else None\n",
        "        scratch = start.__dict__.setdefault(\"shared\", np.empty((h, block, length), "
        "dtype=qh.dtype)) if attn is None else None\n",
        ("tests/test_attention.py::TestSplitForward::"
         "test_each_thread_scores_into_its_own_scratch",),
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
    Mutant(
        "text_records keeps comment lines",
        "src/cmcrank/fileio.py",
        "if (line := line.strip()) and not line.startswith(\"#\"):",
        "if (line := line.strip()):",
        ("tests/test_cli.py::TestEvaluateFixture::"
         "test_comment_lines_skipped_in_every_text_input",
         "tests/test_encoders.py::TestEmbeddingFile::"
         "test_text_import_errors_name_path_and_line"),
    ),
    Mutant(
        "rank_by_score wraps negative ids into uint64",
        "src/cmcrank/index.py",
        "ids, scores = _as_ids(ids), np.asarray(scores)",
        "ids, scores = np.asarray(ids, dtype=np.uint64), np.asarray(scores)",
        ("tests/test_index.py::TestSearch::test_bad_ids_rejected_not_wrapped",),
    ),
    Mutant(
        "run_command reports a ValueError or KeyError as a data error",
        "src/cmcrank/cli.py",
        "    except OSError as exc:  # a missing or unreadable file\n",
        "    except (OSError, ValueError, KeyError) as exc:\n",
        ("tests/test_cli.py::TestExitCodes::test_programming_error_is_not_a_data_error",),
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
