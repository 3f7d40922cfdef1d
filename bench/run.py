"""Benchmark entry point for the cmcrank retrieve-and-rerank engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The script writes the workload's
seeded inputs (CMCE embedding files, a CMCP checkpoint, the gold list)
under ``.bench_work/``, then starts the measured process (worker.py) with
BLAS held to one thread, so input generation counts in neither ``setup_s``
nor ``peak_rss_mb``.  Earlier stdout lines carry the environment and a
readable summary; the last line is the JSON result.  With ``--trace 1`` the
result holds the per-layer metrics and the spans are written to
``.bench_out/trace-<workload>-seed<seed>.jsonl``.  See README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from workloads import (BLAS_THREAD_VARS, END_TO_END, HEAD_COUNT,
                       MODEL_DIM_LATENT, MODEL_DIM_SURFACE, WORKLOADS, Workload)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TIME_LIMIT_S = 170.0


def write_inputs(wl: Workload, seed: int, workdir: Path) -> None:
    import cmcrank as cr
    data = cr.generate_synthetic(cr.SyntheticTaskSpec(
        corpus_size=wl.corpus_size, surface_dim=MODEL_DIM_SURFACE,
        latent_dim=MODEL_DIM_LATENT, seed=seed))
    cr.save_embedding_file(workdir / "retriever.cmce", data.candidate_ids,
                           data.retriever_embeddings)
    cr.save_embedding_file(workdir / "reranker.cmce", data.candidate_ids,
                           data.reranker_embeddings)
    cr.save_embedding_file(workdir / "queries.cmce", data.query_ids,
                           data.query_embeddings)
    (workdir / "gold.txt").write_text("".join(
        f"{int(q)} {int(g)}\n" for q, g in zip(data.query_ids, data.gold_ids)))
    cr.CmcParams.init(model_dim=data.spec.model_dim, head_count=HEAD_COUNT,
                      seed=seed).save(workdir / "reranker.cmcp")


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            trace_out: Path | None = None, deadline: float | None = None) -> dict:
    """Write inputs, run the worker on them and return its raw result."""
    workdir = ROOT / ".bench_work" / f"{wl.name}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        write_inputs(wl, seed, workdir)
        out = workdir / "result.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
               "--workdir", str(workdir), "--workload", json.dumps(asdict(wl)),
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(int(trace)), "--out", str(out)]
        if trace_out is not None:
            trace_out.parent.mkdir(parents=True, exist_ok=True)
            cmd += ["--trace-out", str(trace_out)]
        timeout = None if deadline is None else max(1.0, deadline - time.monotonic())
        # The worker's stdout goes to stderr: the last stdout line is ours.
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=timeout)
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(raw: dict, trace: bool) -> dict:
    """The result object: end-to-end metrics, or per-layer ones if traced."""
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in raw["per_layer"].items()}
    else:
        metrics = {name: {"value": raw["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def pin_blas_threads() -> None:
    """Hold BLAS to one thread in this process and the worker it starts.

    Must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    if not (SRC / "cmcrank" / "__init__.py").is_file():
        print(f"no cmcrank sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    pin_blas_threads()
    sys.path.insert(0, str(SRC))

    wl = WORKLOADS[args.workload]
    trace_out = (ROOT / ".bench_out" / f"trace-{wl.name}-seed{args.seed}.jsonl"
                 if args.trace else None)
    raw = measure(wl, args.seed, args.seconds, bool(args.trace), trace_out, deadline)

    print(json.dumps({"env": raw["env"]}))
    for error in raw["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    for name, unit in {**END_TO_END, "final_loss": "nat"}.items():
        print(f"{name} = {raw['metrics'][name]!r} {unit}")
    print(f"error_rate = {raw['failed'] / raw['attempted']!r} ratio "
          f"({raw['failed']} of {raw['attempted']} operations failed)")
    if args.trace:
        print(f"trace -> {trace_out}")
    print(json.dumps(report(raw, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
