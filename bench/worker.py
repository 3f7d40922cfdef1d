"""The measured process: one workload on inputs that run.py already wrote.

Usage (run.py starts it; the BLAS thread variables are set in its
environment before numpy loads):

    python3 bench/worker.py --root DIR --workdir DIR --workload JSON
                            --seed N --seconds S --trace 0|1 --out FILE
                            [--trace-out FILE]

It sets up, trains and serves once untraced.  With ``--trace 1`` it then
installs the span wrappers and runs the same phases again, so per-layer
numbers and the tracing overhead come from the same process and inputs.
The result is written as JSON to ``--out``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from workloads import (BLAS_THREAD_VARS, TRAIN_BATCH, TRAIN_K, TRAIN_LR,
                       TRAIN_POOL, TRAIN_SEED, Workload)

# Read before numpy is imported, so these are the values BLAS starts with.
THREAD_ENV = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}

import numpy as np  # noqa: E402

from spans import FINAL_SCORER_SPAN, Tracer  # noqa: E402

REFERENCE_QUERIES = 8     # queries per run checked against the exact reference
SCORE_TOLERANCE = 1e-5    # float32 scan vs float64 reference


def environment() -> dict:
    """Cores, BLAS build, pinning variables and the real thread count."""
    a = np.ones((64, 64), dtype=np.float32)
    (a @ a).sum()  # first BLAS call: starts the BLAS thread pool if any
    threads = len(os.listdir("/proc/self/task"))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    try:
        import threadpoolctl  # noqa: F401
        has_threadpoolctl = True
    except ImportError:
        has_threadpoolctl = False
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "threadpoolctl_imports": has_threadpoolctl,
        "blas_thread_env": THREAD_ENV,
        "os_threads_after_blas": threads,
    }


@dataclass
class Phase:
    """What one pass through set-up, training and serving measured."""

    setup_s: list[float] = field(default_factory=list)
    epoch_s: list[list[float]] = field(default_factory=list)   # per training run
    final_losses: list[float] = field(default_factory=list)
    latency_s: dict[int, list[float]] = field(default_factory=dict)  # per query
    retrieve_us: list[float] = field(default_factory=list)
    rerank_us: list[float] = field(default_factory=list)
    held_out: int = 0
    hits: int = 0
    gold_in_pool: int = 0
    gold_in_kprime: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    start_ns: int = 0
    end_ns: int = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(what)


@dataclass
class World:
    index: object
    table: object
    params: object
    query_ids: np.ndarray
    queries: np.ndarray


def set_up(cr, workdir: Path) -> World:
    """The CLI's path from files on disk to a ready pipeline."""
    ids, retriever = cr.load_embedding_file(workdir / "retriever.cmce")
    cr.build_index(ids, retriever, workdir / "index.cmci")
    del ids, retriever
    index = cr.open_index(workdir / "index.cmci")
    table = cr.EmbeddingTable.from_file(workdir / "reranker.cmce")
    params = cr.CmcParams.load(workdir / "reranker.cmcp")
    query_ids, queries = cr.load_embedding_file(workdir / "queries.cmce")
    return World(index, table, params, query_ids, queries)


def reference_topk(matrix, ids: np.ndarray, query: np.ndarray, k: int):
    """Exact (score desc, id asc) top-k in float64, scanned in chunks."""
    q = query.astype(np.float64)
    scores = np.empty(len(ids), dtype=np.float64)
    for lo in range(0, len(ids), 65536):
        scores[lo:lo + 65536] = np.asarray(matrix[lo:lo + 65536], dtype=np.float64) @ q
    order = np.lexsort((ids, -scores))[:k]
    return ids[order], scores


def check_retrieval(result, world: World, k: int) -> str | None:
    got, ids = result.retrieved.ids, world.index.ids
    if len(got) != k or len(np.unique(got)) != k:
        return f"retrieved {len(got)} ids ({len(np.unique(got))} unique), expected {k}"
    if np.any(ids[np.minimum(np.searchsorted(ids, got), len(ids) - 1)] != got):
        return "retrieved an id outside the corpus"
    return None


def check_rerank(result, k_prime: int) -> str | None:
    kept = result.reranked.ids
    if len(kept) != k_prime or len(np.unique(kept)) != k_prime:
        return f"reranked {len(kept)} ids, expected {k_prime} unique"
    if not np.all(np.isin(kept, result.retrieved.ids)):
        return "reranked ids are not a subset of the retrieved ids"
    return None


def check_reference(result, world: World, query: np.ndarray, k: int) -> str | None:
    """The retrieved list matches the exact reference: the same scores in
    order (within float32 rounding) and ascending ids across exact ties."""
    ref_ids, scores = reference_topk(world.index.matrix, world.index.ids, query, k)
    got = result.retrieved.ids
    row = np.searchsorted(world.index.ids, got)
    got_scores = scores[row]
    ref_scores = scores[np.searchsorted(world.index.ids, ref_ids)]
    if np.max(np.abs(got_scores - ref_scores)) > SCORE_TOLERANCE:
        return "retrieval differs from the exact reference"
    tie = got_scores[1:] == got_scores[:-1]
    if np.any(got[1:][tie] <= got[:-1][tie]):
        return "tied scores are not in ascending id order"
    return None


def load_gold(path: Path) -> dict[int, int]:
    gold = {}
    for line in path.read_text().splitlines():
        q, g = line.split()
        gold[int(q)] = int(g)
    return gold


def train_once(cr, world: World, wl: Workload, train_idx, golds, phase: Phase):
    """One training run from the loaded checkpoint; returns the params."""
    cfg = cr.TrainingConfig(k_train=TRAIN_K, negative_pool_size=TRAIN_POOL,
                            base_lr=TRAIN_LR, batch_size=TRAIN_BATCH,
                            epochs=wl.epochs, seed=TRAIN_SEED)
    phase.attempted += 1
    params = world.params.copy()
    stamps = [time.perf_counter()]
    log = cr.train(cfg, world.queries[train_idx], golds[train_idx],
                   world.index, world.table, params,
                   epoch_callback=lambda *_: stamps.append(time.perf_counter()))
    phase.epoch_s.append(np.diff(stamps).tolist())
    loss = log.epoch_mean_loss(wl.epochs)
    if phase.final_losses and loss != phase.final_losses[0]:
        phase.fail(f"final_loss not reproduced: {loss!r} != {phase.final_losses[0]!r}")
    phase.final_losses.append(loss)
    return params


def serve_one(pipe, pcfg, world: World, wl: Workload, qi: int, gold_id: int,
              held_out_first_pass: bool, check_exact: bool, phase: Phase,
              tracer: Tracer | None) -> None:
    """Time one query through the pipeline, then check its result."""
    qid, query = int(world.query_ids[qi]), world.queries[qi]
    phase.attempted += 1
    if tracer is not None:
        tracer.query_id = qid
    t0 = time.perf_counter()
    try:
        result = pipe.run_query(pcfg, qid, query)
    except Exception:  # one failed query must not end the run
        phase.fail(f"query {qid}: {traceback.format_exc(limit=3)}")
        return
    finally:
        if tracer is not None:
            tracer.query_id = -1
    phase.latency_s.setdefault(qid, []).append(time.perf_counter() - t0)
    phase.retrieve_us.append(result.timings_us["retrieve"])
    phase.rerank_us.append(result.timings_us["rerank"])
    problem = (check_retrieval(result, world, wl.k_retrieve)
               or check_rerank(result, wl.k_prime))
    if problem is None and check_exact:
        problem = check_reference(result, world, query, wl.k_retrieve)
    if problem is not None:
        phase.fail(f"query {qid}: {problem}")
    if held_out_first_pass:
        phase.held_out += 1
        phase.hits += result.top1_id == gold_id
        phase.gold_in_pool += bool(np.any(result.retrieved.ids == gold_id))
        phase.gold_in_kprime += bool(np.any(result.reranked.ids == gold_id))


def run_phases(cr, workdir: Path, wl: Workload, seed: int, seconds: float,
               gold: dict[int, int], tracer: Tracer | None) -> Phase:
    phase = Phase(start_ns=time.perf_counter_ns())

    # -- set-up: repeated; the last world is kept ----------------------------
    world = None
    for _ in range(wl.setup_repeats):
        world = None
        phase.attempted += 1
        t0 = time.perf_counter()
        world = set_up(cr, workdir)
        phase.setup_s.append(time.perf_counter() - t0)

    # Held-out split as in the acceptance suite (every fifth query); the
    # samples are drawn from the seed, held-out queries first.
    every = np.arange(len(world.query_ids))
    held_out = every[::5]
    trainable = np.setdiff1d(every, held_out)
    rng = np.random.default_rng(seed)
    train_idx = np.sort(rng.choice(trainable, wl.train_queries, replace=False))
    serve_idx = np.concatenate([rng.permutation(held_out),
                                rng.permutation(trainable)])[:wl.serve_queries]
    is_held_out = serve_idx % 5 == 0
    golds = np.asarray([gold[int(q)] for q in world.query_ids], dtype=np.uint64)

    scorer = None
    if wl.mode == "intermediate":
        scorer = cr.noisy_oracle_scorer(gold, seed=seed)
        if tracer is not None:
            scorer = tracer.wrap(FINAL_SCORER_SPAN, scorer)
    pcfg = cr.PipelineConfig(k_retrieve=wl.k_retrieve, k_prime=wl.k_prime,
                             mode=wl.mode, final_scorer=scorer)

    # -- rounds of (train once, serve the sample) until `seconds` have passed -
    # Interleaving spreads every timing metric over the whole window, and
    # repeating each query and epoch once a round gives end_to_end() several
    # samples of each, taken seconds apart.  The serving order is shuffled
    # every round, so the queries that follow a training run (cold caches)
    # are different ones each time.
    # Every training run must reproduce the first one's loss bit for bit;
    # queries are served with the first run's weights.
    window_start = time.perf_counter()
    pipe = None
    rounds = 0
    while rounds < wl.min_rounds or time.perf_counter() - window_start < seconds:
        params = train_once(cr, world, wl, train_idx, golds, phase)
        if pipe is None:
            pipe = cr.Pipeline(world.index, params, world.table)
        for n in rng.permutation(len(serve_idx)):
            qi = serve_idx[n]
            serve_one(pipe, pcfg, world, wl, qi, int(golds[qi]),
                      held_out_first_pass=rounds == 0 and is_held_out[n],
                      check_exact=rounds == 0 and n < REFERENCE_QUERIES,
                      phase=phase, tracer=tracer)
        rounds += 1
    phase.end_ns = time.perf_counter_ns()
    return phase


def end_to_end(phase: Phase, peak_rss_mib: float) -> dict[str, float]:
    # A query, or an epoch, is the same work in every round, and other
    # tenants of a shared machine can only slow it down, so its time is the
    # fastest of its repeats.  Percentiles and medians are then taken
    # across distinct queries and epochs.
    lat_ms = np.asarray([min(t) for t in phase.latency_s.values()]) * 1e3
    epochs = np.min(np.asarray(phase.epoch_s), axis=0)
    return {
        "setup_s": statistics.median(phase.setup_s),
        "peak_rss_mb": peak_rss_mib,
        "query_qps": 1e3 / lat_ms.mean(),
        "query_p50_ms": float(np.percentile(lat_ms, 50)),
        "query_p95_ms": float(np.percentile(lat_ms, 95)),
        "recall_at_1": phase.hits / phase.held_out,
        "epoch_s": float(np.median(epochs)),
        "final_loss": phase.final_losses[-1],
    }


def per_layer(traced: Phase, untraced: Phase, tracer: Tracer) -> dict[str, tuple[float, str]]:
    wall_ns = traced.end_ns - traced.start_ns
    out = tracer.span_metrics(wall_ns)
    counts = tracer.counts
    searches = out["index.search_topk.calls"][0]
    out["index.bytes_scanned"] = (counts["index.bytes_scanned"] / max(searches, 1), "B/query")
    out["encoders.rows_gathered"] = (counts["encoders.rows_gathered"], "count")
    out["nn.attention_flops"] = (counts["nn.attention_flops"], "flop")
    out["nn.attention_bytes"] = (counts["nn.attention_bytes"], "B")
    out["training.pool_repeat_ratio"] = (
        counts["training.pool_repeats"] / max(counts["training.pool_searches"], 1), "ratio")
    # Stage timings and useful-outcome ratios come from the untraced pass.
    query_us = sum(sum(t) for t in untraced.latency_s.values()) * 1e6
    out["pipeline.retrieve_ms"] = (float(np.median(untraced.retrieve_us)) / 1e3, "ms")
    out["pipeline.rerank_ms"] = (float(np.median(untraced.rerank_us)) / 1e3, "ms")
    out["pipeline.retrieve_share"] = (float(np.sum(untraced.retrieve_us)) / query_us, "ratio")
    out["pipeline.rerank_share"] = (float(np.sum(untraced.rerank_us)) / query_us, "ratio")
    out["pipeline.gold_in_pool"] = (untraced.gold_in_pool / untraced.held_out, "ratio")
    out["pipeline.gold_in_kprime"] = (untraced.gold_in_kprime / untraced.held_out, "ratio")
    plain, spanned = end_to_end(untraced, 0.0), end_to_end(traced, 0.0)
    out["trace.query_qps_ratio"] = (spanned["query_qps"] / plain["query_qps"], "ratio")
    out["trace.epoch_s_ratio"] = (spanned["epoch_s"] / plain["epoch_s"], "ratio")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--workload", required=True, help="Workload fields as JSON")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--trace-out")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    src = Path(args.root) / "src"
    sys.path.insert(0, str(src))
    import cmcrank as cr
    if Path(cr.__file__).resolve().parent != (src / "cmcrank").resolve():
        raise SystemExit(f"imported cmcrank from {cr.__file__}, not {src}")

    env = environment()
    wl = Workload(**json.loads(args.workload))
    workdir = Path(args.workdir)
    gold = load_gold(workdir / "gold.txt")

    untraced = run_phases(cr, workdir, wl, args.seed, args.seconds, gold, None)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"env": env, "attempted": untraced.attempted, "failed": untraced.failed,
              "errors": untraced.errors,
              "metrics": end_to_end(untraced, peak)}

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            traced = run_phases(cr, workdir, wl, args.seed, args.seconds, gold, tracer)
        finally:
            tracer.uninstall()
        result["attempted"] += traced.attempted
        result["failed"] += traced.failed
        result["errors"] += traced.errors
        result["per_layer"] = {k: list(v) for k, v in per_layer(traced, untraced, tracer).items()}
        if args.trace_out:
            tracer.write_jsonl(args.trace_out, traced.start_ns)

    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
