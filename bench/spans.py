"""Span tracing installed from outside the package.

``Tracer.install`` replaces each public function or method named in
``SPANS`` with a wrapper that records a span (name, start, end, parent,
query id).  A function imported by name into another module is replaced in
every ``cmcrank`` module that holds it, so each caller's lookup goes
through the wrapper; methods are replaced on their class.  Spans are kept
in memory and written as JSON lines by ``write_jsonl`` when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# -- counters recorded at span boundaries ------------------------------------

def _count_scan(tracer, idx, args, result):
    tracer.counts["index.bytes_scanned"] += args[0].matrix.nbytes


def _count_rows(tracer, idx, args, result):
    tracer.counts["encoders.rows_gathered"] += len(result)


def _count_attention(tracer, idx, args, result):
    # multi_head_self_attention delegates short sequences to
    # attention_forward; count each attention once, at the outer span.
    parent = tracer.parents[idx]
    if parent >= 0 and tracer.names[parent] == tracer.name_id[
            "nn.multi_head_self_attention"]:
        return
    length, dim = args[0].shape
    heads = args[1].head_count
    # Q/K/V/output projections plus the score and attention x V products.
    tracer.counts["nn.attention_flops"] += 8 * length * dim * dim + 4 * length * length * dim
    # float32 bytes: the (heads, L, L) probabilities written and read once,
    # input, Q, K, V and output activations, and the four weight matrices.
    tracer.counts["nn.attention_bytes"] += 4 * (
        2 * heads * length * length + 5 * length * dim + 4 * dim * dim)


def _count_train(tracer, idx, args, result):
    tracer.seen_pool_queries.clear()


def _count_pool(tracer, idx, args, result):
    # The query vector identifies the pool search; within one train() call
    # every query recurs once per epoch.
    key = np.asarray(args[0], dtype=np.float32).tobytes()
    tracer.counts["training.pool_searches"] += 1
    if key in tracer.seen_pool_queries:
        tracer.counts["training.pool_repeats"] += 1
    tracer.seen_pool_queries.add(key)


# (span layer, defining module, attribute, counter run after each call)
SPANS = (
    ("index", "cmcrank.index", "open_index", None),
    ("index", "cmcrank.index", "build_index", None),
    ("index", "cmcrank.index", "search_topk", _count_scan),
    ("index", "cmcrank.index", "rank_by_score", None),
    ("index", "cmcrank.index", "CandidateIndex.scores_for", None),
    ("encoders", "cmcrank.encoders", "load_embedding_file", None),
    ("encoders", "cmcrank.encoders", "EmbeddingTable.__init__", None),
    ("encoders", "cmcrank.encoders", "EmbeddingTable.batch", _count_rows),
    ("encoders", "cmcrank.encoders", "encode", None),
    ("nn", "cmcrank.nn.attention", "multi_head_self_attention", _count_attention),
    ("nn", "cmcrank.nn.attention", "attention_forward", _count_attention),
    ("nn", "cmcrank.nn.attention", "attention_backward", None),
    ("nn", "cmcrank.nn.ops", "softmax_rows", None),
    ("nn", "cmcrank.nn.ops", "layer_norm", None),
    ("nn", "cmcrank.nn.ops", "layer_norm_forward", None),
    ("nn", "cmcrank.nn.ops", "linear_forward", None),
    ("nn", "cmcrank.nn.ops", "gelu", None),
    ("nn", "cmcrank.nn.layer", "encoder_layer_forward", None),
    ("nn", "cmcrank.nn.layer", "encoder_layer_forward_recorded", None),
    ("nn", "cmcrank.nn.layer", "encoder_layer_backward", None),
    ("nn", "cmcrank.nn.optim", "adamw_step", None),
    ("reranker", "cmcrank.reranker", "CmcParams.load", None),
    ("reranker", "cmcrank.reranker", "rerank", None),
    ("reranker", "cmcrank.reranker", "cmc_forward", None),
    ("reranker", "cmcrank.reranker", "cmc_forward_recorded", None),
    ("reranker", "cmcrank.reranker", "cmc_score", None),
    ("reranker", "cmcrank.reranker", "CmcTape.backward", None),
    ("training", "cmcrank.training", "train", _count_train),
    ("training", "cmcrank.training", "assemble_batch_example", _count_pool),
    ("training", "cmcrank.training", "sample_negatives", None),
    ("training", "cmcrank.training", "compute_loss", None),
    ("pipeline", "cmcrank.pipeline", "Pipeline.run_query", None),
)

#: The wrapped final scorer is a closure, so the worker wraps it itself.
FINAL_SCORER_SPAN = "pipeline.final_scorer"


def span_names() -> list[str]:
    return [f"{layer}.{attr}" for layer, _, attr, _ in SPANS] + [FINAL_SCORER_SPAN]


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.name_id: dict[str, int] = {}
        self.names: list[int] = []
        self.parents: list[int] = []
        self.queries: list[int] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.stack: list[int] = []
        self.query_id = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.seen_pool_queries: set[bytes] = set()
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        sid = self.name_id.setdefault(name, len(self.name_id))
        names, parents, queries = self.names, self.parents, self.queries
        starts, ends, stack = self.starts, self.ends, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(starts)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            queries.append(self.query_id)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, idx, args, result)
            return result

        return span

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "cmcrank" or n.startswith("cmcrank.")]
        for layer, module_name, attr, hook in SPANS:
            name = f"{layer}.{attr}"
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    patched = classmethod(self.wrap(name, raw.__func__, hook))
                else:
                    patched = self.wrap(name, raw, hook)
                self._patch(cls, meth, patched)
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def self_times_ns(self) -> np.ndarray:
        """Each span's duration minus the time its child spans cover."""
        starts = np.asarray(self.starts, dtype=np.int64)
        durations = np.asarray(self.ends, dtype=np.int64) - starts
        parents = np.asarray(self.parents, dtype=np.int64)
        covered = np.zeros_like(durations)
        has_parent = parents >= 0
        np.add.at(covered, parents[has_parent], durations[has_parent])
        return durations - covered

    def span_metrics(self, wall_ns: int) -> dict[str, tuple[float, str]]:
        """Per span name: calls, median self time per call, busy share."""
        self_ns = self.self_times_ns()
        names = np.asarray(self.names, dtype=np.int64)
        out: dict[str, tuple[float, str]] = {}
        for name in span_names():
            sid = self.name_id.get(name, -1)
            mine = self_ns[names == sid]
            out[f"{name}.calls"] = (float(len(mine)), "count")
            if name != FINAL_SCORER_SPAN:
                # The final scorer never runs in final mode, so it reports
                # calls and busy share but no per-call time.
                out[f"{name}.self_ms"] = (
                    float(np.median(mine)) / 1e6 if len(mine) else 0.0, "ms")
            out[f"{name}.busy_share"] = (float(mine.sum()) / wall_ns, "ratio")
        return out

    def write_jsonl(self, path, origin_ns: int) -> None:
        by_id = {sid: name for name, sid in self.name_id.items()}
        self_ns = self.self_times_ns()
        with open(path, "w", encoding="utf-8") as fh:
            for i, sid in enumerate(self.names):
                fh.write(json.dumps({
                    "span": i, "name": by_id[sid],
                    "start_ns": self.starts[i] - origin_ns,
                    "end_ns": self.ends[i] - origin_ns,
                    "self_ns": int(self_ns[i]),
                    "parent": self.parents[i], "query": self.queries[i],
                }) + "\n")
