"""The benchmark's span table still names real, distinct package objects.

``bench/spans.py`` wraps each ``SPANS`` entry by identity.  A name that no
longer resolves breaks traced benchmark runs, and two names bound to one
object would be wrapped twice and count its calls twice.  Its hooks read
call arguments by position, so a traced ``train`` and a traced load and
serving run are run here as well.
"""
import importlib
import importlib.util
import math
from pathlib import Path

import cmcrank.training as training_module
from cmcrank.encoders import EmbeddingTable
from cmcrank.evaluation import SyntheticTaskSpec, generate_synthetic
from cmcrank.index import CandidateIndex
from cmcrank.pipeline import (MODE_FINAL, MODE_INTERMEDIATE, Pipeline, PipelineConfig,
                              gold_oracle_scorer)
from cmcrank.reranker import CmcParams

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans_module():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_span_table():
    return load_spans_module().SPANS


def resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(owner, cls_name).__dict__[meth]
    return getattr(owner, attr)


def test_every_span_resolves_to_a_distinct_object():
    seen = {}
    for _, module_name, attr, _ in load_span_table():
        assert module_name.split(".")[0] == "cmcrank"
        target = resolve(module_name, attr)
        name = f"{module_name}.{attr}"
        assert id(target) not in seen, f"{name} is the same object as {seen[id(target)]}"
        seen[id(target)] = name


def traced_train():
    """Train 6 queries (steps of 4 and 2 examples) for 3 epochs under the
    benchmark's tracer; returns the tracer, each span's name, the config
    and the query count."""
    data = generate_synthetic(SyntheticTaskSpec(
        corpus_size=200, confusables=4, surface_dim=12, latent_dim=4, seed=2))
    index = CandidateIndex(data.candidate_ids, data.retriever_embeddings)
    table = EmbeddingTable(data.candidate_ids, data.reranker_embeddings)
    queries, golds = data.query_embeddings[:6], data.gold_ids[:6]
    cfg = training_module.TrainingConfig(k_train=4, negative_pool_size=16,
                                         epochs=3, batch_size=4, seed=1)
    params = CmcParams.init(model_dim=16, head_count=2, seed=1)

    tracer = load_spans_module().Tracer()
    tracer.install()
    try:
        training_module.train(cfg, queries, golds, index, table, params)
    finally:
        tracer.uninstall()

    by_id = {sid: name for name, sid in tracer.name_id.items()}
    return tracer, [by_id[sid] for sid in tracer.names], cfg, len(queries)


def test_traced_train_counts_one_pool_search_per_query():
    tracer, names, cfg, n = traced_train()

    def inside_train(idx):
        while idx >= 0:
            if names[idx] == "training.train":
                return True
            idx = tracer.parents[idx]
        return False

    # The hook counts assembly calls: one per chunk of steps.
    chunk = cfg.batch_size * (training_module.CHUNK_EXAMPLES // cfg.batch_size)
    assert tracer.counts["training.pool_searches"] == cfg.epochs * math.ceil(n / chunk)
    searches = [i for i, name in enumerate(names) if name == "index.search_topk"]
    assert len(searches) == n
    assert all(inside_train(tracer.parents[i]) for i in searches)


def test_traced_train_runs_attention_once_per_example_on_2d_input():
    """The benchmark's attention counter unpacks an (L, d) input (a 3-D
    one makes it raise), so attention must stay one call per example and
    layer when a training step is batched."""
    tracer, names, cfg, n = traced_train()
    calls = cfg.epochs * n * 2  # two encoder layers
    assert names.count("nn.multi_head_self_attention") == calls
    length, dim = cfg.k_train + 1, 16
    assert tracer.counts["nn.attention_flops"] == calls * (
        8 * length * dim * dim + 4 * length * length * dim)


def test_traced_load_and_serving(tmp_path):
    """Load a checkpoint and serve 3 queries in each mode under the
    benchmark's tracer: one load span, one attention span per query and
    layer, and the attention counter at L = K + 1."""
    data = generate_synthetic(SyntheticTaskSpec(
        corpus_size=200, confusables=4, surface_dim=12, latent_dim=4, seed=2))
    index = CandidateIndex(data.candidate_ids, data.retriever_embeddings)
    table = EmbeddingTable(data.candidate_ids, data.reranker_embeddings)
    saved = CmcParams.init(model_dim=table.dim, head_count=2, seed=1)
    path = tmp_path / "model.cmcp"
    saved.save(path)
    gold = dict(zip(data.query_ids.tolist(), data.gold_ids.tolist()))
    k, queries = 8, list(zip(data.query_ids[:3].tolist(), data.query_embeddings[:3]))
    configs = [PipelineConfig(k_retrieve=k, k_prime=4, mode=MODE_FINAL),
               PipelineConfig(k_retrieve=k, k_prime=4, mode=MODE_INTERMEDIATE,
                              final_scorer=gold_oracle_scorer(gold))]

    tracer = load_spans_module().Tracer()
    tracer.install()
    try:
        params = CmcParams.load(path)
        pipe = Pipeline(index, params, table)
        results = [pipe.run_query(cfg, qid, q) for cfg in configs for qid, q in queries]
    finally:
        tracer.uninstall()

    assert params.flat.tobytes() == saved.flat.tobytes()
    # Only intermediate mode runs the final stage.
    assert [r.timings_us["final"] > 0 for r in results] == [False] * 3 + [True] * 3
    by_id = {sid: name for name, sid in tracer.name_id.items()}
    names = [by_id[sid] for sid in tracer.names]
    served = len(configs) * len(queries)
    assert names.count("reranker.CmcParams.load") == 1
    assert names.count("pipeline.Pipeline.run_query") == served
    assert names.count("nn.multi_head_self_attention") == 2 * served
    length, dim = k + 1, table.dim
    assert tracer.counts["nn.attention_flops"] == 2 * served * (
        8 * length * dim * dim + 4 * length * length * dim)
