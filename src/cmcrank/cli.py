"""Command-line front door.

Subcommands: build-index, generate-synthetic, train, rerank, evaluate,
bench.  Common flags: --config, --show-config.  --seed is taken by the
subcommands that read it (generate-synthetic, train, rerank, bench), and
--threads by rerank.

Exit codes: 0 success, 1 usage error (message on stderr), 2 data or format
error or a missing or unreadable file, 3 a ``bench`` run in which some K
failed (its row says why; the table and report are still written).  Any
other exception is a bug and ends with a traceback.  Text inputs are read
by ``fileio.text_records`` and binary ones by
``fileio.read_checked``, so a format error names its path, and in a text
input its ``path:line``.  Output files are written atomically; input files
are never mutated.  Config precedence is flag > config file > built-in default;
config-file values are parsed as flags placed before the command line's
own, so argparse checks their types and choices.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import evaluation, training
from .encoders import (EMBEDDING_MAGIC, EmbeddingTable, _naming_file, _parse_id,
                       load_embedding_file, load_embedding_text, save_embedding_file)
from .errors import CmcRankError, DuplicateId, FormatError, InvalidInput, NumericError
from .fileio import atomic_write_text, text_records
from .index import CandidateIndex, build_index, open_index
from .pipeline import (MODE_FINAL, MODE_INTERMEDIATE, Pipeline, PipelineConfig,
                       gold_oracle_scorer, noisy_oracle_scorer)
from .reranker import CmcParams

DEFAULT_SEED = 0

RETRIEVER_EMBEDDINGS = "retriever_embeddings.cmce"
RERANKER_EMBEDDINGS = "reranker_embeddings.cmce"
QUERY_EMBEDDINGS = "queries.cmce"
GOLD_FILE = "gold.txt"
TASK_MANIFEST = "task.cfg"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems instead of exiting with code 2."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for where, line in text_records(path):
        key, eq, value = line.partition("=")
        if not eq:
            raise UsageError(f"{where}: expected key=value, got {line!r}")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_tokens(parser: argparse.ArgumentParser, values: dict[str, str]) -> list[str]:
    """Option tokens for the config-file keys ``parser`` knows; a
    ``store_true`` key adds its flag only when its value is true."""
    tokens = []
    for action in parser._actions:
        if action.dest not in values or not action.option_strings or action.dest == "help":
            continue
        raw, flag = values[action.dest], action.option_strings[0]
        if action.nargs != 0:
            tokens.append(f"{flag}={raw}")
        elif raw.lower() in ("1", "true", "yes", "on"):
            tokens.append(flag)
    return tokens


def _show_config(args: argparse.Namespace) -> None:
    skip = {"func", "show_config", "config"}
    for key in sorted(vars(args)):
        if key not in skip:
            print(f"{key} = {getattr(args, key)}")


def _parse_int_list(text: str, flag: str) -> list[int]:
    """The integers of a comma-separated ``flag`` value: at least one."""
    try:
        values = [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag}: expected a comma-separated integer list, "
                         f"got {text!r}") from exc
    if not values:
        raise UsageError(f"{flag}: expected at least one integer, got {text!r}")
    return values


def _load_embeddings_any(path: str):
    """Binary embedding file, or the text form as a fallback."""
    with open(path, "rb") as fh:
        binary = fh.read(4) == EMBEDDING_MAGIC
    return (load_embedding_file if binary else load_embedding_text)(path)


def _load_gold(path: str | Path) -> dict[int, int]:
    gold: dict[int, int] = {}
    for where, line in text_records(path):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"{where}: expected 'query_id gold_id', got {line!r}")
        query_id, gold_id = (_parse_id(p, where) for p in parts)
        if query_id in gold:
            raise DuplicateId(f"{where}: query id {query_id} appears more than once")
        gold[query_id] = gold_id
    return gold


def _golds_for(query_ids, gold: dict[int, int], path: str | Path) -> list[int]:
    """The gold of each query id; a query without one names ``path``."""
    try:
        return [gold[int(q)] for q in query_ids]
    except KeyError as exc:
        raise InvalidInput(f"{path}: no gold for query id {exc.args[0]}") from None


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_build_index(args) -> int:
    ids, matrix = _load_embeddings_any(args.embeddings)
    with _naming_file(args.embeddings):
        build_index(ids, matrix, args.out)
    print(f"indexed {len(ids)} candidates of dim {matrix.shape[1]} -> {args.out}")
    return 0


def _cmd_generate_synthetic(args) -> int:
    spec = evaluation.SyntheticTaskSpec(
        corpus_size=args.corpus_size, confusables=args.confusables,
        surface_dim=args.surface_dim, latent_dim=args.latent_dim,
        surface_noise=args.surface_noise, seed=args.seed)
    data = evaluation.generate_synthetic(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    save_embedding_file(out / RETRIEVER_EMBEDDINGS, data.candidate_ids,
                        data.retriever_embeddings)
    save_embedding_file(out / RERANKER_EMBEDDINGS, data.candidate_ids,
                        data.reranker_embeddings)
    save_embedding_file(out / QUERY_EMBEDDINGS, data.query_ids,
                        data.query_embeddings)
    atomic_write_text(out / GOLD_FILE, "".join(
        f"{int(q)} {int(g)}\n" for q, g in zip(data.query_ids, data.gold_ids)))
    atomic_write_text(out / TASK_MANIFEST, "".join(
        f"{k} = {v}\n" for k, v in sorted(vars(spec).items())))
    print(f"wrote {len(data.candidate_ids)} candidates, "
          f"{len(data.query_ids)} queries -> {out}")
    return 0


def _cmd_train(args) -> int:
    if args.holdout_every < 0:
        raise UsageError(f"--holdout-every must be 0 or more, got {args.holdout_every}")
    data_dir = Path(args.data_dir)
    index = CandidateIndex.from_file(data_dir / RETRIEVER_EMBEDDINGS)
    candidates = EmbeddingTable.from_file(data_dir / RERANKER_EMBEDDINGS)
    qids, queries = load_embedding_file(data_dir / QUERY_EMBEDDINGS)
    gold = _load_gold(data_dir / GOLD_FILE)

    cfg = training.TrainingConfig(
        lambda1=args.lambda1, lambda2=args.lambda2, k_train=args.k_train,
        fixed_fraction=args.fixed_fraction,
        negative_pool_size=args.negative_pool_size, base_lr=args.lr,
        batch_size=args.batch_size, epochs=args.epochs, seed=args.seed)

    # Queries listed in the gold file but reserved for evaluation (every
    # fifth by default) are excluded from training.
    keep = np.ones(len(qids), dtype=bool)
    if args.holdout_every > 0:
        keep[::args.holdout_every] = False
    train_qids, train_q = qids[keep], queries[keep]
    # train() can name only a row of train_q; name the file's query id.
    finite = np.isfinite(train_q).all(axis=1)
    if not finite.all():
        raise NumericError(
            f"training query id {int(train_qids[np.argmin(finite)])} is not finite")
    train_gold = _golds_for(train_qids, gold, data_dir / GOLD_FILE)

    params = CmcParams.init(model_dim=candidates.dim, head_count=args.heads,
                            seed=args.seed)
    out = Path(args.out)

    def save_epoch(epoch, p, _log):
        p.save(out.with_name(f"{out.stem}.epoch{epoch}{out.suffix}"))

    log = training.train(cfg, train_q, train_gold, index, candidates, params,
                         epoch_callback=save_epoch)
    params.save(out)
    if args.log:
        atomic_write_text(args.log, log.to_csv())
    first, last = log.epoch_mean_loss(1), log.epoch_mean_loss(cfg.epochs)
    print(f"trained {cfg.epochs} epochs over {len(train_q)} queries; "
          f"mean loss {first:.4f} -> {last:.4f}; checkpoint -> {out}")
    return 0


def _cmd_rerank(args) -> int:
    if args.threads < 1:
        raise UsageError(f"--threads must be 1 or more, got {args.threads}")
    if args.scorer != "none" and not args.gold:
        raise UsageError(f"--scorer {args.scorer} requires --gold")
    if args.mode == MODE_INTERMEDIATE and args.scorer == "none":
        raise UsageError("--mode intermediate requires --scorer gold-oracle "
                         "or noisy-oracle")

    index = open_index(args.index)
    params = CmcParams.load(args.checkpoint)
    candidates = EmbeddingTable.from_file(args.embeddings)
    qids, queries = load_embedding_file(args.queries)
    gold = _load_gold(args.gold) if args.gold else None

    scorer = None
    if args.scorer == "gold-oracle":
        scorer = gold_oracle_scorer(gold)
    elif args.scorer == "noisy-oracle":
        scorer = noisy_oracle_scorer(gold, seed=args.seed)

    cfg = PipelineConfig(k_retrieve=args.k_retrieve, k_prime=args.k_prime,
                         mode=args.mode, final_scorer=scorer)
    pipe = Pipeline(index, params, candidates)
    results, metrics, errors = pipe.run_batch(
        cfg, list(zip((int(q) for q in qids), queries)),
        gold_by_query=gold, threads=args.threads)

    atomic_write_text(args.out, "\n".join(
        f"{r.query_id},{r.top1_id},{r.timings_us['retrieve']:.0f},"
        f"{r.timings_us['rerank']:.0f},{r.timings_us['final']:.0f}" for r in results) + "\n")
    if args.rankings_out:
        atomic_write_text(args.rankings_out, "\n".join(
            f"{r.query_id},{' '.join(str(int(c)) for c in r.reranked.ids)}"
            for r in results) + "\n")
    for qid, exc in errors.items():
        print(f"query {qid} failed: {exc}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.4f}")
    print(f"reranked {len(results)} queries -> {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    cutoffs = _parse_int_list(args.k, "--k")
    gold = _load_gold(args.gold)
    rankings: dict[int, list[int]] = {}
    for where, line in text_records(args.rankings):
        qid_text, _, ranked_text = line.partition(",")
        query_id = _parse_id(qid_text, where)
        if query_id in rankings:
            raise DuplicateId(f"{where}: query id {query_id} appears more than once")
        rankings[query_id] = [_parse_id(c, where) for c in ranked_text.split()]
    gold_ids = _golds_for(rankings, gold, args.gold)
    metrics = evaluation.compute_metrics(
        evaluation.gold_ranks(list(rankings.values()), gold_ids), cutoffs)
    if args.out:
        atomic_write_text(args.out, evaluation.metrics_to_csv(metrics))
    for name, value in metrics.items():
        if name.startswith("accuracy"):
            print(f"{name.replace('_', ' ')}: {100.0 * value:.1f}%")
        else:
            print(f"{name}: {value:.4f}")
    return 0


def _cmd_bench(args) -> int:
    ks = _parse_int_list(args.k, "--k")
    if args.checkpoint:
        params = CmcParams.load(args.checkpoint)
    else:
        params = CmcParams.init(model_dim=args.dim, seed=args.seed)
    report = evaluation.bench_latency(params, ks, repeats=args.repeats, seed=args.seed)
    atomic_write_text(args.out, report.to_csv())
    print(report.to_table())
    print(f"report -> {args.out}")
    failed = [row.k for row in report.rows if row.error is not None]
    if failed:
        print(f"error: {len(failed)} of {len(ks)} K values failed: "
              f"{', '.join(map(str, failed))}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# Wiring


def _build_parser() -> tuple[_Parser, dict[str, argparse.ArgumentParser]]:
    parser = _Parser(prog="cmcrank",
                     description="retrieve-and-rerank engine (index, rerank, "
                                 "train, evaluate, bench)")
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value config file; flags win")
        p.add_argument("--show-config", action="store_true", dest="show_config")

    p = subparsers["build-index"] = sub.add_parser(
        "build-index", help="build a search index from embeddings")
    p.add_argument("--embeddings", required=True,
                   help="binary embedding file or 'id v1,v2,...' text file")
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_build_index)

    p = subparsers["generate-synthetic"] = sub.add_parser(
        "generate-synthetic",
        help="write the synthetic confusables task to a directory")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--corpus-size", type=int, default=5000)
    p.add_argument("--confusables", type=int, default=8)
    p.add_argument("--surface-dim", type=int, default=48)
    p.add_argument("--latent-dim", type=int, default=16)
    p.add_argument("--surface-noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p)
    p.set_defaults(func=_cmd_generate_synthetic)

    p = subparsers["train"] = sub.add_parser(
        "train", help="train the reranker on a generated task")
    p.add_argument("--data-dir", required=True)
    p.add_argument("--out", required=True, help="final checkpoint path")
    p.add_argument("--log", help="training log CSV path")
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--k-train", type=int, default=64)
    p.add_argument("--lr", type=float, default=1e-5)
    p.add_argument("--batch-size", type=int, default=4)
    p.add_argument("--lambda1", type=float, default=0.5)
    p.add_argument("--lambda2", type=float, default=0.5)
    p.add_argument("--fixed-fraction", type=float, default=0.5)
    p.add_argument("--negative-pool-size", type=int, default=1024)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--holdout-every", type=int, default=5,
                   help="hold out every n-th query from training (0 = none)")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p)
    p.set_defaults(func=_cmd_train)

    p = subparsers["rerank"] = sub.add_parser(
        "rerank", help="run the retrieve+rerank pipeline")
    p.add_argument("--index", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--embeddings", required=True, help="reranker-side embeddings")
    p.add_argument("--queries", required=True)
    p.add_argument("--out", required=True,
                   help="per-query 'qid,top1,retrieve_us,rerank_us,final_us' lines")
    p.add_argument("--rankings-out", help="per-query 'qid,id id id ...' lines")
    p.add_argument("--k-retrieve", type=int, default=512)
    p.add_argument("--k-prime", type=int, default=64)
    p.add_argument("--mode", choices=[MODE_FINAL, MODE_INTERMEDIATE],
                   default=MODE_FINAL)
    p.add_argument("--scorer", choices=["none", "gold-oracle", "noisy-oracle"],
                   default="none")
    p.add_argument("--gold", help="gold assignment file (query_id gold_id lines)")
    p.add_argument("--threads", type=int, default=1,
                   help="max worker threads over the query batch")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p)
    p.set_defaults(func=_cmd_rerank)

    p = subparsers["evaluate"] = sub.add_parser(
        "evaluate", help="compute metrics for a rankings file")
    p.add_argument("--rankings", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--k", default="1,4,8,16,64", help="comma-separated recall cutoffs")
    p.add_argument("--out", help="metric table CSV path")
    common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = subparsers["bench"] = sub.add_parser(
        "bench", help="forward-latency benchmark across K")
    p.add_argument("--k", default="128,256,512,1024,2048,4096,8192,16384")
    p.add_argument("--dim", type=int, default=64,
                   help="model dim of the random params; a checkpoint has its own")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--checkpoint", help="reranker checkpoint; random params if absent")
    p.add_argument("--out", default="bench_report.csv")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common(p)
    p.set_defaults(func=_cmd_bench)

    return parser, subparsers


def run_command(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser, subparsers = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # File values go before the user's own arguments, so argparse
            # checks them and any flag given on the command line wins.
            tokens = _config_tokens(subparsers[args.command],
                                    _load_config_file(args.config))
            args = parser.parse_args(argv[:1] + tokens + argv[1:])
        if args.show_config:
            _show_config(args)
            return 0
        return args.func(args)
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except CmcRankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # a missing or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
