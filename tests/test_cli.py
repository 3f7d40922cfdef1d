"""Command-line interface: exit codes, reproducibility, file hygiene."""
import hashlib
import struct
import zlib

import numpy as np
import pytest

from cmcrank import cli
from cmcrank.cli import _load_gold, run_command
from cmcrank.encoders import EmbeddingTable, load_embedding_file, save_embedding_file
from cmcrank.errors import FormatError
from cmcrank.reranker import CmcParams


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv):
    return run_command(list(argv))


@pytest.fixture()
def task_dir(tmp_path):
    rc = run("generate-synthetic", "--out-dir", str(tmp_path / "task"),
             "--corpus-size", "240", "--confusables", "4",
             "--surface-dim", "12", "--latent-dim", "4", "--seed", "5")
    assert rc == 0
    return tmp_path / "task"


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        assert run("bench", "--not-a-flag") == 1
        err = capsys.readouterr().err
        assert "usage" in err.lower()

    def test_threads_only_on_rerank(self, tmp_path, capsys):
        """--threads is used only by rerank, so only rerank accepts it."""
        assert run("bench", "--threads", "2") == 1
        assert run("rerank", "--index", "x", "--checkpoint", "y",
                   "--embeddings", "z", "--queries", "q", "--out", "o",
                   "--threads", "2", "--show-config") == 0
        assert "threads = 2" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ("build-index", "--embeddings", "e", "--out", "o"),
        ("evaluate", "--rankings", "r", "--gold", "g")])
    def test_seed_only_where_read(self, argv):
        """build-index and evaluate draw nothing at random, so neither
        takes --seed."""
        assert run(*argv, "--show-config") == 0
        assert run(*argv, "--seed", "3", "--show-config") == 1

    def test_missing_subcommand(self):
        assert run() == 1

    def test_format_error_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cmce"
        bad.write_bytes(b"garbage that is not an embedding file")
        assert run("build-index", "--embeddings", str(bad),
                   "--out", str(tmp_path / "x.cmci")) == 2
        assert "error" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("kind, where, what", [
        ("not UTF-8", ":2", "not UTF-8 (byte 0xff"),
        ("repeated id", ":3", "candidate id 1 appears more than once"),
        ("repeated binary id", "", "candidate id 1 appears more than once"),
        ("truncated", "", "CMCE file is 48 bytes, expected 56"),
        ("flipped payload byte", "", "CMCE file checksum mismatch")],
        ids=["not-utf8", "repeated-text-id", "repeated-binary-id", "truncated", "flipped-byte"])
    def test_input_error_names_its_file(self, tmp_path, capsys, kind, where, what):
        """A bad embedding file exits 2 with its path (and line, for the
        text form) in the message."""
        path = tmp_path / "bad.emb"
        save_embedding_file(path, [1, 2], np.ones((2, 2), dtype=np.float32))
        binary = path.read_bytes()
        # Ids 1, 1 with a matching CRC32: the 24-byte header ends with the
        # CRC at bytes 18-21 and 2 pad bytes.
        payload = binary[24:32] * 2 + binary[40:]
        repeated = binary[:18] + struct.pack("<I", zlib.crc32(payload)) + b"\0\0" + payload
        path.write_bytes({
            "not UTF-8": b"1 0.5,0.5\n2 \xff.5,0.5\n",
            "repeated id": b"1 0.5,0.5\n2 0.1,0.2\n1 0.3,0.4\n",
            "repeated binary id": repeated,
            "truncated": binary[:-8],
            "flipped payload byte": binary[:-1] + bytes([binary[-1] ^ 1]),
        }[kind])
        assert run("build-index", "--embeddings", str(path),
                   "--out", str(tmp_path / "x.cmci")) == 2
        err = capsys.readouterr().err
        assert f"error: {path}{where}: " in err
        assert what in err
        assert not (tmp_path / "x.cmci").exists()

    def test_missing_input_file(self, tmp_path):
        assert run("build-index", "--embeddings", str(tmp_path / "nope.cmce"),
                   "--out", str(tmp_path / "x.cmci")) == 2

    @pytest.mark.parametrize("kind, damage", [
        *((kind, damage) for kind in ("text-embeddings", "binary-embeddings", "index",
                                      "checkpoint", "reranker-embeddings", "queries",
                                      "gold", "rankings", "config")
          for damage in ("missing", "corrupt")),
        *((kind, "nan-row") for kind in ("text-embeddings", "binary-embeddings", "index",
                                         "reranker-embeddings"))],
        ids=lambda value: value)
    def test_each_input_kind_missing_or_corrupt(self, task_dir, tmp_path, capsys, kind, damage):
        """Every kind of input file, missing or corrupt (a truncated binary
        file, a text line that is not UTF-8), and every embedding input
        with a NaN row, exits 2 with its path in the message and writes no
        output."""
        index, ckpt = tmp_path / "task.cmci", tmp_path / "model.cmcp"
        embeddings = task_dir / "reranker_embeddings.cmce"
        assert run("build-index", "--embeddings", str(task_dir / "retriever_embeddings.cmce"),
                   "--out", str(index)) == 0
        CmcParams.init(model_dim=EmbeddingTable.from_file(embeddings).dim,
                       head_count=2, seed=1).save(ckpt)
        gold = task_dir / "gold.txt"
        rankings, config = tmp_path / "rankings.txt", tmp_path / "run.cfg"
        rankings.write_text(gold.read_text().splitlines()[0].replace(" ", ",") + "\n")
        config.write_text("k_prime = 4\n")
        text_embeddings = tmp_path / "embeddings.txt"
        text_embeddings.write_text("1 0.5,0.25\n2 0.125,1\n")
        rerank = ("rerank", "--index", index, "--checkpoint", ckpt, "--embeddings", embeddings,
                  "--queries", task_dir / "queries.cmce", "--k-retrieve", "16",
                  "--k-prime", "8")
        bad, argv = {
            "text-embeddings": (text_embeddings, ("build-index", "--embeddings", text_embeddings)),
            "binary-embeddings": (embeddings, ("build-index", "--embeddings", embeddings)),
            "index": (index, rerank),
            "checkpoint": (ckpt, rerank),
            "reranker-embeddings": (embeddings, rerank),
            "queries": (task_dir / "queries.cmce", rerank),
            "gold": (gold, ("evaluate", "--rankings", rankings, "--gold", gold)),
            "rankings": (rankings, ("evaluate", "--rankings", rankings, "--gold", gold)),
            "config": (config, rerank + ("--config", config)),
        }[kind]
        if damage == "missing":
            bad.unlink()
        elif damage == "nan-row" and bad.suffix == ".txt":
            bad.write_text("1 0.5,0.25\n2 nan,1\n")
        elif damage == "nan-row":
            ids, matrix = load_embedding_file(bad)
            matrix = matrix.copy()
            matrix[len(ids) // 2, 0] = np.nan
            save_embedding_file(bad, ids, matrix)
        elif bad.suffix in (".txt", ".cfg"):
            bad.write_bytes(bad.read_bytes() + b"\xff\n")
        else:
            bad.write_bytes(bad.read_bytes()[:-4])
        out = tmp_path / "out.txt"
        assert run(*map(str, argv), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert str(bad) in err
        if damage == "nan-row":
            assert f"error: {bad}: embedding of candidate id " in err
            assert "is not finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("error", [ValueError, KeyError])
    def test_programming_error_is_not_a_data_error(self, tmp_path, monkeypatch, error):
        """Only a missing or unreadable file and cmcrank's own errors are
        data errors; a ValueError or KeyError from a bug is a traceback."""
        def broken(*args):
            raise error("a bug, not bad input")

        monkeypatch.setattr(cli, "build_index", broken)
        path = tmp_path / "e.cmce"
        save_embedding_file(path, [1, 2], np.ones((2, 2), dtype=np.float32))
        with pytest.raises(error, match="a bug"):
            run("build-index", "--embeddings", str(path), "--out", str(tmp_path / "x.cmci"))

    def test_nan_learning_rate_is_data_error(self, task_dir, tmp_path, capsys):
        assert run("train", "--data-dir", str(task_dir),
                   "--out", str(tmp_path / "m.cmcp"), "--lr", "nan") == 2
        assert "base_lr" in capsys.readouterr().err
        assert not (tmp_path / "m.cmcp").exists()

    def test_nan_training_query_named_by_id(self, task_dir, tmp_path, capsys):
        """File row 7 is the sixth training row after the every-fifth
        hold-out; the message names the query id from the file."""
        qids, queries = load_embedding_file(task_dir / "queries.cmce")
        queries = queries.copy()
        queries[7, 0] = np.nan
        save_embedding_file(task_dir / "queries.cmce", qids, queries)
        assert run("train", "--data-dir", str(task_dir),
                   "--out", str(tmp_path / "m.cmcp"), "--epochs", "1",
                   "--k-train", "4", "--negative-pool-size", "16") == 2
        assert f"training query id {qids[7]} is not finite" in capsys.readouterr().err
        assert not (tmp_path / "m.cmcp").exists()

    def test_negative_holdout_is_usage_error(self, task_dir, tmp_path, capsys):
        assert run("train", "--data-dir", str(task_dir),
                   "--out", str(tmp_path / "m.cmcp"), "--holdout-every", "-3") == 1
        assert "--holdout-every" in capsys.readouterr().err
        assert not (tmp_path / "m.cmcp").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_usage_error(self, tmp_path, capsys, threads):
        out = tmp_path / "r.txt"
        assert run("rerank", "--index", "x", "--checkpoint", "y",
                   "--embeddings", "z", "--queries", "q", "--out", str(out),
                   "--threads", threads) == 1
        assert "--threads must be 1 or more" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_gold_line_named_by_query_id(self, task_dir, tmp_path, capsys):
        """File row 1 is a training query; without its gold line, train,
        rerank --gold and evaluate each stop with a data error naming it,
        and rerank writes nothing."""
        gold_path = task_dir / "gold.txt"
        lines = gold_path.read_text().splitlines()
        qid = lines[1].split()[0]
        gold_path.write_text("\n".join(lines[:1] + lines[2:]) + "\n")
        assert run("train", "--data-dir", str(task_dir),
                   "--out", str(tmp_path / "m.cmcp"), "--epochs", "1",
                   "--k-train", "4", "--negative-pool-size", "16") == 2
        assert f"{gold_path}: no gold for query id {qid}\n" in capsys.readouterr().err
        assert not (tmp_path / "m.cmcp").exists()

        index_path, ckpt = tmp_path / "task.cmci", tmp_path / "model.cmcp"
        assert run("build-index",
                   "--embeddings", str(task_dir / "retriever_embeddings.cmce"),
                   "--out", str(index_path)) == 0
        embeddings = task_dir / "reranker_embeddings.cmce"
        CmcParams.init(model_dim=EmbeddingTable.from_file(embeddings).dim,
                       head_count=2, seed=1).save(ckpt)
        results = tmp_path / "results.txt"
        assert run("rerank", "--index", str(index_path), "--checkpoint", str(ckpt),
                   "--embeddings", str(embeddings),
                   "--queries", str(task_dir / "queries.cmce"),
                   "--gold", str(gold_path), "--k-retrieve", "16", "--k-prime", "8",
                   "--out", str(results)) == 2
        assert f"query id {qid} has no gold" in capsys.readouterr().err
        assert not results.exists()

        rankings = tmp_path / "rankings.txt"
        rankings.write_text(f"{lines[0].replace(' ', ',')}\n{qid},1 2\n")
        assert run("evaluate", "--rankings", str(rankings),
                   "--gold", str(gold_path), "--k", "1") == 2
        assert f"{gold_path}: no gold for query id {qid}\n" in capsys.readouterr().err

    def test_model_dim_unlike_embeddings_serves_nothing(self, task_dir, tmp_path, capsys):
        """A checkpoint of another dim is one data error before any query
        runs, not one failed query per query."""
        index_path, ckpt = tmp_path / "task.cmci", tmp_path / "model.cmcp"
        embeddings = task_dir / "reranker_embeddings.cmce"
        assert run("build-index", "--embeddings", str(embeddings),
                   "--out", str(index_path)) == 0
        dim = EmbeddingTable.from_file(embeddings).dim
        CmcParams.init(model_dim=2 * dim, head_count=2, seed=1).save(ckpt)
        results = tmp_path / "results.txt"
        assert run("rerank", "--index", str(index_path), "--checkpoint", str(ckpt),
                   "--embeddings", str(embeddings),
                   "--queries", str(task_dir / "queries.cmce"),
                   "--k-retrieve", "16", "--k-prime", "8", "--out", str(results)) == 2
        captured = capsys.readouterr()
        assert f"model dim {2 * dim} differ" in captured.err
        assert "failed" not in captured.err and "reranked" not in captured.out
        assert not results.exists()

    def test_intermediate_mode_needs_scorer(self, task_dir, tmp_path):
        assert run("rerank", "--index", "x", "--checkpoint", "y",
                   "--embeddings", "z", "--queries", "q",
                   "--out", str(tmp_path / "r.txt"),
                   "--mode", "intermediate") == 1


class TestFullFlow:
    def test_pipeline_end_to_end(self, task_dir, tmp_path, capsys):
        index_path = tmp_path / "task.cmci"
        ckpt = tmp_path / "model.cmcp"
        assert run("build-index",
                   "--embeddings", str(task_dir / "retriever_embeddings.cmce"),
                   "--out", str(index_path)) == 0
        assert run("train", "--data-dir", str(task_dir), "--out", str(ckpt),
                   "--log", str(tmp_path / "train.csv"),
                   "--epochs", "1", "--k-train", "4",
                   "--negative-pool-size", "16", "--lr", "1e-4",
                   "--seed", "5") == 0
        assert ckpt.exists()
        assert (tmp_path / "model.epoch1.cmcp").exists()
        log_lines = (tmp_path / "train.csv").read_text().strip().split("\n")
        assert log_lines[0] == "step,epoch,effective_lr,loss"

        results = tmp_path / "results.txt"
        rankings = tmp_path / "rankings.txt"
        assert run("rerank", "--index", str(index_path),
                   "--checkpoint", str(ckpt),
                   "--embeddings", str(task_dir / "reranker_embeddings.cmce"),
                   "--queries", str(task_dir / "queries.cmce"),
                   "--gold", str(task_dir / "gold.txt"),
                   "--k-retrieve", "16", "--k-prime", "8",
                   "--out", str(results), "--rankings-out", str(rankings)) == 0
        first = results.read_text().splitlines()[0].split(",")
        assert len(first) == 5  # qid, top1, three stage timings

        assert run("evaluate", "--rankings", str(rankings),
                   "--gold", str(task_dir / "gold.txt"), "--k", "1,4,8",
                   "--out", str(tmp_path / "metrics.csv")) == 0
        out = capsys.readouterr().out
        assert "recall@1" in out and "accuracy" in out
        header = (tmp_path / "metrics.csv").read_text().splitlines()[0]
        assert header == "metric,value"

    def test_intermediate_mode_with_oracle_scorers(self, task_dir, tmp_path,
                                                   capsys):
        index_path = tmp_path / "task.cmci"
        ckpt = tmp_path / "model.cmcp"
        assert run("build-index",
                   "--embeddings", str(task_dir / "retriever_embeddings.cmce"),
                   "--out", str(index_path)) == 0
        assert run("train", "--data-dir", str(task_dir), "--out", str(ckpt),
                   "--epochs", "1", "--k-train", "4",
                   "--negative-pool-size", "16") == 0
        for scorer in ("gold-oracle", "noisy-oracle"):
            out = tmp_path / f"{scorer}.txt"
            assert run("rerank", "--index", str(index_path),
                       "--checkpoint", str(ckpt),
                       "--embeddings", str(task_dir / "reranker_embeddings.cmce"),
                       "--queries", str(task_dir / "queries.cmce"),
                       "--gold", str(task_dir / "gold.txt"),
                       "--mode", "intermediate", "--scorer", scorer,
                       "--k-retrieve", "16", "--k-prime", "8",
                       "--out", str(out)) == 0
            assert out.exists()
        printed = capsys.readouterr().out
        assert "accuracy_end_to_end" in printed

    def test_nan_query_fails_only_that_query(self, task_dir, tmp_path, capsys):
        """Query rows are checked where each query is encoded, so the
        per-query error isolation reports a bad one and serves the rest."""
        index_path, ckpt = tmp_path / "task.cmci", tmp_path / "model.cmcp"
        assert run("build-index",
                   "--embeddings", str(task_dir / "retriever_embeddings.cmce"),
                   "--out", str(index_path)) == 0
        embeddings = task_dir / "reranker_embeddings.cmce"
        CmcParams.init(model_dim=EmbeddingTable.from_file(embeddings).dim,
                       head_count=2, seed=1).save(ckpt)
        qids, queries = load_embedding_file(task_dir / "queries.cmce")
        queries = queries.copy()
        queries[3, 1] = np.nan
        save_embedding_file(tmp_path / "queries.cmce", qids, queries)
        results = tmp_path / "results.txt"
        assert run("rerank", "--index", str(index_path), "--checkpoint", str(ckpt),
                   "--embeddings", str(embeddings),
                   "--queries", str(tmp_path / "queries.cmce"),
                   "--k-retrieve", "16", "--k-prime", "8",
                   "--out", str(results)) == 0
        assert f"query {qids[3]} failed" in capsys.readouterr().err
        served = [int(line.split(",")[0]) for line in results.read_text().splitlines()]
        assert served == [int(q) for i, q in enumerate(qids) if i != 3]

    def test_inputs_never_mutated(self, task_dir, tmp_path):
        before = {p.name: digest(p) for p in sorted(task_dir.iterdir())}
        run("build-index",
            "--embeddings", str(task_dir / "retriever_embeddings.cmce"),
            "--out", str(tmp_path / "i.cmci"))
        run("train", "--data-dir", str(task_dir),
            "--out", str(tmp_path / "m.cmcp"), "--epochs", "1",
            "--k-train", "4", "--negative-pool-size", "16")
        after = {p.name: digest(p) for p in sorted(task_dir.iterdir())}
        assert before == after


class TestReproducibility:
    def test_generate_synthetic_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            assert run("generate-synthetic", "--out-dir", str(tmp_path / d),
                       "--corpus-size", "120", "--confusables", "4",
                       "--surface-dim", "8", "--latent-dim", "4",
                       "--seed", "33") == 0
        for name in ("retriever_embeddings.cmce", "reranker_embeddings.cmce",
                     "queries.cmce", "gold.txt"):
            assert digest(tmp_path / "a" / name) == digest(tmp_path / "b" / name)

    def test_train_checkpoint_byte_identical(self, task_dir, tmp_path):
        digests = []
        for d in ("a", "b"):
            ckpt = tmp_path / d / "m.cmcp"
            ckpt.parent.mkdir()
            assert run("train", "--data-dir", str(task_dir),
                       "--out", str(ckpt), "--epochs", "1", "--k-train", "4",
                       "--negative-pool-size", "16", "--seed", "44") == 0
            digests.append(digest(ckpt))
        assert digests[0] == digests[1]

    def test_evaluate_output_byte_identical(self, task_dir, tmp_path):
        rankings = tmp_path / "rankings.txt"
        gold_lines = (task_dir / "gold.txt").read_text().splitlines()
        rows = []
        for line in gold_lines[:10]:
            qid, gid = line.split()
            rows.append(f"{qid},{gid} 9001 9002 9003")
        rankings.write_text("\n".join(rows) + "\n")
        outs = []
        for d in ("a", "b"):
            out = tmp_path / f"metrics_{d}.csv"
            assert run("evaluate", "--rankings", str(rankings),
                       "--gold", str(task_dir / "gold.txt"),
                       "--k", "1,2", "--out", str(out)) == 0
            outs.append(digest(out))
        assert outs[0] == outs[1]


class TestEvaluateFixture:
    def test_retrieval_footnote_numbers(self, tmp_path, capsys):
        """The 5-query fixture prints 20.0% unnormalized, 33.3% normalized."""
        gold = tmp_path / "gold.txt"
        gold.write_text("0 10\n1 20\n2 30\n3 40\n4 50\n")
        rankings = tmp_path / "rankings.txt"
        rankings.write_text(
            "0,10 11 12\n"    # gold first: the one correct query
            "1,21 20 22\n"    # gold in pool, ranked 2nd
            "2,31 32 30\n"    # gold in pool, ranked 3rd
            "3,41 42 43\n"    # gold missed retrieval
            "4,51 52 53\n")
        assert run("evaluate", "--rankings", str(rankings),
                   "--gold", str(gold), "--k", "1") == 0
        out = capsys.readouterr().out
        assert "accuracy unnormalized: 20.0%" in out
        assert "accuracy normalized: 33.3%" in out

    def test_repeated_gold_query_id_is_data_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("0 10\n1 20\n0 11\n")
        rankings = tmp_path / "rankings.txt"
        rankings.write_text("0,10 11\n1,20 21\n")
        assert run("evaluate", "--rankings", str(rankings),
                   "--gold", str(gold), "--k", "1") == 2
        assert "query id 0 appears more than once" in capsys.readouterr().err

    def test_repeated_rankings_query_id_is_data_error(self, tmp_path, capsys):
        """A query listed on two lines is not counted twice: the second
        line is a data error naming the file and line."""
        gold = tmp_path / "gold.txt"
        gold.write_text("0 10\n1 20\n")
        rankings = tmp_path / "rankings.txt"
        rankings.write_text("0,10 11\n0,10 11\n1,21 20\n")
        out = tmp_path / "metrics.csv"
        assert run("evaluate", "--rankings", str(rankings), "--gold", str(gold),
                   "--k", "1", "--out", str(out)) == 2
        captured = capsys.readouterr()
        assert f"{rankings}:2: query id 0 appears more than once" in captured.err
        assert "recall@1" not in captured.out
        assert not out.exists()

    def test_repeated_candidate_id_in_one_ranking_is_data_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("0 10\n1 20\n")
        rankings = tmp_path / "rankings.txt"
        rankings.write_text("0,10 11\n1,21 20 21\n")
        assert run("evaluate", "--rankings", str(rankings), "--gold", str(gold),
                   "--k", "1") == 2
        captured = capsys.readouterr()
        assert "ranking 1 (counting from 0) repeats id 21" in captured.err
        assert "recall@1" not in captured.out

    def test_recall_cutoff_below_one_is_an_error(self, tmp_path, capsys):
        gold = tmp_path / "gold.txt"
        gold.write_text("0 10\n")
        rankings = tmp_path / "rankings.txt"
        rankings.write_text("0,10 11\n")
        assert run("evaluate", "--rankings", str(rankings), "--gold", str(gold),
                   "--k", "0,-3") == 2
        captured = capsys.readouterr()
        assert "recall cutoff -3 is below 1" in captured.err
        assert "recall@" not in captured.out


    @pytest.mark.parametrize("gold_text, rankings_text, where, what", [
        ("0 10\nx 20\n", "0,10 11\n", "gold.txt:2", "id 'x' is not an integer"),
        ("0 10\n1 2.5\n", "0,10 11\n", "gold.txt:2", "id '2.5' is not an integer"),
        ("0 10\n1 -20\n", "0,10 11\n", "gold.txt:2", "id -20 is not in [0, 2**64)"),
        ("0 10\n1 20\n", "0,10 11\n1,20 x\n", "rankings.txt:2",
         "id 'x' is not an integer"),
        ("0 10\n1 20\n", "0,10 11\n-1,20 21\n", "rankings.txt:2",
         "id -1 is not in [0, 2**64)"),
        ("0 10\n", f"0,10 {2 ** 64}\n", "rankings.txt:1",
         f"id {2 ** 64} is not in [0, 2**64)"),
    ])
    def test_bad_id_named_by_file_and_line(self, tmp_path, capsys, gold_text,
                                           rankings_text, where, what):
        gold = tmp_path / "gold.txt"
        gold.write_text(gold_text)
        rankings = tmp_path / "rankings.txt"
        rankings.write_text(rankings_text)
        assert run("evaluate", "--rankings", str(rankings),
                   "--gold", str(gold), "--k", "1") == 2
        err = capsys.readouterr().err
        assert f"{tmp_path / where}: {what}" in err

    @pytest.mark.parametrize("text, line", [("0 10\n1 20 30\n", 2),
                                            ("# query gold\n0 10\n\n1\n", 4)])
    def test_malformed_gold_line_is_a_format_error(self, tmp_path, text, line):
        """Lines are counted in the file, comments and blank lines included."""
        gold = tmp_path / "gold.txt"
        gold.write_text(text)
        with pytest.raises(FormatError) as info:
            _load_gold(gold)
        assert str(info.value).startswith(f"{gold}:{line}: expected 'query_id gold_id'")

    def test_comment_lines_skipped_in_every_text_input(self, tmp_path, capsys):
        """A rankings file with ``#`` lines evaluates byte for byte like the
        same file without them, as gold and config files do."""
        (tmp_path / "gold.txt").write_text("0 10\n1 20\n2 30\n")
        body = "0,10 11 12\n1,21 20 22\n2,31 32 33\n"
        outputs = []
        for name, text in (("plain", body),
                           ("commented", "# produced by hand\n" + body + "\n# end\n")):
            (tmp_path / f"{name}.txt").write_text(text)
            (tmp_path / f"{name}.cfg").write_text("# cutoffs\n\nk = 1,2\n")
            assert run("evaluate", "--rankings", str(tmp_path / f"{name}.txt"),
                       "--gold", str(tmp_path / "gold.txt"),
                       "--config", str(tmp_path / f"{name}.cfg"),
                       "--out", str(tmp_path / f"{name}.csv")) == 0
            outputs.append((capsys.readouterr().out,
                            (tmp_path / f"{name}.csv").read_bytes()))
        assert outputs[0] == outputs[1]
        assert "recall@2: 0.6667" in outputs[0][0]


class TestBenchCommand:
    def test_small_bench_writes_report(self, tmp_path, capsys):
        out = tmp_path / "bench.csv"
        assert run("bench", "--k", "4,16", "--dim", "16",
                   "--repeats", "5", "--out", str(out)) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "k,median_us,p95_us,error"
        assert len(lines) == 3
        assert "report" in capsys.readouterr().out

    def test_bench_accepts_checkpoint(self, tmp_path):
        """The checkpoint brings its own dim; --dim sizes only random params."""
        from cmcrank.reranker import CmcParams
        ckpt = tmp_path / "m.cmcp"
        CmcParams.init(model_dim=16, head_count=2, seed=1).save(ckpt)
        assert run("bench", "--k", "4", "--repeats", "5",
                   "--checkpoint", str(ckpt),
                   "--out", str(tmp_path / "b.csv")) == 0

    def test_failed_k_exits_3_after_writing_report(self, tmp_path, capsys, monkeypatch):
        """A K that runs out of memory keeps its 'failed' row in the table
        and the report, and the command exits 3, not 0."""
        forward = cli.evaluation.cmc_forward

        def out_of_memory_at_16(params, h_query, h_cands):
            if h_cands.shape[1] == 16:
                raise MemoryError("cannot allocate")
            return forward(params, h_query, h_cands)

        monkeypatch.setattr(cli.evaluation, "cmc_forward", out_of_memory_at_16)
        out = tmp_path / "bench.csv"
        assert run("bench", "--k", "4,16", "--dim", "16",
                   "--repeats", "5", "--out", str(out)) == 3
        lines = out.read_text().strip().split("\n")
        assert lines[1].startswith("4,") and lines[2] == "16,,,out of memory: cannot allocate"
        captured = capsys.readouterr()
        assert "failed: out of memory" in captured.out
        assert "error: 1 of 2 K values failed: 16" in captured.err

    @pytest.mark.parametrize("command", ["bench", "evaluate"])
    @pytest.mark.parametrize("k", [" ", ",", ""])
    def test_empty_k_list_is_usage_error(self, tmp_path, capsys, command, k):
        argv = {"bench": ("bench", "--dim", "16", "--out", str(tmp_path / "b.csv")),
                "evaluate": ("evaluate", "--rankings", str(tmp_path / "r.txt"),
                             "--gold", str(tmp_path / "g.txt"))}[command]
        assert run(*argv, "--k", k) == 1
        captured = capsys.readouterr()
        assert f"--k: expected at least one integer, got {k!r}" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "b.csv").exists()


class TestConfigHandling:
    def test_show_config_prints_and_exits(self, tmp_path, capsys):
        assert run("bench", "--k", "4", "--dim", "16", "--show-config",
                   "--out", str(tmp_path / "b.csv")) == 0
        out = capsys.readouterr().out
        assert "dim = 16" in out
        assert not (tmp_path / "b.csv").exists()  # dump only, no side effects

    def test_config_file_fills_unset_flags(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim = 24\nrepeats = 6\n")
        assert run("bench", "--k", "4", "--config", str(cfg),
                   "--show-config", "--out", str(tmp_path / "b.csv")) == 0
        out = capsys.readouterr().out
        assert "dim = 24" in out and "repeats = 6" in out

    def test_flag_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim = 24\n")
        assert run("bench", "--k", "4", "--dim", "8", "--config", str(cfg),
                   "--show-config", "--out", str(tmp_path / "b.csv")) == 0
        assert "dim = 8" in capsys.readouterr().out

    def test_abbreviated_flag_beats_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dim = 24\n")
        assert run("bench", "--k", "4", "--di", "8", "--config", str(cfg),
                   "--show-config", "--out", str(tmp_path / "b.csv")) == 0
        assert "dim = 8" in capsys.readouterr().out

    @pytest.mark.parametrize("line", ["mode = bogus", "scorer = gold_oracle",
                                      "k_prime = many"])
    def test_config_file_values_are_checked(self, tmp_path, line):
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text(line + "\n")
        assert run("rerank", "--index", "i", "--checkpoint", "c",
                   "--embeddings", "e", "--queries", "q",
                   "--out", str(tmp_path / "r.txt"),
                   "--config", str(cfg), "--show-config") == 1

    def test_store_true_key_and_unknown_keys(self, tmp_path, capsys):
        """A true boolean key sets its flag; keys of other subcommands are
        ignored, so one file can serve several."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("show_config = yes\nk_prime = 3\nrepeats = 2\n")
        assert run("bench", "--k", "4", "--config", str(cfg),
                   "--out", str(tmp_path / "b.csv")) == 0
        out = capsys.readouterr().out
        assert "repeats = 2" in out and "k_prime" not in out
        assert not (tmp_path / "b.csv").exists()

    def test_pipeline_config_file_keys(self, tmp_path, capsys):
        """The documented pipeline keys resolve through a config file."""
        cfg = tmp_path / "pipe.cfg"
        cfg.write_text("k_retrieve = 128\nk_prime = 32\nmode = final\n"
                       "scorer = none\nseed = 9\n")
        assert run("rerank", "--index", "i", "--checkpoint", "c",
                   "--embeddings", "e", "--queries", "q",
                   "--out", str(tmp_path / "r.txt"),
                   "--config", str(cfg), "--show-config") == 0
        out = capsys.readouterr().out
        assert "k_retrieve = 128" in out
        assert "k_prime = 32" in out
        assert "seed = 9" in out
