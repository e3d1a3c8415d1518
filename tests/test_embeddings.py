import itertools
import json
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from clozerank.cli import main as cli_main
from clozerank.embeddings import (
    EmbeddingTable,
    EmbedTrainConfig,
    char_ngram_buckets,
    compose,
    load_table,
    save_table,
    train_static_embeddings,
)
from clozerank.kb import ingest_dataset
from clozerank.ranking import export_mlm_manifest, rank_mlm, write_stub_scores
from clozerank.wordpiece import (
    SPECIAL_TOKENS,
    SubwordVocab,
    tokenize,
    train_wordpiece,
)

from conftest import FIXTURES, write_jsonl


def make_table(entries, dim):
    return EmbeddingTable(dim, list(entries),
                          np.array(list(entries.values()), dtype=np.float32).reshape(-1, dim))


def make_vocab(words):
    return SubwordVocab(list(SPECIAL_TOKENS) + sorted(words))


def reconfigured(cfg, **changes):
    """cfg's settings with changes applied, as a new config."""
    return EmbedTrainConfig(**{**cfg.to_dict(), **changes})


class TestConfig:
    def test_reference_defaults(self):
        cfg = EmbedTrainConfig()
        assert cfg.dim == 300
        assert cfg.window == 5
        assert cfg.negatives == 5
        assert cfg.epochs == 5
        assert cfg.learning_rate == 0.05
        assert cfg.min_count == 5
        assert cfg.char_ngram_min == 3
        assert cfg.char_ngram_max == 6
        assert cfg.hash_buckets == 2_000_000

    def test_validation(self):
        with pytest.raises(ValueError):
            EmbedTrainConfig(dim=0)
        with pytest.raises(ValueError):
            EmbedTrainConfig(window=0)
        with pytest.raises(ValueError):
            EmbedTrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            EmbedTrainConfig(char_ngram_min=6, char_ngram_max=3)
        with pytest.raises(ValueError):
            EmbedTrainConfig(char_ngram_min=-1)

    def test_zero_ngram_bounds_disable_hashing(self):
        assert not EmbedTrainConfig(char_ngram_min=0, char_ngram_max=0).ngrams_enabled
        assert EmbedTrainConfig().ngrams_enabled


def reference_mean(table, tokens):
    """Per-row reference: a float64 sum from +0.0 over the present rows in token order,
    over the token count."""
    total = np.zeros(table.dim, dtype=np.float64)
    for tok in tokens:
        if tok in table.entries:
            total += table.matrix[table.entries[tok]]
    return total / len(tokens)


class TestCompose:
    def test_single_token_is_identity(self):
        table = make_table({"a": [1.5, -2.0, 3.0], "b": [0.0, -0.0, 7.0]}, 3)
        vectors, missing = compose(table, [["a"], ["b"]])
        assert vectors.dtype == np.float64
        assert np.array_equal(vectors, [[1.5, -2.0, 3.0], [0.0, 0.0, 7.0]])
        assert missing == [(), ()]

    def test_mean_of_two(self):
        table = make_table({"a": [1, 0], "b": [0, 1]}, 2)
        vectors, _ = compose(table, [["a", "b"], ["b", "a"]])
        assert np.array_equal(vectors, [[0.5, 0.5], [0.5, 0.5]])

    def test_mean_of_three(self):
        # One call, each row its own mean: a row's neighbours do not leak into it.
        table = make_table({"a": [2, 2], "b": [0, 0], "c": [4, -2]}, 2)
        vectors, _ = compose(table, [["c"], ["a", "b", "c"], ["a"]])
        assert np.array_equal(vectors, [[4.0, -2.0], [2.0, 0.0], [2.0, 2.0]])

    def test_empty_sequence_rejected(self):
        table = make_table({"a": [1, 0]}, 2)
        with pytest.raises(ValueError, match="empty token sequence"):
            compose(table, [["a"], []])

    def test_missing_token_becomes_zero_and_flags(self):
        table = make_table({"a": [2, 4]}, 2)
        vectors, missing = compose(table, [["a", "nope"], ["nope", "a", "gone", "nope"],
                                           ["x"], ["a"]])
        assert np.array_equal(vectors, [[1.0, 2.0], [0.5, 1.0], [0.0, 0.0], [2.0, 4.0]])
        assert missing == [("nope",), ("nope", "gone", "nope"), ("x",), ()]

    @pytest.mark.parametrize("seed", range(4))
    def test_rows_match_the_per_row_reference_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        words = [f"t{i}" for i in range(8)]
        matrix = rng.normal(size=(8, 5)).astype(np.float32)
        matrix[2] = -0.0
        matrix[3, ::2] = -0.0
        table = EmbeddingTable(5, words, matrix)
        lists = [["t2"], ["t2", "t2"], ["t2", "gone"], ["gone"], ["gone", "t2", "none"],
                 ["t3", "t2"], ["t0", "t0", "t0"], ["t1"], ["gone", "other"]]
        lists += [[f"t{i}" if i < 8 else "gone" for i in rng.integers(0, 10, size=n)]
                  for n in rng.integers(1, 7, size=30)]
        vectors, missing = compose(table, lists)
        expected = np.array([reference_mean(table, tokens) for tokens in lists])
        assert vectors.tobytes() == expected.tobytes()
        assert not np.signbit(vectors[[0, 1, 2, 3, 4, 8]]).any()  # -0.0 sums read +0.0
        assert missing == [tuple(t for t in tokens if t not in table.entries)
                           for tokens in lists]

    def test_permutation_invariance(self):
        rng = np.random.default_rng(5)
        entries = {f"t{i}": rng.normal(size=4) for i in range(6)}
        table = make_table(entries, 4)
        tokens = list(entries)
        fwd, rev = compose(table, [tokens, tokens[::-1]])[0]
        assert np.allclose(fwd, rev, atol=1e-12)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(6)
        entries = {f"t{i}": rng.normal(size=3) for i in range(4)}
        table = make_table(entries, 3)
        for alpha in (0.5, 2.0, 7.0):
            scaled = EmbeddingTable(3, table.entries, table.matrix * np.float32(alpha))
            a = compose(scaled, [list(entries)])[0]
            b = alpha * compose(table, [list(entries)])[0]
            assert np.allclose(a, b, rtol=1e-6)


class TestTableIO:
    def test_roundtrip_within_serialized_precision(self, tmp_path):
        rng = np.random.default_rng(7)
        table = make_table({f"tok{i}": rng.normal(size=5) for i in range(9)}, 5)
        path = tmp_path / "t.vec"
        save_table(table, path)
        loaded = load_table(path)
        assert len(loaded) == len(table)
        for token, row in table.entries.items():
            assert np.max(np.abs(loaded.matrix[loaded.entries[token]] - table.matrix[row])) <= 1e-5

    def test_saved_text_is_pinned(self, tmp_path):
        # -0.0 keeps its sign; float32 0.000025 and 0.300005 lie just below a
        # fifth-decimal boundary and 0.123455 just above it.
        table = make_table({"a": [-0.0, 1e-6, 0.000025, 0.123455],
                            "##b": [0.300005, 987.654321, -1000.0, -0.5]}, 4)
        path = tmp_path / "pinned.vec"
        save_table(table, path)
        assert path.read_bytes() == (b"2 4\na -0.00000 0.00000 0.00002 0.12346\n"
                                     b"##b 0.30000 987.65430 -1000.00000 -0.50000\n")

    def test_header_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("2 3\na 1 2 3\nb 1 2 3\nc 1 2 3\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_table(path)

    def test_single_row_table(self, tmp_path):
        path = tmp_path / "one.vec"
        values = " ".join(["0.25"] * 300)
        path.write_text(f"1 300\nbig {values}\n", encoding="utf-8")
        table = load_table(path)
        assert len(table) == 1
        assert table.dim == 300

    def test_row_dimension_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("2 3\na 1 2 3\nb 1 2\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected 3"):
            load_table(path)

    def test_trailing_space_rows_load_as_without_it(self, tmp_path):
        # fastText's .vec writer ends every row with a space after the last value.
        plain, spaced = tmp_path / "plain.vec", tmp_path / "spaced.vec"
        plain.write_text("2 2\na 1 2\n##b 0.5 -3\n", encoding="utf-8")
        spaced.write_text("2 2\na 1 2 \n##b 0.5 -3 \n", encoding="utf-8")
        want, got = load_table(plain), load_table(spaced)
        assert got.entries == want.entries
        assert np.array_equal(got.matrix, want.matrix)

    def test_duplicate_token_rejected(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("2 2\na 1 2\na 3 4\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_table(path)

    def test_malformed_header_rejected(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("banana\na 1 2\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_table(path)

    def test_non_numeric_value_rejected(self, tmp_path):
        path = tmp_path / "bad.vec"
        path.write_text("1 2\na 1 x\n", encoding="utf-8")
        with pytest.raises(ValueError):
            load_table(path)

    @pytest.mark.parametrize("header, problem", [
        ("x 8", "malformed header ['x', '8']"),
        ("-1 8", "invalid header values -1 8"),
        ("3 0", "invalid header values 3 0"),
    ], ids=["count-not-int", "count-negative", "dim-zero"])
    def test_bad_header_values_name_path(self, tmp_path, header, problem):
        path = tmp_path / "bad.vec"
        path.write_text(f"{header}\na 1 2\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_table(path)
        assert str(err.value) == f"{path}: {problem}"


class TestImport:
    def test_imported_table_is_usable(self, tmp_path):
        path = tmp_path / "hand.vec"
        path.write_text("2 4\nalpha 1 0 0 0\nbeta 0 1 0 0\n", encoding="utf-8")
        table = load_table(path)
        vectors, _ = compose(table, [["alpha", "beta"]])
        assert np.array_equal(vectors, [[0.5, 0.5, 0.0, 0.0]])

    def test_per_layer_files_import_independently(self, tmp_path):
        for layer in range(13):
            path = tmp_path / f"layer{layer:02d}.vec"
            path.write_text(f"1 2\nonly {layer} 1\n", encoding="utf-8")
        tables = [load_table(tmp_path / f"layer{i:02d}.vec") for i in range(13)]
        assert [t.matrix[t.entries["only"]][0] for t in tables] == list(range(13))


def cooccurrence_corpus(vocab):
    # aa and bb always share windows; cc and dd likewise; the pairs never mix.
    ab = [vocab.token_to_id["aa"], vocab.token_to_id["bb"]] * 5
    cd = [vocab.token_to_id["cc"], vocab.token_to_id["dd"]] * 5
    return [ab, cd] * 40


class TestTraining:
    def small_cfg(self, **kw):
        base = dict(dim=16, window=2, negatives=3, epochs=3, learning_rate=0.05,
                    min_count=1, char_ngram_min=0, char_ngram_max=0,
                    hash_buckets=1000, seed=1)
        base.update(kw)
        return EmbedTrainConfig(**base)

    def test_vocabulary_closure(self):
        vocab = make_vocab(["t1", "t2"])
        corpus = [[vocab.token_to_id["t1"], vocab.token_to_id["t2"]]]
        table = train_static_embeddings(corpus, vocab, self.small_cfg())
        assert sorted(table.entries) == ["t1", "t2"]

    def test_min_count_excludes_rare_tokens(self):
        vocab = make_vocab(["t1", "t2", "t3"])
        corpus = [[vocab.token_to_id["t1"], vocab.token_to_id["t2"]]] * 5 \
            + [[vocab.token_to_id["t3"], vocab.token_to_id["t1"]]]
        table = train_static_embeddings(corpus, vocab, self.small_cfg(min_count=2))
        assert "t3" not in table.entries
        assert {"t1", "t2"} <= set(table.entries)

    def test_empty_corpus_rejected(self):
        vocab = make_vocab(["t1"])
        with pytest.raises(ValueError):
            train_static_embeddings([], vocab, self.small_cfg())

    def test_out_of_range_token_id_rejected(self):
        vocab = make_vocab(["t1"])
        with pytest.raises(ValueError):
            train_static_embeddings([[99]], vocab, self.small_cfg())

    def test_deterministic_single_worker(self):
        vocab = make_vocab(["aa", "bb", "cc", "dd"])
        corpus = cooccurrence_corpus(vocab)
        t1 = train_static_embeddings(corpus, vocab, self.small_cfg(seed=9))
        t2 = train_static_embeddings(corpus, vocab, self.small_cfg(seed=9))
        for token, row in t1.entries.items():
            assert np.array_equal(t1.matrix[row], t2.matrix[t2.entries[token]])

    def test_finite_vectors_across_seeds(self):
        vocab = make_vocab(["aa", "bb", "cc", "dd"])
        corpus = cooccurrence_corpus(vocab)
        for seed in range(1, 6):
            table = train_static_embeddings(corpus, vocab, self.small_cfg(seed=seed))
            assert np.all(np.isfinite(table.matrix))

    def test_cooccurring_tokens_end_up_closer(self):
        vocab = make_vocab(["aa", "bb", "cc", "dd"])
        corpus = cooccurrence_corpus(vocab)

        def cos(u, v):
            return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))

        for seed in range(1, 6):
            table = train_static_embeddings(corpus, vocab, self.small_cfg(seed=seed))
            a, b, c = (table.matrix[table.entries[t]] for t in ("aa", "bb", "cc"))
            assert cos(a, b) > cos(a, c), f"seed {seed}"

    def test_ngram_switch_changes_vectors(self):
        vocab = make_vocab(["aa", "bb", "cc", "dd"])
        corpus = cooccurrence_corpus(vocab)
        plain = train_static_embeddings(corpus, vocab, self.small_cfg())
        hashed = train_static_embeddings(
            corpus, vocab, self.small_cfg(char_ngram_min=1, char_ngram_max=2))
        assert any(not np.array_equal(plain.matrix[row], hashed.matrix[hashed.entries[t]])
                   for t, row in plain.entries.items())

    def test_default_dim_accepted(self):
        vocab = make_vocab(["t1", "t2"])
        corpus = [[vocab.token_to_id["t1"], vocab.token_to_id["t2"]]] * 6
        cfg = EmbedTrainConfig(min_count=1, epochs=1, seed=1,
                               char_ngram_min=0, char_ngram_max=0)
        table = train_static_embeddings(corpus, vocab, cfg)
        assert table.dim == 300


class TestCompactTrainer:
    def cfg(self, **kw):
        base = dict(dim=16, window=2, negatives=3, epochs=1, learning_rate=0.05,
                    min_count=1, char_ngram_min=3, char_ngram_max=6,
                    hash_buckets=1000, seed=4)
        base.update(kw)
        return EmbedTrainConfig(**base)

    def test_memory_follows_buckets_in_use_not_bucket_count(self):
        # A full 2M x 16 bucket table is 128 MB of float32 alone.
        vocab = make_vocab(["aa", "bb", "cc", "dd"])
        corpus = cooccurrence_corpus(vocab)
        tracemalloc.start()
        try:
            table = train_static_embeddings(
                corpus, vocab, self.cfg(hash_buckets=2_000_000))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sorted(table.entries) == ["aa", "bb", "cc", "dd"]
        assert peak < 16 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"

    def test_single_bucket_is_shared_and_deterministic(self):
        vocab = make_vocab(["aa", "bb", "cc", "dd"])
        corpus = cooccurrence_corpus(vocab)
        t1 = train_static_embeddings(corpus, vocab, self.cfg(hash_buckets=1))
        t2 = train_static_embeddings(corpus, vocab, self.cfg(hash_buckets=1))
        wide = train_static_embeddings(corpus, vocab, self.cfg())
        assert sorted(t1.entries) == ["aa", "bb", "cc", "dd"]
        assert np.all(np.isfinite(t1.matrix))
        for token, row in t1.entries.items():
            assert np.array_equal(t1.matrix[row], t2.matrix[t2.entries[token]])
        assert any(not np.array_equal(t1.matrix[row], wide.matrix[wide.entries[t]])
                   for t, row in t1.entries.items())

    def test_multiple_workers_rejected(self, tmp_path, capsys):
        # The trainer takes no worker count; a config asking for two is
        # refused before any training or output.
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("[UNK]\n[MASK]\nt1\nt2\n", encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("t1 t2\n" * 3, encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"workers": 2}), encoding="utf-8")
        out = tmp_path / "out"
        assert cli_main(["train-embeddings", "--vocab", str(vocab), "--corpus", str(corpus),
                         "--config", str(config), "--output", str(out)]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ValueError"
        assert "workers must be 1" in record["message"]
        assert not out.exists()

    def test_cli_accepts_one_worker_and_rejects_two(self, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("[UNK]\n[MASK]\nt1\nt2\n", encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("t1 t2\n" * 10, encoding="utf-8")
        args = ["train-embeddings", "--vocab", str(vocab), "--corpus", str(corpus),
                "--dim", "8", "--epochs", "1", "--min-count", "1", "--seed", "3"]
        ok = tmp_path / "ok"
        assert cli_main(args + ["--output", str(ok), "--workers", "1"]) == 0
        assert (ok / "embeddings.vec").exists()
        capsys.readouterr()
        bad = tmp_path / "bad"
        assert cli_main(args + ["--output", str(bad), "--workers", "2"]) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["command"] == "train-embeddings"
        assert record["error"] == "ValueError"
        assert "workers must be 1" in record["message"]
        assert not (bad / "embeddings.vec").exists()

    @pytest.mark.parametrize("route", ["flag", "config"])
    @pytest.mark.parametrize("workers", [0, -1])
    def test_cli_rejects_workers_below_one(self, tmp_path, capsys, route, workers):
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("[UNK]\n[MASK]\nt1\nt2\n", encoding="utf-8")
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("t1 t2\n" * 10, encoding="utf-8")
        out = tmp_path / "out"
        args = ["train-embeddings", "--vocab", str(vocab), "--corpus", str(corpus),
                "--dim", "8", "--epochs", "1", "--min-count", "1", "--output", str(out)]
        if route == "flag":
            args += ["--workers", str(workers)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"workers": workers}), encoding="utf-8")
            args += ["--config", str(config)]
        assert cli_main(args) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["message"] == ("workers must be 1: training is single-threaded and "
                                     f"deterministic, got {workers}")
        assert not (out / "embeddings.vec").exists()


def zipfian_corpus(seed, lines, lexicon, vocab_size):
    """Lines of 6 to 14 Zipf-drawn words over random letter words, and their vocab."""
    rng = random.Random(seed)
    words = sorted({"".join(rng.choice("abcdefghijklmnoprstuvwxyz")
                            for _ in range(rng.randint(3, 9))) for _ in range(lexicon)})
    rng.shuffle(words)
    weights = list(itertools.accumulate(1.0 / (rank + 1) for rank in range(len(words))))
    text = [" ".join(rng.choices(words, cum_weights=weights, k=rng.randint(6, 14)))
            for _ in range(lines)]
    vocab = train_wordpiece(iter(text), vocab_size)
    return vocab, [tokenize(vocab, line) for line in text]


class TestBatchedTrainer:
    def test_sigmoid_is_exact_at_the_limits_without_warning(self):
        from clozerank.embeddings import _sigmoid
        x = np.array([-np.inf, -1e30, -1000.0, 0.0, 1000.0, 1e30, np.inf], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _sigmoid(x).tolist() == [0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("case", ["zipfian-vocab-300", "cooccurrence-10-epochs"])
    def test_divergence_cases_stay_finite_without_warning(self, case):
        # Batches of 256 centers took the Zipfian case's most frequent piece to NaN.
        if case == "zipfian-vocab-300":
            vocab, corpus = zipfian_corpus(2, lines=300, lexicon=800, vocab_size=300)
            cfg = EmbedTrainConfig(dim=100, epochs=5, min_count=1, char_ngram_min=0,
                                   char_ngram_max=0, seed=1)
            seeds = [1]
        else:
            vocab = make_vocab(["aa", "bb", "cc", "dd"])
            corpus = cooccurrence_corpus(vocab)
            cfg = EmbedTrainConfig(dim=16, window=2, negatives=3, epochs=10, min_count=1,
                                   char_ngram_min=0, char_ngram_max=0)
            seeds = range(1, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seed in seeds:
                table = train_static_embeddings(corpus, vocab, reconfigured(cfg, seed=seed))
                assert np.isfinite(table.matrix).all(), f"seed {seed}"

    def test_batches_match_a_per_pair_reference(self):
        # A six-token line is one batch per epoch. Every pair reads the rows as
        # they stood before its batch and all updates sum: repeated targets, a
        # token's repeated n-gram (the two "a" 1-grams of "aa") and buckets
        # that the three tokens share. The draws follow the trainer's order.
        vocab = make_vocab(["aa", "ab", "ba"])
        line = [vocab.token_to_id[t] for t in ("aa", "ab", "ba", "aa", "ab", "ba")]
        cfg = EmbedTrainConfig(dim=8, window=2, negatives=3, epochs=3, learning_rate=0.5,
                               min_count=1, char_ngram_min=1, char_ngram_max=2,
                               hash_buckets=5, seed=11)
        table = train_static_embeddings([line], vocab, cfg)

        kept = sorted(set(line))
        row_of = {tid: row for row, tid in enumerate(kept)}
        buckets = {}
        inputs = [[row] + [len(kept) + buckets.setdefault(b, len(buckets)) for b in
                           char_ngram_buckets(vocab.tokens[tid], 1, 2, cfg.hash_buckets)]
                  for row, tid in enumerate(kept)]
        assert any(len(set(rows)) < len(rows) for rows in inputs)
        rng = np.random.default_rng(cfg.seed)
        vec_in = rng.random((len(kept) + len(buckets), cfg.dim), dtype=np.float32)
        vec_in = ((vec_in - np.float32(0.5)) * np.float32(2.0 / cfg.dim)).astype(np.float64)
        initial = np.array([vec_in[rows].mean(axis=0) for rows in inputs])
        vec_out = np.zeros((len(kept), cfg.dim))
        noise = np.array([line.count(tid) for tid in kept], dtype=np.float64) ** 0.75
        cdf = np.cumsum(noise / noise.sum())
        cdf[-1] = 1.0
        for epoch in range(cfg.epochs):
            alpha = cfg.learning_rate * (1.0 - epoch / cfg.epochs)
            reach = rng.integers(1, cfg.window + 1, size=len(line))
            pairs = [(p, q) for p in range(len(line)) for q in range(len(line))
                     if 0 < abs(q - p) <= reach[p]]
            ctx = np.array([row_of[line[q]] for _, q in pairs])
            negs = np.searchsorted(cdf, rng.random((len(pairs), cfg.negatives)))
            while (negs == ctx[:, None]).any():
                clash = negs == ctx[:, None]
                negs[clash] = np.searchsorted(cdf, rng.random(int(clash.sum())))
            new_in, new_out = vec_in.copy(), vec_out.copy()
            for (p, _), context, noise_rows in zip(pairs, ctx, negs):
                rows = inputs[row_of[line[p]]]
                hidden = vec_in[rows].mean(axis=0)
                grad_h = np.zeros(cfg.dim)
                for target, label in [(context, 1.0)] + [(n, 0.0) for n in noise_rows]:
                    score = 1.0 / (1.0 + np.exp(-vec_out[target] @ hidden))
                    g = -alpha * (score - label)
                    new_out[target] += g * hidden
                    grad_h += g * vec_out[target]
                for r in rows:
                    new_in[r] += grad_h / len(rows)
            vec_in, vec_out = new_in, new_out
        expected = np.array([vec_in[rows].mean(axis=0) for rows in inputs])
        assert list(table.entries) == ["aa", "ab", "ba"]
        assert np.abs(expected - initial).max() > 1e-3
        assert np.allclose(table.matrix, expected, rtol=0, atol=1e-6)

    def test_windows_never_cross_a_line(self):
        # One-token lines give no pairs, so no epoch changes the seeded draw.
        vocab = make_vocab(["aa", "bb", "cc", "dd"])
        ids = [vocab.token_to_id[t] for t in ("aa", "bb", "cc", "dd")]
        corpus = [[ids[i % 4]] for i in range(0, 60, 3)] + [[ids[1]]] * 5
        cfg = EmbedTrainConfig(dim=8, window=5, min_count=1, char_ngram_min=0,
                               char_ngram_max=0, seed=3)
        one = train_static_embeddings(corpus, vocab, reconfigured(cfg, epochs=1))
        three = train_static_embeddings(corpus, vocab, reconfigured(cfg, epochs=3))
        initial = np.random.default_rng(3).random((4, 8), dtype=np.float32)
        initial -= np.float32(0.5)
        initial *= np.float32(2.0 / 8)
        assert list(one.entries) == ["aa", "bb", "cc", "dd"]
        assert np.array_equal(one.matrix, three.matrix)
        assert np.array_equal(one.matrix, initial)
        hashed = reconfigured(cfg, char_ngram_min=1, char_ngram_max=2)
        assert np.array_equal(
            train_static_embeddings(corpus, vocab, reconfigured(hashed, epochs=1)).matrix,
            train_static_embeddings(corpus, vocab, reconfigured(hashed, epochs=3)).matrix)

    def test_one_long_line_trains_in_bounded_memory(self):
        # 4000 tokens over a 20k-token line rarely repeat, so only the center
        # maximum keeps a batch small. Without it a batch here runs to about
        # 2000 centers and the peak to about 15 MiB.
        vocab = make_vocab([f"w{i}" for i in range(4000)])
        line = (np.random.default_rng(5).integers(0, 4000, 20_000) + len(SPECIAL_TOKENS)).tolist()
        cfg = EmbedTrainConfig(dim=16, epochs=1, min_count=1, char_ngram_min=0,
                               char_ngram_max=0, seed=2)
        tracemalloc.start()
        try:
            table = train_static_embeddings([line], vocab, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.isfinite(table.matrix).all()
        assert peak < 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"


class TestInputLocations:
    TEMPLATES = [{"relation": "P1", "template": "[X] likes [Y] ."}]

    def ingest(self, tmp_path, triples):
        tpath = write_jsonl(tmp_path / "triples.jsonl", triples)
        mpath = write_jsonl(tmp_path / "templates.jsonl", self.TEMPLATES)
        return tpath, lambda: ingest_dataset(tpath, mpath)

    @pytest.mark.parametrize("field", ["sub_label", "obj_label"])
    @pytest.mark.parametrize("blank", ["", " ", "\t \u3000"])
    def test_blank_label_rejected_with_location(self, tmp_path, field, blank):
        row = {"sub_label": "anna", "obj_label": "tea", "predicate_id": "P1"}
        tpath, ingest = self.ingest(tmp_path, [row, dict(row, **{field: blank})])
        with pytest.raises(ValueError, match=f"{tpath}:2: blank {field}"):
            ingest()

    def test_triple_validation_error_carries_location(self, tmp_path):
        rows = [{"sub_label": "anna", "obj_label": "tea", "predicate_id": "P1"},
                {"sub_label": "bo", "obj_label": "tea", "predicate_id": "P1"},
                {"sub_label": None, "obj_label": "tea", "predicate_id": "P1"}]
        tpath, ingest = self.ingest(tmp_path, rows)
        with pytest.raises(ValueError, match=f"{tpath}:3: triple field subject"):
            ingest()

    @pytest.mark.parametrize("field", ["triple_id", "candidate", "mask_token_ids"])
    def test_manifest_missing_field_reports_location(self, tmp_path, field):
        dataset = ingest_dataset(FIXTURES / "mini_triples.jsonl",
                                 FIXTURES / "mini_templates.jsonl")
        vocab = SubwordVocab.load(FIXTURES / "mini_vocab.txt")
        manifest = tmp_path / "manifest.jsonl"
        export_mlm_manifest(dataset, vocab, manifest)
        scores = tmp_path / "scores.jsonl"
        write_stub_scores(manifest, scores)
        rows = [json.loads(line) for line in
                manifest.read_text(encoding="utf-8").splitlines()]
        del rows[2][field]
        write_jsonl(manifest, rows)
        with pytest.raises(ValueError, match=f"{manifest}:3: missing field '{field}'"):
            rank_mlm(scores, dataset, manifest_path=manifest)

    def test_malformed_manifest_line_reports_location(self, tmp_path):
        dataset = ingest_dataset(FIXTURES / "mini_triples.jsonl",
                                 FIXTURES / "mini_templates.jsonl")
        manifest = tmp_path / "manifest.jsonl"
        scores = tmp_path / "scores.jsonl"
        # An integer over the interpreter's 4300-digit limit is malformed JSON too.
        huge = '{"triple_id": "P19#0", "candidate": "rome", "token_logprobs": [-%s]}' % (
            "1" * 5001)
        for bad, manifest_line, score_line in [(manifest, "{not json", ""),
                                               (scores, "", huge)]:
            manifest.write_text(manifest_line + "\n", encoding="utf-8")
            scores.write_text(score_line + "\n", encoding="utf-8")
            with pytest.raises(ValueError, match=f"{bad}:1: malformed JSON line"):
                rank_mlm(scores, dataset, manifest_path=manifest)

    @pytest.mark.parametrize("token", ["", "two words", "tab\there", "nl\n"])
    def test_unsaveable_token_rejected_by_name(self, tmp_path, token):
        table = make_table({"ok": [1.0, 2.0], token: [3.0, 4.0]}, 2)
        path = tmp_path / "t.vec"
        with pytest.raises(ValueError, match="cannot save token") as err:
            save_table(table, path)
        assert repr(token) in str(err.value)
        assert not path.exists()

    @pytest.mark.parametrize("token", ["", "b\t"], ids=["empty", "tab"])
    def test_unsaveable_token_row_rejected_with_location(self, tmp_path, token):
        # Such a row would load under a token no lookup can match; save_table
        # refuses to write it, and load_table refuses to read it.
        with pytest.raises(ValueError, match="cannot save token"):
            save_table(make_table({"a": [1.0, 2.0], token: [0.3, 0.4]}, 2), tmp_path / "t.vec")
        path = tmp_path / "bad.vec"
        path.write_text(f"3 2\na 1 2\n{token} 0.3 0.4\nc 5 6\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_table(path)
        assert str(err.value) == f"{path}:3: token {token!r} is empty or holds whitespace"


class TestNgramHashing:
    # published FNV-1a 32-bit reference values pin the hash choice
    FNV_VECTORS = {b"": 0x811C9DC5, b"a": 0xE40C292C,
                   b"abc": 0x1A47E90B, b"foobar": 0xBF9CF968}

    @staticmethod
    def fnv1a(data: bytes) -> int:
        h = 2166136261
        for byte in data:
            h ^= byte
            h = (h * 16777619) % (1 << 32)
        return h

    def test_reference_hash_vectors(self):
        from clozerank.embeddings import _fnv1a
        for data, expected in self.FNV_VECTORS.items():
            assert _fnv1a(data) == expected
            assert self.fnv1a(data) == expected

    def test_buckets_match_independent_enumeration(self):
        token, nmin, nmax, buckets = "##ing", 3, 6, 997
        wrapped = "<" + token + ">"
        expected = []
        for n in range(nmin, nmax + 1):
            for i in range(len(wrapped) - n + 1):
                expected.append(self.fnv1a(wrapped[i:i + n].encode("utf-8")) % buckets)
        assert char_ngram_buckets(token, nmin, nmax, buckets) == expected
        assert all(0 <= b < buckets for b in expected)

    def test_short_token_yields_fewer_grams(self):
        # wrapped "<ab>" has length 4: two 3-grams and one 4-gram
        assert len(char_ngram_buckets("ab", 3, 6, 100)) == 3


class TestTableValidation:
    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable(3, ["a"], np.zeros((1, 2), dtype=np.float32))

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable(2, ["a"], np.array([[1.0, math.nan]], dtype=np.float32))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            EmbeddingTable(2, ["a", "a"], np.zeros((2, 2), dtype=np.float32))

    def test_nonpositive_dim_rejected(self):
        with pytest.raises(ValueError, match="dim must be positive, got 0"):
            EmbeddingTable(0, [], np.zeros((0, 0), dtype=np.float32))


class TestMatrixTable:
    def assert_one_matrix(self, table):
        assert isinstance(table.matrix, np.ndarray)
        assert table.matrix.dtype == np.float32
        assert table.matrix.flags["C_CONTIGUOUS"]
        assert table.matrix.shape == (len(table), table.dim)
        assert sorted(table.entries.values()) == list(range(len(table)))

    def test_loaded_table_is_one_matrix(self):
        table = load_table(FIXTURES / "mini_table.vec")
        assert len(table) > 1
        self.assert_one_matrix(table)

    def test_trained_table_is_one_matrix(self):
        vocab = make_vocab(["aa", "bb", "cc", "dd"])
        corpus = cooccurrence_corpus(vocab)
        cfg = EmbedTrainConfig(dim=16, window=2, negatives=3, epochs=1, min_count=1,
                               char_ngram_min=3, char_ngram_max=4, hash_buckets=50)
        table = train_static_embeddings(corpus, vocab, cfg)
        assert sorted(table.entries) == ["aa", "bb", "cc", "dd"]
        self.assert_one_matrix(table)

    def test_constructed_table_is_one_matrix(self):
        self.assert_one_matrix(make_table({"a": [1.0, 2.0], "b": [3.0, 4.0]}, 2))

    def test_duplicate_token_reports_line(self, tmp_path):
        path = tmp_path / "dup.vec"
        path.write_text("3 2\na 1 2\nb 3 4\na 5 6\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{path}:4: duplicate token 'a'"):
            load_table(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e40"])
    def test_non_finite_value_reports_line(self, tmp_path, value):
        path = tmp_path / "bad.vec"
        path.write_text(f"3 2\na 1 2\nb 3 {value}\nc 5 6\n", encoding="utf-8")
        with pytest.raises(ValueError, match=f"{path}:3: vector for 'b' contains NaN/Inf"):
            load_table(path)
