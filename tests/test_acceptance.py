"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single [PASS] line (with its runtime) once every assertion
in it has held; a missing line plus a pytest failure marks the criterion red.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from clozerank.embeddings import (
    EmbeddingTable,
    EmbedTrainConfig,
    save_table,
    train_static_embeddings,
)
from clozerank.energy import EnergyInput, co2e, energy_kwh, footprint_ratio
from clozerank.kb import build_candidates
from clozerank.metrics import compute_report
from clozerank.ranking import (
    rank_mlm,
    rank_oracle,
    rank_static,
    export_mlm_manifest,
    read_lookup,
    write_stub_scores,
)
from clozerank.wordpiece import (
    SPECIAL_TOKENS,
    SubwordVocab,
    tokenize,
    train_wordpiece,
)

import oracles
from conftest import FIXTURES, make_dataset, ranked
from test_metrics import instance_pieces, oracle_views


def report_pass(capsys, number, message, started):
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        print(f"[PASS] criterion {number}: {message} ({elapsed:.2f}s)")


def test_criterion_1_energy_table(capsys):
    started = time.perf_counter()
    bert = EnergyInput(power_watts=12041, hours=79)
    static_en = EnergyInput(power_watts=618, hours=5)

    # (computed, reported, reported decimal places)
    cells = [
        ("bert kwh", energy_kwh(bert), 1507, 0),
        ("bert co2e", co2e(1507), 1438, 0),
        ("static kwh", energy_kwh(static_en), 5, 0),
        ("static co2e", co2e(energy_kwh(static_en)), 5, 0),
    ]
    ratios = footprint_ratio(static_en, bert)
    cells += [
        ("power ratio", ratios["power_ratio"], 0.05, 2),
        ("hours ratio", ratios["hours_ratio"], 0.06, 2),
        ("kwh ratio", ratios["kwh_ratio"], 0.003, 3),
        ("co2e ratio", ratios["co2e_ratio"], 0.003, 3),
    ]
    for name, computed, reported, decimals in cells:
        tolerance = oracles.table_tolerance(reported, decimals)
        assert abs(computed - reported) <= tolerance, \
            f"{name}: {computed} vs reported {reported}"

    assert time.perf_counter() - started < 1.0
    report_pass(capsys, 1, "all 8 published energy cells recomputed within "
                "print tolerance", started)


N_INSTANCES = 50


def test_criterion_2_static_ranking_matches_brute_force(tmp_path, capsys):
    started = time.perf_counter()
    for seed in range(N_INSTANCES):
        inst, ds, vocab, table = instance_pieces(tmp_path, seed)
        cands = build_candidates(ds)
        preds = rank_static(table, vocab, ds, cands)
        _, _, _, exact_tops = oracle_views(inst, ds, cands)
        for pred in preds:
            got = [c for c, _ in ranked(pred)]
            assert got == exact_tops[pred.triple_id], \
                f"seed {seed}, triple {pred.triple_id}"

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report_pass(capsys, 2, f"rank_static equals exact-arithmetic ranking on "
                f"{N_INSTANCES} randomized instances, ties included", started)


def test_criterion_3_metrics_match_brute_force(tmp_path, capsys):
    started = time.perf_counter()
    for seed in range(N_INSTANCES):
        inst, ds, vocab, table = instance_pieces(tmp_path, seed)
        cands = build_candidates(ds)
        preds = list(rank_static(table, vocab, ds, cands))
        relations, gold, lengths, _ = oracle_views(inst, ds, cands)
        top_lists = {p.triple_id: [c for c, _ in ranked(p)] for p in preds}

        report = compute_report(preds, ds, vocab=vocab)
        _, macro_p1 = oracles.brute_p_at_k(top_lists, gold, relations, 1)
        _, macro_p5 = oracles.brute_p_at_k(top_lists, gold, relations, 5)
        p1_mf, dropped = oracles.brute_p1_mf(top_lists, gold, relations)
        entropy, avg_distinct = oracles.brute_diversity(top_lists, relations)
        buckets = oracles.brute_buckets(top_lists, gold, lengths)

        assert report.macro_p1 == pytest.approx(macro_p1, abs=1e-9)
        assert report.macro_p5 == pytest.approx(macro_p5, abs=1e-9)
        if p1_mf is None:
            assert report.p1_mf is None
        else:
            assert report.p1_mf == pytest.approx(p1_mf, abs=1e-9)
        assert report.relations_dropped_by_mf == dropped
        assert report.entropy_bits == pytest.approx(entropy, abs=1e-9)
        assert report.avg_distinct_predictions == pytest.approx(avg_distinct,
                                                                abs=1e-9)
        assert set(report.buckets) == set(buckets)
        for length, (p1, n) in buckets.items():
            assert report.buckets[length]["n"] == n
            assert report.buckets[length]["p1"] == pytest.approx(p1, abs=1e-9)

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report_pass(capsys, 3, f"all metrics match independent recomputation to "
                f"1e-9 on {N_INSTANCES} instances", started)


def test_criterion_4_oracle_baseline_law(tmp_path, capsys, mini_dataset):
    started = time.perf_counter()
    datasets = [mini_dataset]
    for seed in range(10):
        _, ds, _, _ = instance_pieces(tmp_path, seed)
        datasets.append(ds)

    for ds in datasets:
        preds = rank_oracle(ds, build_candidates(ds))
        per_relation = compute_report(preds, ds).per_relation
        for rel in ds.relation_ids:
            triples = ds.triples_by_relation[rel]
            freq = {}
            for t in triples:
                freq[t.object] = freq.get(t.object, 0) + 1
            assert per_relation[rel]["p_at_1"] == max(freq.values()) / len(triples)

    report_pass(capsys, 4, "oracle p@1 equals max-object-frequency share on "
                "every fixture, exactly", started)


def test_criterion_5_mlm_adapter_law(tmp_path, capsys, mini_dataset, mini_vocab):
    started = time.perf_counter()
    cands = build_candidates(mini_dataset)
    manifest = tmp_path / "manifest.jsonl"
    export_mlm_manifest(mini_dataset, cands, mini_vocab, manifest)
    scores = tmp_path / "scores.jsonl"
    write_stub_scores(manifest, scores)

    records = {(r["triple_id"], r["candidate"]): r["token_logprobs"]
               for r in map(json.loads, scores.read_text(encoding="utf-8").splitlines())}
    preds = list(rank_mlm(scores, mini_dataset, cands))
    for pred in preds:
        for cand, score in ranked(pred):
            lps = records[(pred.triple_id, cand)]
            assert abs(score - sum(lps) / len(lps)) < 1e-12

    lines = scores.read_text(encoding="utf-8").splitlines()
    random.Random(13).shuffle(lines)
    shuffled = tmp_path / "shuffled.jsonl"
    shuffled.write_text("\n".join(lines) + "\n", encoding="utf-8")
    reordered = rank_mlm(shuffled, mini_dataset, cands)
    assert [(p.triple_id, ranked(p)) for p in preds] \
        == [(p.triple_id, ranked(p)) for p in reordered]

    report_pass(capsys, 5, "candidate scores are mean token log-probs "
                "(1e-12) and row order is irrelevant", started)


def synthetic_megabyte_corpus():
    rng = random.Random(202)
    letters = "abcdefghijkl"
    pool = []
    seen = set()
    while len(pool) < 1200:
        word = "".join(rng.choice(letters) for _ in range(rng.randint(3, 10)))
        if word not in seen:
            seen.add(word)
            pool.append(word)
    weights = [1.0 / (i + 1) for i in range(len(pool))]
    lines, size = [], 0
    while size < 1_000_000:
        line = " ".join(rng.choices(pool, weights=weights,
                                    k=rng.randint(8, 12)))
        lines.append(line)
        size += len(line) + 1
    return lines, sorted(seen)


def assert_no_longer_match(initial, continuations, word, pieces):
    """Independent greedy-maximality check against raw token sets."""
    max_len = max(map(len, initial | continuations), default=0)
    pos = 0
    for i, piece in enumerate(pieces):
        surface = piece if i == 0 else piece[2:]
        assert word[pos:pos + len(surface)] == surface
        table = initial if i == 0 else continuations
        for length in range(len(surface) + 1,
                            min(max_len, len(word) - pos) + 1):
            assert word[pos:pos + length] not in table, \
                f"{word!r}: longer match at {pos} beats {piece!r}"
        pos += len(surface)
    assert pos == len(word)


def test_criterion_6_tokenizer_properties(tmp_path, capsys):
    started = time.perf_counter()
    lines, word_types = synthetic_megabyte_corpus()
    held_out = ["zyx", "qwv", "mnopq", "zzz"]
    sizes = [100, 500, 2000]

    vocabs = {}
    for size in sizes:
        vocab = train_wordpiece(iter(lines), size)
        assert vocab.size == size
        vocabs[size] = vocab

    unk_counts = []
    for size in sizes:
        vocab = vocabs[size]
        initial = {t for t in vocab.tokens
                   if t not in SPECIAL_TOKENS and not t.startswith("##")}
        continuations = {t[2:] for t in vocab.tokens if t.startswith("##")}
        for word in word_types:
            pieces = vocab.ids_to_tokens(tokenize(vocab, word))
            if pieces == ["[UNK]"]:
                continue
            # soundness: pieces reassemble the word, continuation-marked
            assert pieces[0] + "".join(p[2:] for p in pieces[1:]) == word
            assert all(p.startswith("##") for p in pieces[1:])
            assert_no_longer_match(initial, continuations, word, pieces)
        unks = 0
        for text in lines + held_out:
            unks += sum(1 for i in tokenize(vocab, text) if i == vocab.unk_id)
        unk_counts.append(unks)

    assert unk_counts[0] > 0  # the held-out words are unreachable
    for bigger, smaller in zip(unk_counts[1:], unk_counts[:-1]):
        assert bigger <= smaller

    twin = train_wordpiece(iter(lines), 500)
    path_a, path_b = tmp_path / "a.txt", tmp_path / "b.txt"
    vocabs[500].save(path_a)
    twin.save(path_b)
    assert path_a.read_bytes() == path_b.read_bytes()

    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    report_pass(capsys, 6, "maximality, soundness, [UNK] monotonicity, and "
                "byte-identical retraining on a 1 MB corpus", started)


def cooccurrence_setup():
    vocab = SubwordVocab(list(SPECIAL_TOKENS) + sorted(["aa", "bb", "cc", "dd"]))
    ab = [vocab.token_to_id["aa"], vocab.token_to_id["bb"]] * 5
    cd = [vocab.token_to_id["cc"], vocab.token_to_id["dd"]] * 5
    return vocab, [ab, cd] * 40


def train_cfg(seed):
    return EmbedTrainConfig(dim=16, window=2, negatives=3, epochs=5,
                            learning_rate=0.05, min_count=1,
                            char_ngram_min=0, char_ngram_max=0, seed=seed)


def test_criterion_7_embedding_training_sanity(tmp_path, capsys):
    started = time.perf_counter()
    vocab, corpus = cooccurrence_setup()

    def cos(u, v):
        return float(np.dot(u, v) / (np.linalg.norm(u) * np.linalg.norm(v)))

    for seed in range(1, 6):
        table = train_static_embeddings(corpus, vocab, train_cfg(seed))
        a, b, c = (table.matrix[table.entries[t]] for t in ("aa", "bb", "cc"))
        assert cos(a, b) > cos(a, c), f"seed {seed}"

    first = train_static_embeddings(corpus, vocab, train_cfg(1))
    second = train_static_embeddings(corpus, vocab, train_cfg(1))
    for token, row in first.entries.items():
        assert np.array_equal(first.matrix[row], second.matrix[second.entries[token]])
    path_a, path_b = tmp_path / "a.vec", tmp_path / "b.vec"
    save_table(first, path_a)
    save_table(second, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report_pass(capsys, 7, "co-occurring tokens rank closer for 5/5 seeds; "
                "single-worker training is bitwise deterministic", started)


SCALE_FACTORS = (0.5, 2.0, 3.7, 7.0)


def scaled_table(table, factor):
    return EmbeddingTable(table.dim, table.entries, table.matrix * np.float32(factor))


def orderings(predictions):
    return [(p.triple_id, [c for c, _ in ranked(p)]) for p in predictions]


def test_criterion_8_scale_invariance(tmp_path, capsys, mini_dataset,
                                      mini_vocab, mini_table):
    started = time.perf_counter()
    mini_cands = build_candidates(mini_dataset)
    base = orderings(rank_static(mini_table, mini_vocab, mini_dataset,
                                 mini_cands))
    for factor in SCALE_FACTORS:
        scaled = orderings(rank_static(scaled_table(mini_table, factor), mini_vocab,
                                       mini_dataset, mini_cands))
        assert scaled == base, f"fixture table, factor {factor}"

    vocab, corpus = cooccurrence_setup()
    trained = train_static_embeddings(corpus, vocab, train_cfg(1))
    rows = [{"sub_label": "aa", "predicate_id": "R1", "obj_label": "bb"},
            {"sub_label": "cc", "predicate_id": "R1", "obj_label": "dd"},
            {"sub_label": "bb", "predicate_id": "R2", "obj_label": "aa"},
            {"sub_label": "dd", "predicate_id": "R2", "obj_label": "cc"}]
    templates = [{"relation": rel, "template": "[X] pairs with [Y] ."}
                 for rel in ("R1", "R2")]
    ds = make_dataset(tmp_path, rows, templates)
    cands = build_candidates(ds)
    base = orderings(rank_static(trained, vocab, ds, cands))
    for factor in SCALE_FACTORS:
        scaled = orderings(rank_static(scaled_table(trained, factor), vocab, ds,
                                       cands))
        assert scaled == base, f"trained table, factor {factor}"

    report_pass(capsys, 8, "positive rescaling never changes a ranking "
                "(handcrafted and trained tables)", started)


def test_criterion_9_end_to_end_fixture(tmp_path, capsys, mini_dataset,
                                        mini_vocab, mini_table):
    started = time.perf_counter()
    cands = build_candidates(mini_dataset)

    # Static pipeline against the hand-computed report.
    preds = list(rank_static(mini_table, mini_vocab, mini_dataset, cands))
    top1 = {p.triple_id: ranked(p)[0][0] for p in preds}
    expected_top1 = {
        "P103": ["french", "french", "german", "german", "italian", "german"],
        "P19": ["paris", "paris", "berlin", "rome", "berlin", "rome"],
        "P106": ["singer", "actor", "singer", "writer", "actor", "writer"],
    }
    for rel, tops in expected_top1.items():
        assert [top1[f"{rel}#{i}"] for i in range(6)] == tops

    report = compute_report(preds, mini_dataset, vocab=mini_vocab)
    assert report.per_relation["P103"]["p_at_1"] == 5 / 6
    assert report.per_relation["P106"]["p_at_1"] == 4 / 6
    assert report.per_relation["P19"]["p_at_1"] == 3 / 6
    assert report.macro_p1 == (5 / 6 + 4 / 6 + 3 / 6) / 3
    assert report.macro_p5 == 1.0
    assert report.p1_mf == (1.0 + 1.0 + 0.5) / 3
    assert report.relations_dropped_by_mf == 0
    counts = {"actor": 2, "berlin": 2, "french": 2, "german": 3, "italian": 1,
              "paris": 2, "rome": 2, "singer": 2, "writer": 2}
    entropy = 0.0
    for label in sorted(counts):
        p = counts[label] / 18
        entropy -= p * math.log2(p)
    assert report.entropy_bits == entropy
    assert report.avg_distinct_predictions == 3.0
    assert report.buckets == {
        1: {"n": 8, "p1": 4 / 8},
        2: {"n": 6, "p1": 5 / 6},
        3: {"n": 4, "p1": 3 / 4},
    }

    # Stub-scored MLM pipeline against the hand-computed rankings.
    manifest = tmp_path / "manifest.jsonl"
    export_mlm_manifest(mini_dataset, cands, mini_vocab, manifest)
    lookup = read_lookup(FIXTURES / "mini_stub_lookup.json")
    scores = tmp_path / "scores.jsonl"
    write_stub_scores(manifest, scores, lookup=lookup)
    mlm_preds = {p.triple_id: [c for c, _ in ranked(p)]
                 for p in rank_mlm(scores, mini_dataset, cands)}

    overrides = {
        "P103#2": ["german", "italian", "french"],
        "P19#1": ["paris", "rome", "berlin"],
        "P106#3": ["writer", "actor", "singer"],
    }
    for triple in mini_dataset.triples():
        expected = overrides.get(triple.id)
        if expected is None:
            rest = sorted(c for c in cands[triple.relation_id]
                          if c != triple.object)
            expected = [triple.object] + rest
        assert mlm_preds[triple.id] == expected, triple.id

    mlm_report = compute_report(
        [p for p in rank_mlm(scores, mini_dataset, cands)], mini_dataset)
    assert mlm_report.macro_p1 == pytest.approx(5 / 6, rel=1e-12)

    report_pass(capsys, 9, "bundled mini-KB reproduces the hand-computed "
                "static report and stub-MLM rankings", started)
