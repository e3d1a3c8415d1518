import json
import math

import numpy as np
import pytest

from clozerank.embeddings import EmbeddingTable
from clozerank.kb import apply_subset
from clozerank.metrics import (
    MetricsReport,
    buckets_tsv,
    compute_report,
    most_frequent_object,
    per_relation_tsv,
)
from clozerank.ranking import Prediction, rank_static
from clozerank.wordpiece import SPECIAL_TOKENS, SubwordVocab

import oracles
from conftest import make_dataset, ranked


def triple_row(subject, obj, relation="P1"):
    return {"sub_label": subject, "predicate_id": relation, "obj_label": obj}


def template(relation="P1"):
    return {"relation": relation, "template": f"[X] has {relation} [Y] ."}


def pred(triple_id, relation, labels):
    return Prediction(triple_id, relation, labels, [float(-i) for i in range(len(labels))])


class TestPrecision:
    def test_macro_weighs_relations_equally(self, tmp_path):
        rows = [triple_row("s0", "aa", "P1")]
        rows += [triple_row(f"s{i}", "cc", "P2") for i in range(9)]
        ds = make_dataset(tmp_path, rows, [template("P1"), template("P2")])
        preds = [pred("P1#0", "P1", ["aa", "bb"])]
        preds += [pred(f"P2#{i}", "P2", ["dd", "cc"]) for i in range(9)]
        report = compute_report(preds, ds)
        assert {rel: row["p_at_1"] for rel, row in report.per_relation.items()} \
            == {"P1": 1.0, "P2": 0.0}
        assert report.macro_p1 == 0.5

    def test_k_covering_all_candidates_gives_one(self, mini_dataset):
        cands = mini_dataset.candidates
        preds = [pred(t.id, t.relation_id, list(cands[t.relation_id]))
                 for t in mini_dataset.triples()]
        assert compute_report(preds, mini_dataset).macro_p5 == 1.0

    def test_p1_never_exceeds_p5(self, mini_dataset, mini_vocab, mini_table):
        preds = rank_static(mini_table, mini_vocab, mini_dataset)
        report = compute_report(preds, mini_dataset)
        assert report.macro_p1 <= report.macro_p5 <= 1.0
        for row in report.per_relation.values():
            assert row["p_at_1"] <= row["p_at_5"]

    def test_duplicate_prediction_rejected(self, tmp_path):
        ds = make_dataset(tmp_path, [triple_row("s", "aa")], [template()])
        doubled = [pred("P1#0", "P1", ["aa"]), pred("P1#0", "P1", ["aa"])]
        with pytest.raises(ValueError, match="duplicate"):
            compute_report(doubled, ds)

    def test_missing_prediction_named(self, tmp_path):
        rows = [triple_row(f"s{i}", "aa") for i in range(3)]
        ds = make_dataset(tmp_path, rows, [template()])
        with pytest.raises(ValueError, match="P1#2"):
            compute_report([pred("P1#0", "P1", ["aa"]), pred("P1#1", "P1", ["aa"])], ds)

    def test_duplicating_a_relation_keeps_macro(self, tmp_path):
        rows = [triple_row("s1", "aa"), triple_row("s2", "aa"),
                triple_row("s3", "bb")]
        ds_small = make_dataset(tmp_path, rows, [template()], name="small")
        ds_big = make_dataset(tmp_path, rows + rows, [template()], name="big")
        answer = ["aa", "bb"]
        preds_small = [pred(t.id, "P1", answer) for t in ds_small.triples()]
        preds_big = [pred(t.id, "P1", answer) for t in ds_big.triples()]
        assert compute_report(preds_small, ds_small).macro_p1 \
            == compute_report(preds_big, ds_big).macro_p1


class TestMostFrequentFilter:
    def test_majority_predictor_collapses(self, tmp_path):
        rows = [triple_row("s1", "aa"), triple_row("s2", "aa"),
                triple_row("s3", "bb")]
        ds = make_dataset(tmp_path, rows, [template()])
        always_aa = [pred(t.id, "P1", ["aa", "bb"]) for t in ds.triples()]
        report = compute_report(always_aa, ds)
        assert report.macro_p1 == pytest.approx(2 / 3)
        assert report.p1_mf == 0.0
        assert report.relations_dropped_by_mf == 0

    def test_perfect_predictor_survives(self, tmp_path):
        rows = [triple_row("s1", "aa"), triple_row("s2", "aa"),
                triple_row("s3", "bb")]
        ds = make_dataset(tmp_path, rows, [template()])
        by_id = {t.id: t.object for t in ds.triples()}
        perfect = [pred(tid, "P1", [obj]) for tid, obj in by_id.items()]
        assert compute_report(perfect, ds).p1_mf == 1.0

    def test_frequency_tie_picks_smaller_label(self, tmp_path):
        rows = [triple_row("s1", "bb"), triple_row("s2", "aa")]
        ds = make_dataset(tmp_path, rows, [template()])
        assert most_frequent_object(ds, "P1") == "aa"
        report = compute_report([pred("P1#0", "P1", ["bb"]), pred("P1#1", "P1", ["bb"])], ds)
        assert report.p1_mf == 1.0  # only the bb triple remains, and it is correct

    def test_single_object_relation_is_dropped(self, tmp_path):
        rows = [triple_row("s1", "aa"), triple_row("s2", "aa"),
                triple_row("s3", "bb", "P2"), triple_row("s4", "cc", "P2")]
        ds = make_dataset(tmp_path, rows, [template(), template("P2")])
        preds = [pred(t.id, t.relation_id, [t.object]) for t in ds.triples()]
        report = compute_report(preds, ds)
        assert report.relations_dropped_by_mf == 1
        assert report.p1_mf == 1.0  # P2 alone: mf=bb leaves the cc triple, a hit

    def test_every_relation_dropped_leaves_p1_mf_none(self, tmp_path):
        rows = [triple_row("s1", "aa"), triple_row("s2", "aa")]
        ds = make_dataset(tmp_path, rows, [template()])
        preds = [pred(t.id, "P1", ["aa"]) for t in ds.triples()]
        report = compute_report(preds, ds)
        assert report.p1_mf is None
        assert report.relations_dropped_by_mf == 1


class TestDiversity:
    def test_constant_predictor(self, tmp_path):
        rows = [triple_row(f"s{i}", "aa") for i in range(4)]
        ds = make_dataset(tmp_path, rows, [template()])
        preds = [pred(t.id, "P1", ["aa", "bb"]) for t in ds.triples()]
        report = compute_report(preds, ds)
        assert report.entropy_bits == 0.0
        assert report.avg_distinct_predictions == 1.0

    def test_uniform_over_four_labels(self, tmp_path):
        rows = [triple_row(f"s{i}", f"o{i}") for i in range(4)]
        ds = make_dataset(tmp_path, rows, [template()])
        preds = [pred(t.id, "P1", [t.object]) for t in ds.triples()]
        report = compute_report(preds, ds)
        assert report.entropy_bits == 2.0
        assert report.avg_distinct_predictions == 4.0

    def test_entropy_bounded_by_label_count(self, mini_dataset, mini_vocab,
                                            mini_table):
        preds = list(rank_static(mini_table, mini_vocab, mini_dataset))
        entropy = compute_report(preds, mini_dataset).entropy_bits
        labels = {ranked(p)[0][0] for p in preds}
        assert 0.0 <= entropy <= math.log2(len(labels)) + 1e-12


class TestBuckets:
    def whole_word_vocab(self, words):
        return SubwordVocab(list(SPECIAL_TOKENS) + sorted(words))

    def test_lengths_counted_by_subword_pieces(self, tmp_path):
        rows = [triple_row("aa", "o1"), triple_row("bb", "o2"),
                triple_row("aa bb", "o3"), triple_row("aa bb cc", "o4")]
        ds = make_dataset(tmp_path, rows, [template()])
        vocab = self.whole_word_vocab(["aa", "bb", "cc"])
        preds = [pred(t.id, "P1", [t.object]) for t in ds.triples()]
        preds[1] = pred("P1#1", "P1", ["wrong"])
        assert compute_report(preds, ds, vocab=vocab).buckets == {
            1: {"n": 2, "p1": 0.5},
            2: {"n": 1, "p1": 1.0},
            3: {"n": 1, "p1": 1.0},
        }

    def test_buckets_pool_across_relations(self, tmp_path):
        rows = [triple_row("aa", "o1", "P1"), triple_row("bb", "o2", "P2")]
        ds = make_dataset(tmp_path, rows, [template(), template("P2")])
        vocab = self.whole_word_vocab(["aa", "bb"])
        preds = [pred("P1#0", "P1", ["o1"]), pred("P2#0", "P2", ["nope"])]
        assert compute_report(preds, ds, vocab=vocab).buckets == {1: {"n": 2, "p1": 0.5}}

    def test_unknown_word_still_counts_one_piece(self, tmp_path):
        ds = make_dataset(tmp_path, [triple_row("zq", "o1")], [template()])
        vocab = self.whole_word_vocab(["aa"])
        report = compute_report([pred("P1#0", "P1", ["o1"])], ds, vocab=vocab)
        assert report.buckets == {1: {"n": 1, "p1": 1.0}}

    def test_ranking_without_gold_is_a_miss(self, tmp_path):
        # --exclude-subject-match drops the gold object when it equals the subject
        rows = [triple_row("aa", "aa"), triple_row("bb", "cc"), triple_row("dd", "cc")]
        ds = make_dataset(tmp_path, rows, [template()])
        preds = [pred("P1#0", "P1", ["cc"]), pred("P1#1", "P1", ["cc", "aa"]),
                 pred("P1#2", "P1", ["aa"])]
        report = compute_report(preds, ds, vocab=self.whole_word_vocab(["aa"]))
        assert report.macro_p1 == pytest.approx(1 / 3)
        assert report.macro_p5 == pytest.approx(1 / 3)
        # mf is cc, so only the aa triple is kept, and its gold is absent
        assert (report.p1_mf, report.relations_dropped_by_mf) == (0.0, 0)
        assert report.buckets == {1: {"n": 3, "p1": pytest.approx(1 / 3)}}


def instance_pieces(tmp_path, seed):
    """Materialize a random instance as dataset, table, vocab, and oracle views."""
    inst = oracles.random_instance(seed)
    ds = make_dataset(tmp_path, inst["triples"], inst["templates"],
                      name=f"inst{seed}")
    vocab = SubwordVocab(list(SPECIAL_TOKENS)
                         + sorted(w for w, ok in inst["in_table"].items() if ok))
    words = [w for w, ok in inst["in_table"].items() if ok]
    table = EmbeddingTable(inst["dim"], words, np.array(
        [inst["vectors"][w] for w in words], dtype=np.float32).reshape(-1, inst["dim"]))
    return inst, ds, vocab, table


def oracle_views(inst, ds, cands):
    relations = {rel: [t.id for t in ds.triples_by_relation[rel]]
                 for rel in ds.relation_ids}
    gold = {t.id: t.object for t in ds.triples()}
    lengths = {t.id: len(t.subject.split()) for t in ds.triples()}
    exact_tops = {}
    for rel in ds.relation_ids:
        cand_vectors = {
            c: (inst["vectors"][c] if inst["in_table"].get(c, False)
                else [0] * inst["dim"])
            for c in cands[rel]
        }
        for t in ds.triples_by_relation[rel]:
            query = oracles.compose_exact(t.subject.split(), inst["vectors"],
                                          inst["in_table"], inst["dim"])
            exact_tops[t.id] = oracles.exact_rank(query, cand_vectors)
    return relations, gold, lengths, exact_tops


class TestBruteForceEquality:
    def test_report_matches_independent_recomputation(self, tmp_path):
        for seed in range(8):
            inst, ds, vocab, table = instance_pieces(tmp_path, seed)
            cands = ds.candidates
            preds = list(rank_static(table, vocab, ds))
            relations, gold, lengths, exact_tops = oracle_views(inst, ds, cands)

            top_lists = {p.triple_id: [c for c, _ in ranked(p)] for p in preds}
            assert top_lists == exact_tops, f"seed {seed}"

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
            assert report.avg_distinct_predictions == pytest.approx(
                avg_distinct, abs=1e-9)
            assert set(report.buckets) == set(buckets)
            for length, (p1, n) in buckets.items():
                assert report.buckets[length]["n"] == n
                assert report.buckets[length]["p1"] == pytest.approx(p1, abs=1e-9)


class TestReport:
    def test_roundtrip(self, tmp_path, mini_dataset, mini_vocab, mini_table):
        preds = rank_static(mini_table, mini_vocab, mini_dataset)
        report = compute_report(preds, mini_dataset, vocab=mini_vocab)
        path = tmp_path / "metrics.json"
        report.save(path)
        assert MetricsReport.load(path).to_dict() == report.to_dict()
        raw = json.loads(path.read_text(encoding="utf-8"))
        assert raw["metadata"]["entropy_scope"] == "pooled-top1-base2"
        assert raw["metadata"]["bucket_aggregation"] == "micro"
        assert raw["metadata"]["language"] == "en"

    def test_vocab_size_recorded_only_with_a_vocabulary(self, mini_dataset, mini_vocab):
        preds = [pred(t.id, t.relation_id, [t.object]) for t in mini_dataset.triples()]
        assert compute_report(preds, mini_dataset, vocab=mini_vocab).metadata["vocab_size"] \
            == mini_vocab.size
        assert "vocab_size" not in compute_report(preds, mini_dataset).metadata

    def test_language_recorded(self, mini_dataset):
        preds = [pred(t.id, t.relation_id, [t.object]) for t in mini_dataset.triples()]
        assert compute_report(preds, mini_dataset, language="de").metadata["language"] == "de"

    def test_predictions_outside_the_dataset_are_ignored(self, tmp_path):
        rows = [triple_row("s1", "aa"), triple_row("s2", "bb", "P2")]
        full = make_dataset(tmp_path, rows, [template(), template("P2")])
        subset, _ = apply_subset(full, ["P1#0"])
        preds = [pred("P1#0", "P1", ["aa", "bb"]), pred("P2#0", "P2", ["cc"])]
        report = compute_report(preds, subset)
        assert report.per_relation == {"P1": {"n_triples": 1, "p_at_1": 1.0,
                                              "p_at_5": 1.0}}
        assert report.metadata["n_triples"] == 1
        assert report.entropy_bits == 0.0
        assert report.relations_dropped_by_mf == 1

    def test_per_relation_tsv_layout(self, mini_dataset, mini_vocab, mini_table):
        preds = rank_static(mini_table, mini_vocab, mini_dataset)
        report = compute_report(preds, mini_dataset)
        lines = per_relation_tsv(report).splitlines()
        assert lines[0] == "relation\tn_triples\tp_at_1\tp_at_5"
        assert len(lines) == 1 + 3
        assert lines[1].startswith("P103\t6\t")

    def test_buckets_tsv_layout(self, mini_dataset, mini_vocab, mini_table):
        preds = rank_static(mini_table, mini_vocab, mini_dataset)
        report = compute_report(preds, mini_dataset, vocab=mini_vocab)
        lines = buckets_tsv(report).splitlines()
        assert lines[0] == "subject_length\tn\tp1"
        assert len(lines) == 1 + len(report.buckets)
