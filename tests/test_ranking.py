import hashlib
import json
import math
import random
import tracemalloc

import numpy as np
import pytest

from clozerank import ranking
from clozerank.embeddings import EmbeddingTable
from clozerank.kb import CandidateSet, Dataset, RelationSpec, Triple, build_candidates
from clozerank.metrics import compute_report
from clozerank.ranking import (
    Prediction,
    export_mlm_manifest,
    load_predictions,
    rank_mlm,
    rank_oracle,
    rank_static,
    read_lookup,
    save_predictions,
    write_stub_scores,
)
from clozerank.wordpiece import SPECIAL_TOKENS, SubwordVocab, tokenize

from conftest import make_dataset, ranked
from test_metrics import instance_pieces

TEMPLATE = {"relation": "P1", "template": "[X] maps to [Y] ."}


def make_vocab(words):
    return SubwordVocab(list(SPECIAL_TOKENS) + sorted(words))


def make_table(entries):
    matrix = np.array(list(entries.values()), dtype=np.float32)
    return EmbeddingTable(matrix.shape[1], list(entries), matrix)


def triple_row(subject, obj, relation="P1"):
    return {"sub_label": subject, "predicate_id": relation, "obj_label": obj}


def one_triple_setup(tmp_path, subject, entries, candidate_labels):
    """Dataset with a single triple whose gold object is the first candidate."""
    ds = make_dataset(tmp_path, [triple_row(subject, candidate_labels[0])],
                      [TEMPLATE])
    cands = {"P1": CandidateSet("P1", tuple(sorted(candidate_labels)))}
    vocab = make_vocab(set(entries) | {subject} | set(candidate_labels))
    return ds, cands, vocab, make_table(entries)


class TestStaticRanking:
    def test_collinear_and_orthogonal(self, tmp_path):
        entries = {"qq": [1, 0], "aa": [2, 0], "bb": [0, 3]}
        ds, cands, vocab, table = one_triple_setup(tmp_path, "qq", entries,
                                                   ["aa", "bb"])
        (pred,) = rank_static(table, vocab, ds, cands)
        assert ranked(pred) == [("aa", 1.0), ("bb", 0.0)]
        assert pred.flags == {"query_oov": False, "zero_norm": False}

    def test_hand_computed_cosines(self, tmp_path):
        entries = {"qq": [2, 1], "c1": [1, 1], "c2": [1, 0], "c3": [0, 1]}
        ds, cands, vocab, table = one_triple_setup(tmp_path, "qq", entries,
                                                   ["c1", "c2", "c3"])
        (pred,) = rank_static(table, vocab, ds, cands)
        assert [cand for cand, _ in ranked(pred)] == ["c1", "c2", "c3"]
        expected = {"c1": 3 / math.sqrt(10), "c2": 2 / math.sqrt(5),
                    "c3": 1 / math.sqrt(5)}
        for cand, score in ranked(pred):
            assert score == pytest.approx(expected[cand], abs=1e-12)

    def test_antiparallel_and_zero_norm_share_the_floor(self, tmp_path):
        # cos((1,0), (-2,0)) = -1 exactly; a zero candidate also scores -1.0
        entries = {"qq": [1, 0], "am": [-2, 0], "bb": [0, 1], "zz": [0, 0]}
        ds, cands, vocab, table = one_triple_setup(tmp_path, "qq", entries,
                                                   ["am", "bb", "zz"])
        (pred,) = rank_static(table, vocab, ds, cands)
        assert ranked(pred) == [("bb", 0.0), ("am", -1.0), ("zz", -1.0)]
        assert pred.flags["zero_norm"] is True

    def test_zero_norm_query_floors_everything(self, tmp_path):
        entries = {"qq": [0, 0], "aa": [1, 0], "bb": [0, 1]}
        ds, cands, vocab, table = one_triple_setup(tmp_path, "qq", entries,
                                                   ["aa", "bb"])
        (pred,) = rank_static(table, vocab, ds, cands)
        assert ranked(pred) == [("aa", -1.0), ("bb", -1.0)]
        assert pred.flags["zero_norm"] is True

    def test_blank_subject_composes_no_piece(self):
        # ingest_dataset rejects a blank label, so only a hand-built Dataset holds one.
        ds = Dataset("en", {"P1": RelationSpec("P1", TEMPLATE["template"])},
                     {"P1": [Triple("P1#0", "   ", "P1", "bb")]})
        cands = {"P1": CandidateSet("P1", ("aa", "bb"))}
        table = make_table({"aa": [1, 0], "bb": [0, 1]})
        (pred,) = rank_static(table, make_vocab(["aa", "bb"]), ds, cands)
        assert ranked(pred) == [("aa", -1.0), ("bb", -1.0)]
        assert pred.flags == {"query_oov": True, "zero_norm": True}

    def test_out_of_vocabulary_subject_is_flagged(self, tmp_path):
        entries = {"aa": [1, 0], "bb": [0, 1]}
        ds = make_dataset(tmp_path, [triple_row("zq", "aa")], [TEMPLATE])
        cands = {"P1": CandidateSet("P1", ("aa", "bb"))}
        vocab = make_vocab(["aa", "bb"])  # cannot segment "zq"
        (pred,) = rank_static(make_table(entries), vocab, ds, cands)
        assert pred.flags["query_oov"] is True

    def test_scale_invariance_of_ranking(self, tmp_path):
        rng = random.Random(11)
        entries = {w: [rng.randint(0, 9) for _ in range(4)]
                   for w in ["qq", "c1", "c2", "c3", "c4"]}
        ds, cands, vocab, table = one_triple_setup(
            tmp_path, "qq", entries, ["c1", "c2", "c3", "c4"])
        (base,) = rank_static(table, vocab, ds, cands)
        for factor in (0.5, 2.0, 3.7, 7.0):
            scaled_table = EmbeddingTable(table.dim, table.entries,
                                          table.matrix * np.float32(factor))
            (scaled,) = rank_static(scaled_table, vocab, ds, cands)
            assert [c for c, _ in ranked(scaled)] == [c for c, _ in ranked(base)]
            # scores drift by float32 rounding of the scaled vectors
            for (_, a), (_, b) in zip(ranked(scaled), ranked(base)):
                assert a == pytest.approx(b, abs=1e-6)

    def test_identical_vectors_tie_break_lexicographically(self, tmp_path):
        entries = {"qq": [1, 2], "xx": [3, 4], "ya": [3, 4]}
        ds, cands, vocab, table = one_triple_setup(tmp_path, "qq", entries,
                                                   ["xx", "ya"])
        (pred,) = rank_static(table, vocab, ds, cands)
        assert ranked(pred)[0][1] == ranked(pred)[1][1]
        assert [cand for cand, _ in ranked(pred)] == ["xx", "ya"]

    def test_exclude_subject_match(self, tmp_path):
        entries = {"aa": [1, 0], "bb": [0, 1]}
        ds = make_dataset(tmp_path, [triple_row("aa", "bb")], [TEMPLATE])
        cands = {"P1": CandidateSet("P1", ("aa", "bb"))}
        vocab = make_vocab(["aa", "bb"])
        table = make_table(entries)
        (kept,) = rank_static(table, vocab, ds, cands)
        assert [c for c, _ in ranked(kept)] == ["aa", "bb"]
        (dropped,) = rank_static(table, vocab, ds, cands,
                                 exclude_subject_match=True)
        assert [c for c, _ in ranked(dropped)] == ["bb"]

    def test_ranking_covers_exactly_the_candidate_set(
            self, mini_dataset, mini_vocab, mini_table):
        cands = build_candidates(mini_dataset)
        preds = list(rank_static(mini_table, mini_vocab, mini_dataset, cands))
        assert len(preds) == mini_dataset.n_triples
        for pred in preds:
            labels = sorted(c for c, _ in ranked(pred))
            assert labels == list(cands[pred.relation_id].candidates)


def scalar_scores(table, vocab, dataset, candidates):
    """{triple_id: {label: score}} from float64 scalar arithmetic, pair by pair.

    A string's vector is the mean of its pieces' rows, a piece absent from
    the table counting as zero; a pair with a zero norm scores -1.0.
    """
    def mean_row(text):
        tokens = vocab.ids_to_tokens(tokenize(vocab, text))
        total = [0.0] * table.dim
        for token in tokens:
            if token in table.entries:
                total = [a + float(b) for a, b in zip(total, table.matrix[table.entries[token]])]
        return [x / max(len(tokens), 1) for x in total]

    def cosine(q, c):
        qn, cn = math.sqrt(sum(x * x for x in q)), math.sqrt(sum(x * x for x in c))
        if qn == 0.0 or cn == 0.0:
            return -1.0
        return sum(a * b for a, b in zip(q, c)) / (qn * cn)

    return {t.id: {c: cosine(mean_row(t.subject), mean_row(c))
                   for c in candidates[t.relation_id]}
            for t in dataset.triples()}


class TestVectorisedScores:
    """rank_static scores each relation with one matrix product."""

    def assert_scores_match_scalar(self, table, vocab, dataset):
        cands = build_candidates(dataset)
        reference = scalar_scores(table, vocab, dataset, cands)
        preds = list(rank_static(table, vocab, dataset, cands))
        assert isinstance(preds, list)
        for pred in preds:
            expected = reference[pred.triple_id]
            assert sorted(label for label, _ in ranked(pred)) == sorted(expected)
            for label, score in ranked(pred):
                assert abs(score - expected[label]) <= 1e-12, (pred.triple_id, label)

    def test_mini_fixture_scores_match_scalar_reference(self, mini_dataset, mini_vocab,
                                                        mini_table):
        self.assert_scores_match_scalar(mini_table, mini_vocab, mini_dataset)

    def test_random_instance_scores_match_scalar_reference(self, tmp_path):
        for seed in range(20):
            _, ds, vocab, table = instance_pieces(tmp_path, seed)
            self.assert_scores_match_scalar(table, vocab, ds)

    # Shapes at which, on one OpenBLAS build, a gemm or gemv without the dedupe
    # gave a row copied into the first and last columns different last bits;
    # which shapes do so depends on the BLAS kernel.
    @pytest.mark.parametrize("dim, n_candidates, n_subjects",
                             [(8, 70, 1), (24, 130, 1), (100, 65, 3), (100, 70, 3)])
    def test_copied_and_doubled_rows_tie_bitwise(self, tmp_path, dim, n_candidates,
                                                 n_subjects):
        rng = random.Random(dim * n_candidates)
        labels = [f"c{i:03d}" for i in range(n_candidates)]
        entries = {w: [rng.randint(0, 99) for _ in range(dim)] for w in labels}
        base = entries[labels[0]]
        tied = [labels[0], labels[1], labels[-2], labels[-1]]
        entries[labels[1]] = entries[labels[-2]] = [2 * x for x in base]
        entries[labels[-1]] = list(base)
        subjects = [f"s{i}" for i in range(n_subjects)]
        entries.update({s: [rng.randint(0, 99) for _ in range(dim)] for s in subjects})
        ds = make_dataset(tmp_path, [triple_row(s, labels[0]) for s in subjects], [TEMPLATE])
        cands = {"P1": CandidateSet("P1", tuple(labels))}
        preds = list(rank_static(make_table(entries), make_vocab(entries), ds, cands))
        assert len(preds) == n_subjects
        for pred in preds:
            at = [i for i, (label, _) in enumerate(ranked(pred)) if label in tied]
            assert [ranked(pred)[i][0] for i in at] == tied
            assert at == list(range(at[0], at[0] + len(tied)))
            assert len({ranked(pred)[i][1].hex() for i in at}) == 1

    def test_zero_norm_flag_counts_only_the_candidates_left(self, tmp_path):
        # An excluded candidate is the subject's own string: it is zero-norm
        # only with the subject, whose floor sets the flag on its own.
        entries = {"aa": [1, 0], "bb": [0, 1], "zz": [0, 0]}
        rows = [triple_row("aa", "bb"), triple_row("zz", "aa"), triple_row("bb", "aa")]
        ds = make_dataset(tmp_path, rows, [TEMPLATE])
        cands = {"P1": CandidateSet("P1", ("aa", "bb", "zz"))}
        preds = rank_static(make_table(entries), make_vocab(entries), ds, cands,
                            exclude_subject_match=True)
        got = {p.triple_id: (ranked(p), p.flags["zero_norm"]) for p in preds}
        assert got["P1#0"] == ([("bb", 0.0), ("zz", -1.0)], True)
        assert got["P1#1"] == ([("aa", -1.0), ("bb", -1.0)], True)
        assert got["P1#2"] == ([("aa", 0.0), ("zz", -1.0)], True)
        cands = {"P1": CandidateSet("P1", ("aa", "bb"))}
        first, second, third = rank_static(make_table(entries), make_vocab(entries), ds,
                                             cands, exclude_subject_match=True)
        assert (ranked(first), first.flags["zero_norm"]) == ([("bb", 0.0)], False)
        assert (ranked(second), second.flags["zero_norm"]) == (
            [("aa", -1.0), ("bb", -1.0)], True)
        assert (ranked(third), third.flags["zero_norm"]) == ([("aa", 0.0)], False)

    def test_only_tuple_rankings_are_shared(self, tmp_path):
        # Two triples share a subject, and two zero-norm subjects share the floor.
        entries = {"aa": [1, 2], "bb": [2, 1], "cc": [3, 0], "yy": [0, 0], "zz": [0, 0]}
        rows = [triple_row("aa", "bb"), triple_row("aa", "cc"), triple_row("yy", "bb"),
                triple_row("zz", "cc")]
        ds = make_dataset(tmp_path, rows, [TEMPLATE])
        cands = build_candidates(ds)
        preds = list(rank_static(make_table(entries), make_vocab(entries), ds, cands))
        assert ranked(preds[0]) == ranked(preds[1])
        assert ranked(preds[2]) == ranked(preds[3]) == [("bb", -1.0), ("cc", -1.0)]
        live = [seq for p in preds[:2] for seq in (p.labels, p.scores)]
        assert all(type(seq) is list for seq in live)
        assert len({id(seq) for seq in live}) == 4
        for group in (preds, list(rank_oracle(ds, cands))):
            sequences = [seq for p in group for seq in (p.labels, p.scores)]
            shared = [seq for seq in sequences if sum(seq is other for other in sequences) > 1]
            assert shared and all(type(seq) is tuple for seq in shared)


class TestOracle:
    def test_most_frequent_object_wins(self, tmp_path):
        rows = [triple_row("s1", "aa"), triple_row("s2", "aa"),
                triple_row("s3", "bb")]
        ds = make_dataset(tmp_path, rows, [TEMPLATE])
        preds = list(rank_oracle(ds, build_candidates(ds)))
        assert len(preds) == 3
        for pred in preds:
            assert ranked(pred) == [("aa", 2.0), ("bb", 1.0)]

    def test_frequency_tie_breaks_lexicographically(self, tmp_path):
        rows = [triple_row("s1", "bb"), triple_row("s2", "aa")]
        ds = make_dataset(tmp_path, rows, [TEMPLATE])
        preds = rank_oracle(ds, build_candidates(ds))
        assert all(ranked(p)[0][0] == "aa" for p in preds)

    def test_candidate_outside_gold_objects_scores_zero(self, tmp_path):
        ds = make_dataset(tmp_path, [triple_row("s1", "bb")], [TEMPLATE])
        cands = {"P1": CandidateSet("P1", ("aa", "bb"))}
        (pred,) = rank_oracle(ds, cands)
        assert ranked(pred) == [("bb", 1.0), ("aa", 0.0)]

    def test_ties_at_every_frequency_rank_by_label(self, tmp_path):
        rows = [triple_row(f"s{i}", obj) for i, obj in enumerate("dd bb cc bb dd aa".split())]
        ds = make_dataset(tmp_path, rows, [TEMPLATE])
        cands = {"P1": CandidateSet("P1", ("aa", "bb", "cc", "dd", "ee", "ff"))}
        for pred in rank_oracle(ds, cands):
            assert ranked(pred) == [("bb", 2.0), ("dd", 2.0), ("aa", 1.0), ("cc", 1.0),
                                   ("ee", 0.0), ("ff", 0.0)]


class TestManifestExport:
    def test_single_piece_candidate(self, tmp_path):
        ds = make_dataset(tmp_path, [triple_row("ada", "paris", "P19")],
                          [{"relation": "P19", "template": "[X] was born in [Y] ."}])
        vocab = make_vocab(["ada", "paris"])
        out = tmp_path / "manifest.jsonl"
        n = export_mlm_manifest(ds, build_candidates(ds), vocab, out)
        assert n == 1
        row = json.loads(out.read_text(encoding="utf-8"))
        assert row["query_text"] == "ada was born in [MASK] ."
        assert row["mask_token_ids"] == [vocab.token_to_id["paris"]]
        assert row["candidate_oov"] is False

    def test_multi_piece_candidate_gets_one_mask_per_piece(self, tmp_path):
        ds = make_dataset(tmp_path, [triple_row("ada", "parisian", "P19")],
                          [{"relation": "P19", "template": "[X] was born in [Y] ."}])
        vocab = make_vocab(["ada", "par", "##is", "##ian"])
        out = tmp_path / "manifest.jsonl"
        export_mlm_manifest(ds, build_candidates(ds), vocab, out)
        row = json.loads(out.read_text(encoding="utf-8"))
        assert row["query_text"] == "ada was born in [MASK] [MASK] [MASK] ."
        assert row["mask_token_ids"] == [vocab.token_to_id[t] for t in ("par", "##is", "##ian")]

    def test_unsegmentable_candidate_flagged(self, tmp_path):
        ds = make_dataset(tmp_path, [triple_row("ada", "qqq", "P19")],
                          [{"relation": "P19", "template": "[X] was born in [Y] ."}])
        vocab = make_vocab(["ada"])
        out = tmp_path / "manifest.jsonl"
        export_mlm_manifest(ds, build_candidates(ds), vocab, out)
        row = json.loads(out.read_text(encoding="utf-8"))
        assert row["candidate_oov"] is True
        assert row["mask_token_ids"] == [vocab.unk_id]

    def test_row_count_is_triples_times_candidates(self, tmp_path, mini_dataset,
                                                   mini_vocab):
        out = tmp_path / "manifest.jsonl"
        n = export_mlm_manifest(mini_dataset, build_candidates(mini_dataset),
                                mini_vocab, out)
        assert n == 18 * 3
        assert len(out.read_text(encoding="utf-8").splitlines()) == n


class TestAdapterRowBytes:
    """Manifest and stub-score lines are joined from encoded fragments; each must
    read as json.dumps(row, ensure_ascii=False) of the whole row dict."""

    # Non-ASCII and astral text, U+2028, '"', '\\' and control characters in
    # every string a row carries: ids, labels and the template.
    ODD = 'é𝄞\u2028"\\\x00\x1f\x7f'

    @pytest.fixture()
    def setup(self, tmp_path):
        odd = self.ODD
        objects = [f"aa{odd}", "aa", "aa bb", f"{odd}o", 'q"q']
        rows = [{"id": f"t{i}{odd}", "sub_label": f"s{i}{odd}", "obj_label": obj,
                 "predicate_id": f"P{odd}"} for i, obj in enumerate(objects)]
        rows.append({"id": "plain", "sub_label": "s", "obj_label": "aa", "predicate_id": "P2"})
        ds = make_dataset(tmp_path, rows, [
            {"relation": f"P{odd}", "template": f"[X] {odd} \\[Y]\" ."},
            {"relation": "P2", "template": "[X] is [Y] ."}])
        return ds, build_candidates(ds), make_vocab(["aa", "bb"])

    def expected_manifest(self, ds, cands, vocab):
        rows = []
        for rel in ds.relation_ids:
            for triple in ds.triples_by_relation[rel]:
                for cand in cands[rel]:
                    ids = tokenize(vocab, cand)
                    rows.append({"triple_id": triple.id, "relation_id": rel, "candidate": cand,
                                 "query_text": ranking.instantiate_query(
                                     ds.relations[rel], triple.subject, len(ids)),
                                 "mask_token_ids": ids,
                                 "candidate_oov": all(i == vocab.unk_id for i in ids)})
        return rows

    def test_manifest_lines_are_json_dumps_of_each_row(self, tmp_path, setup):
        ds, cands, vocab = setup
        out = tmp_path / "manifest.jsonl"
        expected = self.expected_manifest(ds, cands, vocab)
        assert {row["candidate_oov"] for row in expected} == {True, False}
        assert {len(row["mask_token_ids"]) for row in expected} >= {1, 2}
        assert export_mlm_manifest(ds, cands, vocab, out) == len(expected) == 26
        assert out.read_text(encoding="utf-8") == "".join(
            json.dumps(row, ensure_ascii=False) + "\n" for row in expected)

    def test_stub_score_lines_are_json_dumps_of_each_row(self, tmp_path, setup):
        ds, cands, vocab = setup
        manifest = tmp_path / "manifest.jsonl"
        export_mlm_manifest(ds, cands, vocab, manifest)
        pinned = ("t0" + self.ODD, "aa bb")
        lookup = {pinned: (-0.5, -0.0)}
        out = tmp_path / "scores.jsonl"
        assert write_stub_scores(manifest, out, lookup=lookup) == 26
        expected = []
        for row in self.expected_manifest(ds, cands, vocab):
            pair = (row["triple_id"], row["candidate"])
            lps = lookup.get(pair)
            if lps is None:
                lps = []
                for i in range(len(row["mask_token_ids"])):
                    digest = hashlib.sha256(f"{pair[0]}\t{pair[1]}\t{i}".encode("utf-8")).digest()
                    lps.append(-0.01 - 7.99 * (int.from_bytes(digest[:8], "big") / 2 ** 64))
            expected.append({"triple_id": pair[0], "candidate": pair[1], "token_logprobs": lps})
        assert out.read_text(encoding="utf-8") == "".join(
            json.dumps(row, ensure_ascii=False) + "\n" for row in expected)


class TestScoreRecords:
    """rank_mlm applies the one log-prob rule to every score row."""

    def test_score_is_mean_of_token_logprobs(self, tmp_path):
        ds = make_dataset(tmp_path, [triple_row("s1", "aa", "P1")], [TEMPLATE])
        scores = write_scores(tmp_path / "s.jsonl", [("P1#0", "aa", [-1.0, -3.0])])
        (pred,) = rank_mlm(scores, ds, {"P1": CandidateSet("P1", ("aa",))})
        assert ranked(pred) == [("aa", -2.0)]

    def test_validation(self, tmp_path):
        ds = make_dataset(tmp_path, [triple_row("s1", "aa", "P1")], [TEMPLATE])
        cands = {"P1": CandidateSet("P1", ("aa",))}
        # json writes NaN and -Infinity, and Python's json reads them back.
        for lps in ([], [-1.0, 0.5], [math.nan], [-math.inf]):
            scores = write_scores(tmp_path / "s.jsonl", [("P1#0", "aa", lps)])
            with pytest.raises(ValueError) as err:
                rank_mlm(scores, ds, cands)
            assert str(err.value).startswith(f"{scores}:1: malformed score row")
        scores = write_scores(tmp_path / "s.jsonl", [("P1#0", "aa", [0.0])])
        (pred,) = rank_mlm(scores, ds, cands)
        assert ranked(pred) == [("aa", 0.0)]  # certainty is allowed

    @pytest.mark.parametrize("lps, problem", [
        ([True], "token_logprobs must be a non-empty list of numbers, got [True]"),
        (["-1"], "token_logprobs must be a non-empty list of numbers, got ['-1']"),
        ([], "token_logprobs must be a non-empty list of numbers, got []"),
        ([math.nan], "log-prob nan must be finite and <= 0"),
        ([math.inf], "log-prob inf must be finite and <= 0"),
        ([0.5], "log-prob 0.5 must be finite and <= 0"),
        ([-1, 0.5, 2], "log-prob 0.5 must be finite and <= 0"),
        ([-10 ** 400], "int too large to convert to float"),
    ], ids=["bool", "numeric-str", "empty", "nan", "infinity", "positive", "first-bad",
            "huge-int"])
    def test_score_rows_and_lookups_name_the_same_problem(self, tmp_path, lps, problem):
        ds = make_dataset(tmp_path, [triple_row("s1", "aa", "P1")], [TEMPLATE])
        scores = write_scores(tmp_path / "s.jsonl", [("P1#0", "aa", lps)])
        with pytest.raises(ValueError) as err:
            rank_mlm(scores, ds, {"P1": CandidateSet("P1", ("aa",))})
        assert str(err.value) == f"{scores}:1: malformed score row: {problem}"
        lookup = tmp_path / "lookup.json"
        lookup.write_text(json.dumps({"P1#0": {"aa": lps}}), encoding="utf-8")
        with pytest.raises(ValueError) as err:
            read_lookup(lookup)
        assert str(err.value) == f"{lookup}: lookup entry 'P1#0', candidate 'aa': {problem}"


def write_scores(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        for triple_id, cand, lps in rows:
            f.write(json.dumps({"triple_id": triple_id, "candidate": cand,
                                "token_logprobs": lps}) + "\n")
    return path


class TestMlmRanking:
    def setup_single(self, tmp_path):
        ds = make_dataset(tmp_path, [triple_row("s1", "aa", "P1")], [TEMPLATE])
        cands = {"P1": CandidateSet("P1", ("aa", "bb"))}
        return ds, cands

    def test_mean_logprob_ranking(self, tmp_path):
        ds, cands = self.setup_single(tmp_path)
        scores = write_scores(tmp_path / "s.jsonl", [
            ("P1#0", "aa", [-0.5]),
            ("P1#0", "bb", [-0.1, -4.0]),
        ])
        (pred,) = rank_mlm(scores, ds, cands)
        assert ranked(pred) == [("aa", -0.5), ("bb", (-0.1 + -4.0) / 2)]

    def test_row_order_is_irrelevant(self, tmp_path, mini_dataset):
        cands = build_candidates(mini_dataset)
        rows = []
        for rel in mini_dataset.relation_ids:
            for t in mini_dataset.triples_by_relation[rel]:
                for i, c in enumerate(cands[rel]):
                    rows.append((t.id, c, [-0.25 * (i + 1), -1.5]))
        fwd = rank_mlm(write_scores(tmp_path / "fwd.jsonl", rows),
                       mini_dataset, cands)
        random.Random(5).shuffle(rows)
        rev = rank_mlm(write_scores(tmp_path / "rev.jsonl", rows),
                       mini_dataset, cands)
        assert [(p.triple_id, ranked(p)) for p in fwd] \
            == [(p.triple_id, ranked(p)) for p in rev]

    def test_missing_pairs_listed_first_ten(self, tmp_path):
        rows = [triple_row(f"s{i:02d}", f"obj{i:02d}") for i in range(12)]
        ds = make_dataset(tmp_path, rows, [TEMPLATE])
        empty = write_scores(tmp_path / "empty.jsonl", [])
        with pytest.raises(ValueError) as err:
            rank_mlm(empty, ds, build_candidates(ds))
        message = str(err.value)
        assert "144" in message
        assert message.count("P1#") == 10

    def test_duplicate_pair_rejected(self, tmp_path):
        ds, cands = self.setup_single(tmp_path)
        scores = write_scores(tmp_path / "s.jsonl", [
            ("P1#0", "aa", [-0.5]), ("P1#0", "aa", [-0.5]),
            ("P1#0", "bb", [-1.0]),
        ])
        with pytest.raises(ValueError, match="duplicate"):
            rank_mlm(scores, ds, cands)

    def test_unmatched_score_row_rejected(self, tmp_path):
        ds, cands = self.setup_single(tmp_path)
        scores = write_scores(tmp_path / "s.jsonl", [
            ("P1#0", "aa", [-0.5]), ("P1#0", "bb", [-1.0]),
            ("ghost", "aa", [-1.0]),
        ])
        with pytest.raises(ValueError, match="ghost"):
            rank_mlm(scores, ds, cands)

    def test_unscored_pair_reported_before_extra_row(self, tmp_path):
        ds, cands = self.setup_single(tmp_path)
        scores = write_scores(tmp_path / "s.jsonl", [
            ("P1#0", "aa", [-0.5]), ("ghost", "aa", [-1.0]),
        ])
        with pytest.raises(ValueError, match=r"^1 \(triple, candidate\) pairs unscored: "
                                             r"\('P1#0', 'bb'\)$"):
            rank_mlm(scores, ds, cands)

    def test_manifest_mask_count_cross_check(self, tmp_path):
        ds, cands = self.setup_single(tmp_path)
        manifest = tmp_path / "m.jsonl"
        with open(manifest, "w", encoding="utf-8") as f:
            for cand, ids in (("aa", [4, 5]), ("bb", [6])):
                f.write(json.dumps({"triple_id": "P1#0", "candidate": cand,
                                    "mask_token_ids": ids}) + "\n")
        bad = write_scores(tmp_path / "bad.jsonl", [
            ("P1#0", "aa", [-0.5]), ("P1#0", "bb", [-1.0]),
        ])
        with pytest.raises(ValueError, match="mask count"):
            rank_mlm(bad, ds, cands, manifest_path=manifest)
        good = write_scores(tmp_path / "good.jsonl", [
            ("P1#0", "aa", [-0.5, -0.7]), ("P1#0", "bb", [-1.0]),
        ])
        (pred,) = rank_mlm(good, ds, cands, manifest_path=manifest)
        assert ranked(pred)[0][0] == "aa"

    def write_manifest(self, path, rows):
        with open(path, "w", encoding="utf-8") as f:
            for triple_id, cand, ids in rows:
                f.write(json.dumps({"triple_id": triple_id, "candidate": cand,
                                    "mask_token_ids": ids}) + "\n")
        return path

    @pytest.mark.parametrize("scored, repeated", [
        ([("P1#0", "aa", [-0.5]), ("P1#0", "bb", [-1.0])], ("P1#0", "aa")),
        ([("P1#0", "aa", [-0.5])], ("P1#0", "bb")),
        ([("P1#0", "aa", [-0.5]), ("P1#0", "bb", [-1.0]), ("ghost", "aa", [-1.0])],
         ("ghost", "aa")),
    ], ids=["scored", "unscored", "matches-no-pair"])
    def test_manifest_row_repeated_rejected(self, tmp_path, scored, repeated):
        ds, cands = self.setup_single(tmp_path)
        scores = write_scores(tmp_path / "s.jsonl", scored)
        manifest = self.write_manifest(tmp_path / "m.jsonl", [
            ("P1#0", "aa", [4]), ("P1#0", "bb", [6]), ("ghost", "aa", [4]), (*repeated, [4])])
        with pytest.raises(ValueError) as err:
            rank_mlm(scores, ds, cands, manifest_path=manifest)
        first = {("P1#0", "aa"): 1, ("P1#0", "bb"): 2, ("ghost", "aa"): 3}[repeated]
        assert str(err.value) == (f"{manifest}:4: duplicate manifest row for {repeated!r} "
                                  f"(first at line {first})")

    @pytest.mark.parametrize("listed, message", [
        (True, "1 score rows match no (triple, candidate) pair: ('ghost', 'aa')"),
        (False, "{manifest}: 1 scored pairs have no manifest row: ('ghost', 'aa')"),
    ], ids=["listed", "unlisted"])
    def test_score_row_that_matches_no_pair_with_manifest(self, tmp_path, listed, message):
        ds, cands = self.setup_single(tmp_path)
        scores = write_scores(tmp_path / "s.jsonl", [
            ("ghost", "aa", [-1.0]), ("P1#0", "aa", [-0.5]), ("P1#0", "bb", [-1.0])])
        manifest = self.write_manifest(tmp_path / "m.jsonl", [
            ("P1#0", "aa", [4]), ("P1#0", "bb", [6]), ("ghost", "aa", [4])][:3 if listed else 2])
        with pytest.raises(ValueError) as err:
            rank_mlm(scores, ds, cands, manifest_path=manifest)
        assert str(err.value) == message.format(manifest=manifest)

    def test_equal_means_tie_break_lexicographically(self, tmp_path):
        ds, cands = self.setup_single(tmp_path)
        scores = write_scores(tmp_path / "s.jsonl", [
            ("P1#0", "bb", [-1.0]), ("P1#0", "aa", [-2.0, 0.0]),
        ])
        (pred,) = rank_mlm(scores, ds, cands)
        assert [cand for cand, _ in ranked(pred)] == ["aa", "bb"]

    @pytest.mark.parametrize("first, second, mean", [
        ([-1.0, -3.0], [-2.0], -2.0), ([-2.0], [-1.0, -3.0], -2.0),
        ([0.0], [-0.0], 0.0), ([-0.0], [0.0], 0.0),
    ], ids=["two-one", "one-two", "zero-negative-zero", "negative-zero-zero"])
    def test_equal_means_from_different_rows_rank_the_smaller_label_first(
            self, tmp_path, first, second, mean):
        ds, cands = self.setup_single(tmp_path)
        scores = write_scores(tmp_path / "s.jsonl", [
            ("P1#0", "bb", first), ("P1#0", "aa", second),
        ])
        (pred,) = rank_mlm(scores, ds, cands)
        assert ranked(pred) == [("aa", mean), ("bb", mean)]


class TestStubScorer:
    def make_manifest(self, tmp_path):
        manifest = tmp_path / "m.jsonl"
        with open(manifest, "w", encoding="utf-8") as f:
            for cand, ids in (("aa", [4]), ("bb", [5, 6])):
                f.write(json.dumps({"triple_id": "t1", "candidate": cand,
                                    "mask_token_ids": ids}) + "\n")
        return manifest

    def test_lookup_values_pass_through(self, tmp_path):
        manifest = self.make_manifest(tmp_path)
        out = tmp_path / "scores.jsonl"
        n = write_stub_scores(manifest, out, lookup={("t1", "aa"): (-0.5,)})
        assert n == 2
        rows = {r["candidate"]: r["token_logprobs"]
                for r in map(json.loads, out.read_text().splitlines())}
        assert rows["aa"] == [-0.5]
        assert len(rows["bb"]) == 2
        for lp in rows["bb"]:
            assert -8.0 <= lp <= -0.01

    def test_wrong_length_lookup_rejected(self, tmp_path):
        manifest = self.make_manifest(tmp_path)
        with pytest.raises(ValueError, match="log-probs"):
            write_stub_scores(manifest, tmp_path / "x.jsonl",
                              lookup={("t1", "aa"): (-0.5, -0.5)})

    def test_filler_is_deterministic(self, tmp_path):
        manifest = self.make_manifest(tmp_path)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_stub_scores(manifest, a)
        write_stub_scores(manifest, b)
        assert a.read_text() == b.read_text()

    def test_filler_hashes_pair_and_position(self, tmp_path):
        out = tmp_path / "scores.jsonl"
        write_stub_scores(self.make_manifest(tmp_path), out)
        rows = {r["candidate"]: r["token_logprobs"]
                for r in map(json.loads, out.read_text().splitlines())}
        for cand, lps in rows.items():
            for i, lp in enumerate(lps):
                digest = hashlib.sha256(f"t1\t{cand}\t{i}".encode("utf-8")).digest()
                assert lp == -0.01 - 7.99 * (int.from_bytes(digest[:8], "big") / 2 ** 64)
        assert [len(lps) for lps in rows.values()] == [1, 2]

    @pytest.mark.parametrize("lookup, unused", [
        ({("t9", "aa"): (-0.5,)}, "('t9', 'aa')"),
        ({("t1", "zz"): (-0.5,), ("t1", "aa"): (-0.5,)}, "('t1', 'zz')"),
        ({(f"t{i:02d}", "aa"): (-0.5,) for i in range(2, 14)},
         ", ".join(f"('t{i:02d}', 'aa')" for i in range(2, 12))),
    ], ids=["unknown-triple", "unknown-candidate", "first-ten"])
    def test_lookup_pair_without_manifest_row_rejected(self, tmp_path, lookup, unused):
        out = tmp_path / "scores.jsonl"
        out.write_text("earlier\n", encoding="utf-8")
        with pytest.raises(ValueError) as err:
            write_stub_scores(self.make_manifest(tmp_path), out, lookup=lookup)
        count = len(lookup) - (("t1", "aa") in lookup)
        assert str(err.value) == f"{count} lookup pairs match no manifest row: {unused}"
        assert out.read_text(encoding="utf-8") == "earlier\n"
        assert not (tmp_path / "scores.jsonl.part").exists()


class TestPredictionIO:
    def test_roundtrip(self, tmp_path):
        preds = [
            Prediction("t1", "P1", ["aa", "bb"], [1.0, -0.25],
                       flags={"query_oov": False, "zero_norm": True}),
            Prediction("t2", "P2", ["cc"], [0.3333333333333333]),
        ]
        path = tmp_path / "preds.jsonl"
        save_predictions(preds, path)
        loaded = load_predictions(path)
        assert [(p.triple_id, p.relation_id, ranked(p), p.flags) for p in loaded] \
            == [(p.triple_id, p.relation_id, ranked(p), p.flags) for p in preds]

    @staticmethod
    def shared_rankings():
        """Rank oracle's rows: every triple of a relation holds the same tuples."""
        ranking = (("ä", "b", "c"), (2.0, 0.5, 0.0))
        return [ranking] * 3, [{"query_oov": False}] * 3

    @staticmethod
    def floor_minus_one():
        """Zero-norm floor rows; the second excludes its subject."""
        floor = (("a", "b", "c"), (-1.0,) * 3)
        excluded = (("a", "c"), floor[1][1:])
        return [floor, excluded, floor], [{"zero_norm": True}] * 3

    @staticmethod
    def equal_values_distinct_objects():
        """0.0 == -0.0 and 1 == 1.0, but each encodes differently."""
        labels = ("a",)
        return ([(labels, [0.0]), (labels, [-0.0]), (labels, [1]), (labels, [1.0])],
                [{}] * 4)

    @staticmethod
    def one_ranking_different_flags():
        ranking = (["a", "b"], [0.25, -1.0])
        return [ranking] * 3, [{"query_oov": False}, {"query_oov": True},
                               {"query_oov": True, "zero_norm": True}]

    @staticmethod
    def same_labels_other_scores():
        labels = ("a", "b")
        return [(labels, (0.5, -1.0)), (labels, (0.25, 0.0))], [{}] * 2

    @staticmethod
    def same_scores_other_labels():
        scores = (0.5, -1.0)
        return [(("a", "b"), scores), (("b", "a"), scores)], [{}] * 2

    @pytest.mark.parametrize("case", ["shared_rankings", "floor_minus_one",
                                      "equal_values_distinct_objects",
                                      "one_ranking_different_flags",
                                      "same_labels_other_scores",
                                      "same_scores_other_labels"])
    def test_reused_ranking_text_writes_exact_bytes(self, tmp_path, case):
        rankings, flags = getattr(self, case)()
        preds = [Prediction(f"t{i}", "P1", labels, scores, flags=dict(f))
                 for i, ((labels, scores), f) in enumerate(zip(rankings, flags))]
        path = tmp_path / "preds.jsonl"
        save_predictions(preds, path)
        expected = "".join(json.dumps({"triple_id": p.triple_id, "relation_id": p.relation_id,
                                       "ranked": ranked(p), "flags": p.flags},
                                      ensure_ascii=False) + "\n" for p in preds)
        assert path.read_text(encoding="utf-8") == expected

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('{"triple_id": "t1"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=":1:"):
            list(load_predictions(path))

    def test_non_object_row_reports_location(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        path.write_text('"x"\n', encoding="utf-8")
        with pytest.raises(ValueError, match=f"{path}:1: expected a JSON object"):
            list(load_predictions(path))


class TestPredictionReader:
    """load_predictions rejects every malformed ranked field with path:LINE."""

    def write(self, tmp_path, ranked):
        path = tmp_path / "preds.jsonl"
        good = {"triple_id": "t0", "relation_id": "P1", "ranked": [["aa", 0.5]]}
        path.write_text(json.dumps(good) + "\n"
                        + json.dumps(dict(good, triple_id="t1", ranked=ranked)) + "\n",
                        encoding="utf-8")
        return path

    @pytest.mark.parametrize("ranked", [
        [], "ab", 5, {"aa": 1.0},
        ["ab"], [5], [{"a": 1, "b": 2}],
        [["a", 1.0], ["b", 2.0, 3]], [["a", 1.0], ["b"]], [["a", 1.0], []],
        [["a", 1.0], [1, 0.5]], [["a", 1.0], ["b", "2.5"]], [["a", 1.0], ["b", True]],
        [["a", 1.0], ["b", None]], [["a", 1.0], "ab"], [["a", True]],
    ], ids=["empty", "str", "number", "object", "str-entry", "number-entry",
            "object-entry", "long-entry", "short-entry", "empty-entry", "int-label",
            "str-score", "bool-score", "null-score", "two-char-entry", "only-bool-score"])
    def test_malformed_ranked_names_path_and_line(self, tmp_path, ranked):
        path = self.write(tmp_path, ranked)
        with pytest.raises(ValueError) as err:
            list(load_predictions(path))
        assert str(err.value) == (f"{path}:2: ranked must be a non-empty list of "
                                  "[label, score] pairs of a string and a number")

    def test_huge_integer_score_names_path_and_line(self, tmp_path):
        path = self.write(tmp_path, [["a", 10 ** 400]])
        with pytest.raises(ValueError) as err:
            list(load_predictions(path))
        assert str(err.value) == (f"{path}:2: malformed prediction: "
                                  "int too large to convert to float")

    def test_scores_read_as_floats(self, tmp_path):
        path = self.write(tmp_path, [["bb", 2], ["aa", -0.25], ["cc", 1e-300]])
        _, pred = load_predictions(path)
        assert ranked(pred) == [("bb", 2.0), ("aa", -0.25), ("cc", 1e-300)]
        assert [type(score) for _, score in ranked(pred)] == [float] * 3

    def test_repeated_label_names_path_and_line(self, tmp_path):
        path = self.write(tmp_path, [["bb", 3.0], ["aa", 2.5], ["aa", 2.0], ["bb", 1.0]])
        with pytest.raises(ValueError) as err:
            list(load_predictions(path))
        assert str(err.value) == f"{path}:2: ranked lists label 'bb' twice"

    @pytest.mark.parametrize("flags, shown", [
        (5, "5"), (None, "None"), (["query_oov"], "['query_oov']"),
        ({"query_oov": 1}, "{'query_oov': 1}"), ({"zero_norm": "true"}, "{'zero_norm': 'true'}"),
    ], ids=["number", "null", "list", "int-value", "str-value"])
    def test_flags_must_be_an_object_of_booleans(self, tmp_path, flags, shown):
        path = tmp_path / "preds.jsonl"
        path.write_text(json.dumps({"triple_id": "t0", "relation_id": "P1",
                                    "ranked": [["aa", 0.5]], "flags": flags}) + "\n",
                        encoding="utf-8")
        with pytest.raises(ValueError) as err:
            list(load_predictions(path))
        assert str(err.value) == f"{path}:1: flags must be an object of booleans, got {shown}"

    def test_row_without_flags_gets_empty_flags(self, tmp_path):
        path = self.write(tmp_path, [["aa", 0.5]])
        assert [p.flags for p in load_predictions(path)] == [{}, {}]

    def test_bad_row_raises_when_the_reader_reaches_it(self, tmp_path):
        path = self.write(tmp_path, [])
        rows = load_predictions(path)
        assert next(rows).triple_id == "t0"
        with pytest.raises(ValueError, match=f"{path}:2: ranked must be"):
            next(rows)


class TestStreamedMemory:
    """rank static and evaluate hold one ranking at a time, not every (label, score) pair.

    One relation of 1600 triples over 400 candidates is 640k pairs, which as
    tuples take tens of MB; streamed, the peak stays near one ranking.
    """

    BOUND = 2 * 2 ** 20

    @pytest.fixture(scope="class")
    def setup(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("streamed")
        rng = random.Random(5)
        objects = [f"o{i:03d}" for i in range(400)]
        subjects = [f"s{i:02d}" for i in range(16)]
        rows = [triple_row(subjects[i % 16], objects[i % 400]) for i in range(1600)]
        ds = make_dataset(tmp_path, rows, [TEMPLATE])
        entries = {w: [rng.randint(-9, 9) for _ in range(8)] for w in subjects + objects}
        table, vocab, cands = make_table(entries), make_vocab(entries), build_candidates(ds)
        path = tmp_path / "preds.jsonl"
        save_predictions(rank_static(table, vocab, ds, cands), path)
        return ds, table, vocab, cands, path

    def traced_peak(self, run):
        tracemalloc.start()
        try:
            result = run()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_rank_static_writes_with_bounded_memory(self, setup, tmp_path):
        ds, table, vocab, cands, expected = setup
        path = tmp_path / "preds.jsonl"
        count, peak = self.traced_peak(
            lambda: save_predictions(rank_static(table, vocab, ds, cands), path))
        assert peak < self.BOUND, f"peak {peak / 2 ** 20:.2f} MB"
        assert count == 1600
        assert path.read_bytes() == expected.read_bytes()

    def test_evaluate_reads_with_bounded_memory(self, setup):
        ds, _, _, _, path = setup
        report, peak = self.traced_peak(lambda: compute_report(load_predictions(path), ds))
        assert peak < self.BOUND, f"peak {peak / 2 ** 20:.2f} MB"
        assert report.metadata["n_triples"] == 1600


class TestMlmStreamedMemory:
    """rank mlm holds two numbers per pair, not a tuple and dict entry per pair,
    and writes one ranking at a time.

    One relation of 120 triples over 120 candidates is 14,400 pairs, which as
    dict entries and ranked tuples take about 4 MB; in slots they take 170 KB.
    """

    BOUND = 2 ** 20

    def test_rank_mlm_with_manifest_writes_with_bounded_memory(self, tmp_path):
        objects = [f"o{i:03d}" for i in range(120)]
        rows = [triple_row(f"s{i % 16:02d}", objects[i]) for i in range(120)]
        ds = make_dataset(tmp_path, rows, [TEMPLATE])
        cands = build_candidates(ds)
        manifest, scores = tmp_path / "m.jsonl", tmp_path / "s.jsonl"
        export_mlm_manifest(ds, cands, make_vocab(objects), manifest)
        write_stub_scores(manifest, scores)
        path = tmp_path / "preds.jsonl"
        tracemalloc.start()
        try:
            count = save_predictions(rank_mlm(scores, ds, cands, manifest_path=manifest), path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.BOUND, f"peak {peak / 2 ** 20:.2f} MB"
        assert count == 120


class TestComposeOnce:
    def test_each_distinct_string_composed_once(self, tmp_path, monkeypatch):
        # Three P1 triples share the subject aa; P1 and P2 share bb and cc.
        rows = [triple_row("aa", "bb"), triple_row("aa", "cc"), triple_row("aa", "dd"),
                triple_row("ee", "bb", "P2"), triple_row("ff", "cc", "P2")]
        ds = make_dataset(tmp_path, rows, [TEMPLATE, dict(TEMPLATE, relation="P2")])
        cands = build_candidates(ds)
        words = ["aa", "bb", "cc", "dd", "ee", "ff"]
        vocab = make_vocab(words)
        table = make_table({w: [i + 1.0, 1.0] for i, w in enumerate(words)})
        expected = list(rank_static(table, vocab, ds, cands))

        calls = []

        original = ranking.compose

        def counting(table, tokens):
            calls.append(tuple(tokens))
            return original(table, tokens)

        monkeypatch.setattr(ranking, "compose", counting)
        predictions = list(rank_static(table, vocab, ds, cands))
        assert sorted(calls) == [(w,) for w in words]
        assert [(p.triple_id, ranked(p), p.flags) for p in predictions] == \
            [(p.triple_id, ranked(p), p.flags) for p in expected]
