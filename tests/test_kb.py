import json
import random
import re

import pytest

from clozerank.kb import (
    Dataset,
    RelationSpec,
    Triple,
    apply_subset,
    ingest_dataset,
    instantiate_query,
    read_subset_ids,
)

from conftest import make_dataset, write_jsonl


def triple_row(subject, relation, obj, triple_id=None):
    row = {"sub_label": subject, "predicate_id": relation, "obj_label": obj}
    if triple_id is not None:
        row["id"] = triple_id
    return row


BIRTHPLACE = {"relation": "P19", "template": "[X] was born in [Y] ."}


class TestIngest:
    def test_single_triple(self, tmp_path):
        ds = make_dataset(tmp_path, [triple_row("Ada", "P19", "London")], [BIRTHPLACE])
        assert ds.relation_ids == ["P19"]
        assert ds.n_triples == 1
        (t,) = ds.triples_by_relation["P19"]
        assert (t.subject, t.object) == ("Ada", "London")
        assert ds.relations["P19"].template == BIRTHPLACE["template"]

    def test_ids_synthesized_per_relation_in_file_order(self, tmp_path):
        rows = [
            triple_row("a", "P19", "x"),
            triple_row("b", "P1", "y"),
            triple_row("c", "P19", "z"),
        ]
        templates = [BIRTHPLACE, {"relation": "P1", "template": "[X] is [Y] ."}]
        ds = make_dataset(tmp_path, rows, templates)
        assert [t.id for t in ds.triples_by_relation["P19"]] == ["P19#0", "P19#1"]
        assert [t.id for t in ds.triples_by_relation["P1"]] == ["P1#0"]

    def test_explicit_ids_respected(self, tmp_path):
        rows = [triple_row("a", "P19", "x", triple_id="custom-7")]
        ds = make_dataset(tmp_path, rows, [BIRTHPLACE])
        assert ds.triples_by_relation["P19"][0].id == "custom-7"

    def test_unknown_relation_named_in_error(self, tmp_path):
        rows = [triple_row("a", "P19", "x"), triple_row("b", "P999", "y")]
        with pytest.raises(ValueError, match="P999"):
            make_dataset(tmp_path, rows, [BIRTHPLACE])

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "triples.jsonl"
        good = '{"sub_label": "a", "predicate_id": "P19", "obj_label": "x"}'
        path.write_text(good + "\n{broken\n", encoding="utf-8")
        tpath = write_jsonl(tmp_path / "templates.jsonl", [BIRTHPLACE])
        with pytest.raises(ValueError, match=":2:"):
            ingest_dataset(path, tpath)

    def test_missing_field_rejected(self, tmp_path):
        rows = [{"sub_label": "a", "predicate_id": "P19"}]
        with pytest.raises(ValueError, match="obj_label"):
            make_dataset(tmp_path, rows, [BIRTHPLACE])

    def test_duplicate_triple_id_rejected(self, tmp_path):
        rows = [
            triple_row("a", "P19", "x", triple_id="t1"),
            triple_row("b", "P19", "y", triple_id="t1"),
        ]
        with pytest.raises(ValueError, match="t1"):
            make_dataset(tmp_path, rows, [BIRTHPLACE])

    def test_duplicate_template_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="duplicate"):
            make_dataset(tmp_path, [triple_row("a", "P19", "x")],
                         [BIRTHPLACE, BIRTHPLACE])

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "triples.jsonl"
        row = '{"sub_label": "a", "predicate_id": "P19", "obj_label": "x"}'
        path.write_text("\n" + row + "\n\n", encoding="utf-8")
        tpath = write_jsonl(tmp_path / "templates.jsonl", [BIRTHPLACE])
        assert ingest_dataset(path, tpath).n_triples == 1

    def test_forty_one_relations_accepted(self, tmp_path):
        templates = [{"relation": f"P{i}", "template": f"[X] r{i} [Y] ."}
                     for i in range(41)]
        rows = [triple_row(f"s{i}", f"P{i}", f"o{i}") for i in range(41)]
        ds = make_dataset(tmp_path, rows, templates)
        assert len(ds.relation_ids) == 41
        assert ds.n_triples == 41


class TestValidation:
    def test_template_needs_exactly_one_of_each_slot(self):
        RelationSpec("P1", "[X] likes [Y] .")
        for bad in ("[X] likes cats .", "no slots at all",
                    "[Y] made [Y] with [X] .", "[X] and [X] made [Y] ."):
            with pytest.raises(ValueError):
                RelationSpec("P1", bad)

    def test_triple_fields_non_empty(self):
        with pytest.raises(ValueError):
            Triple(id="t", subject="", relation_id="P1", object="x")

    def test_candidate_set_rejects_unsorted_or_empty(self):
        relations = {"P1": RelationSpec("P1", "[X] likes [Y] .")}
        triples = {"P1": [Triple(id="t", subject="s", relation_id="P1", object="a")]}
        Dataset(relations, triples, {"P1": ("a", "b")})
        with pytest.raises(ValueError):
            Dataset(relations, triples, {"P1": ()})
        with pytest.raises(ValueError):
            Dataset(relations, triples, {"P1": ("b", "a")})
        with pytest.raises(ValueError):
            Dataset(relations, triples, {"P1": ("a", "a", "b")})
        with pytest.raises(ValueError, match="'P1'"):
            Dataset(relations, triples, {})


class TestCandidates:
    def test_distinct_objects_sorted(self, tmp_path):
        rows = [triple_row("a", "P19", "France"),
                triple_row("b", "P19", "France"),
                triple_row("c", "P19", "Spain")]
        ds = make_dataset(tmp_path, rows, [BIRTHPLACE])
        assert ds.candidates["P19"] == ("France", "Spain")

    def test_scoped_per_relation(self, tmp_path):
        rows = [triple_row("a", "P19", "Paris"), triple_row("b", "P1", "actor")]
        templates = [BIRTHPLACE, {"relation": "P1", "template": "[X] is a [Y] ."}]
        cands = make_dataset(tmp_path, rows, templates).candidates
        assert cands["P19"] == ("Paris",)
        assert cands["P1"] == ("actor",)

    def test_file_order_does_not_matter(self, tmp_path):
        rows = [triple_row(f"s{i}", "P19", f"obj{i % 4}", triple_id=f"t{i}")
                for i in range(12)]
        shuffled = rows[:]
        random.Random(3).shuffle(shuffled)
        a = make_dataset(tmp_path, rows, [BIRTHPLACE], name="a").candidates
        b = make_dataset(tmp_path, shuffled, [BIRTHPLACE], name="b").candidates
        assert a["P19"] == b["P19"]

    def test_every_gold_object_is_a_candidate(self, mini_dataset):
        cands = mini_dataset.candidates
        for triple in mini_dataset.triples():
            assert triple.object in cands[triple.relation_id]


class TestSubset:
    def test_empty_list_drops_everything(self, mini_dataset):
        subset, unknown = apply_subset(mini_dataset, [])
        assert subset.n_triples == 0
        assert unknown == 0

    def test_full_list_is_identity(self, mini_dataset):
        ids = [t.id for t in mini_dataset.triples()]
        subset, unknown = apply_subset(mini_dataset, ids)
        assert unknown == 0
        assert subset.n_triples == mini_dataset.n_triples
        assert subset.relation_ids == mini_dataset.relation_ids

    def test_unknown_ids_counted_not_fatal(self, mini_dataset):
        subset, unknown = apply_subset(mini_dataset, ["P19#0", "nope", "zilch"])
        assert unknown == 2
        assert [t.id for t in subset.triples()] == ["P19#0"]

    def test_relations_left_empty_disappear(self, mini_dataset):
        subset, _ = apply_subset(mini_dataset, ["P103#0", "P103#1"])
        assert subset.relation_ids == ["P103"]

    def test_kept_relation_keeps_the_whole_candidate_set(self, mini_dataset):
        subset, _ = apply_subset(mini_dataset, ["P19#0"])
        assert {t.object for t in subset.triples()} == {"paris"}
        assert subset.candidates == {"P19": mini_dataset.candidates["P19"]}
        assert len(subset.candidates["P19"]) == 3

    def test_idempotent(self, mini_dataset):
        ids = ["P103#0", "P19#2", "P106#5"]
        once, _ = apply_subset(mini_dataset, ids)
        twice, unknown = apply_subset(once, ids)
        assert unknown == 0
        assert [t.id for t in twice.triples()] == [t.id for t in once.triples()]

    def test_read_subset_ids_strips_blanks(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_text("a\n\n  b  \nc\n", encoding="utf-8")
        assert read_subset_ids(path) == ["a", "b", "c"]

    def test_read_subset_ids_splits_at_line_breaks_only(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_bytes("P1#0\u2028P1#1\r\nP2#0\x0cP2#1\rP3#0\n".encode("utf-8"))
        assert read_subset_ids(path) == ["P1#0\u2028P1#1", "P2#0\x0cP2#1", "P3#0"]


class TestQueries:
    def test_single_mask(self):
        spec = RelationSpec("P19", "[X] was born in [Y] .")
        assert instantiate_query(spec, "Paris") == "Paris was born in [MASK] ."

    def test_multiple_masks(self):
        spec = RelationSpec("P19", "[X] was born in [Y] .")
        assert (instantiate_query(spec, "Ada", mask_count=2)
                == "Ada was born in [MASK] [MASK] .")

    def test_multiword_subject(self):
        spec = RelationSpec("P36", "The capital of [X] is [Y] .")
        assert (instantiate_query(spec, "Cook County")
                == "The capital of Cook County is [MASK] .")

    def test_slot_text_in_subject_is_kept(self):
        spec = RelationSpec("P19", "[X] was born in [Y] .")
        assert (instantiate_query(spec, "the [Y] band", mask_count=2)
                == "the [Y] band was born in [MASK] [MASK] .")
        assert instantiate_query(spec, "[X]") == "[X] was born in [MASK] ."

    def test_zero_masks_rejected(self):
        spec = RelationSpec("P19", "[X] was born in [Y] .")
        with pytest.raises(ValueError):
            instantiate_query(spec, "Ada", mask_count=0)


class TestLabelTypes:
    """Label fields must be strings that UTF-8 can encode, else path:line at ingest."""

    def ingest(self, tmp_path, triple, template=BIRTHPLACE):
        # json.dumps escapes lone surrogates, so the files themselves are valid UTF-8.
        tpath = tmp_path / "triples.jsonl"
        tpath.write_text(json.dumps(triple) + "\n", encoding="utf-8")
        mpath = tmp_path / "templates.jsonl"
        mpath.write_text(json.dumps(template) + "\n", encoding="utf-8")
        return tpath, mpath

    @pytest.mark.parametrize("field, value", [
        ("predicate_id", ["P19"]),
        ("predicate_id", None),
        ("sub_label", 5),
        ("sub_label", ["Ada"]),
        ("obj_label", "\ud800x"),
        ("id", 7),
        ("id", "t\udc80"),
        ("id", ""),
        ("id", "  "),
    ])
    def test_triple_field_rejected_with_location(self, tmp_path, field, value):
        row = dict(triple_row("Ada", "P19", "London"), **{field: value})
        tpath, mpath = self.ingest(tmp_path, row)
        with pytest.raises(ValueError, match=re.escape(f"{tpath}:1: ")):
            ingest_dataset(tpath, mpath)

    @pytest.mark.parametrize("field, value", [
        ("relation", 19), ("relation", "P\ud83d"), ("template", None),
        ("template", ["[X] was born in [Y] ."]),
    ])
    def test_template_field_rejected_with_location(self, tmp_path, field, value):
        tpath, mpath = self.ingest(tmp_path, triple_row("Ada", "P19", "London"),
                                   dict(BIRTHPLACE, **{field: value}))
        with pytest.raises(ValueError, match=re.escape(f"{mpath}:1: {field} must be")):
            ingest_dataset(tpath, mpath)

    def test_astral_labels_accepted(self, tmp_path):
        tpath, mpath = self.ingest(tmp_path, triple_row("\U0001f600 Ada", "P19", "Lon\u00e9"))
        (triple,) = ingest_dataset(tpath, mpath).triples()
        assert (triple.subject, triple.object) == ("\U0001f600 Ada", "Lon\u00e9")
