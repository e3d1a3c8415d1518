import json
from pathlib import Path

import pytest

from clozerank import embeddings, kb, wordpiece

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture()
def mini_dataset():
    return kb.ingest_dataset(FIXTURES / "mini_triples.jsonl",
                             FIXTURES / "mini_templates.jsonl")


@pytest.fixture()
def mini_vocab():
    return wordpiece.SubwordVocab.load(FIXTURES / "mini_vocab.txt")


@pytest.fixture()
def mini_table():
    return embeddings.load_table(FIXTURES / "mini_table.vec")


def ranked(pred) -> list[tuple[str, float]]:
    """A prediction's ranking as (label, score) pairs."""
    return list(zip(pred.labels, pred.scores))


def write_jsonl(path, rows) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(json.dumps(row, ensure_ascii=False) + "\n")
    return path


def make_dataset(tmp_path, triples, templates, name="ds"):
    """Write triple/template rows to tmp files and ingest them."""
    tpath = write_jsonl(tmp_path / f"{name}_triples.jsonl", triples)
    mpath = write_jsonl(tmp_path / f"{name}_templates.jsonl", templates)
    return kb.ingest_dataset(tpath, mpath)


def with_candidates(dataset, candidates) -> kb.Dataset:
    """dataset with the given label tuples, keyed by relation, as those relations'
    candidate sets."""
    return kb.Dataset(dataset.relations, dataset.triples_by_relation,
                      {**dataset.candidates, **candidates})
