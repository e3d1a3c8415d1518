"""Evaluation metrics over ranked predictions.

All relation-level aggregates are unweighted means, so small relations count
as much as large ones. Bucket accuracies are the one deliberate exception:
they pool triples across relations. Every metric reads only each triple's
top-1 label and the position of its gold object in the ranking.
"""

import math
from collections import Counter
from typing import TYPE_CHECKING

from .jsonio import is_number, read_json, write_json
from .kb import Dataset
from .wordpiece import SubwordVocab, tokenize

if TYPE_CHECKING:  # report reads metrics files and never loads ranking
    from collections.abc import Iterable

    from .ranking import Prediction


def _outcomes(predictions: "Iterable[Prediction]", dataset: Dataset) -> dict:
    """Triple id -> (top-1, gold's 0-based rank or inf, a miss at any k), one prediction
    at a time; a triple outside the dataset maps to None, so a repeat is still caught."""
    triples = {t.id: t for t in dataset.triples()}
    outcomes = {}
    for pred in predictions:
        if pred.triple_id in outcomes:
            raise ValueError(f"duplicate prediction for triple {pred.triple_id!r}")
        t = triples.get(pred.triple_id)
        if t is None:
            outcomes[pred.triple_id] = None
            continue
        if pred.relation_id != t.relation_id:
            raise ValueError(f"prediction for triple {t.id!r} names relation "
                             f"{pred.relation_id!r}, but the KB files it under {t.relation_id!r}")
        labels = pred.labels
        outcomes[t.id] = labels[0], labels.index(t.object) if t.object in labels else math.inf
    missing = [tid for tid in triples if tid not in outcomes]
    if missing:
        shown = ", ".join(repr(m) for m in missing[:10])
        raise ValueError(f"{len(missing)} triples have no prediction: {shown}")
    return outcomes


def most_frequent_object(dataset: Dataset, relation_id: str) -> str:
    """The relation's most common gold object, ties going to the smaller label."""
    freq = Counter(t.object for t in dataset.triples_by_relation[relation_id])
    return min(freq, key=lambda obj: (-freq[obj], obj))


class MetricsReport:
    """Full evaluation results; a metric that is undefined, or off in an older file, holds None."""

    # The fields a saved report must hold, each with whether it may be null.
    _REQUIRED = (("per_relation", False), ("macro_p1", False), ("macro_p5", True),
                ("p1_mf", True), ("relations_dropped_by_mf", True), ("entropy_bits", True),
                ("avg_distinct_predictions", True))
    __slots__ = (*(name for name, _ in _REQUIRED), "buckets", "metadata")

    def __init__(self, per_relation: dict[str, dict], macro_p1: float, macro_p5: float | None,
                 p1_mf: float | None, relations_dropped_by_mf: int | None,
                 entropy_bits: float | None, avg_distinct_predictions: float | None,
                 buckets: dict[int, dict] | None = None, metadata: dict | None = None):
        self.per_relation, self.macro_p1, self.macro_p5 = per_relation, macro_p1, macro_p5
        self.p1_mf, self.relations_dropped_by_mf = p1_mf, relations_dropped_by_mf
        self.entropy_bits, self.avg_distinct_predictions = entropy_bits, avg_distinct_predictions
        self.buckets = {} if buckets is None else buckets
        self.metadata = {} if metadata is None else metadata

    def to_dict(self) -> dict:
        out = {name: getattr(self, name) for name in self.__slots__}
        out["buckets"] = {str(k): v for k, v in self.buckets.items()}
        return out

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "MetricsReport":
        """Read a saved report; every field without a default is required.

        per_relation must be an object and every other required field a
        number, or null where the field allows None. buckets, if present,
        maps decimal integers to an integer n and a number p1; metadata is
        an object whose vocab_size, if present, is an integer. Errors name
        path and key.
        """
        raw = read_json(path)
        required = {}
        for name, nullable in cls._REQUIRED:
            if name not in raw:
                raise ValueError(f"{path}: missing key {name!r}")
            value = required[name] = raw[name]
            if name == "per_relation":
                ok, kind = isinstance(value, dict), "an object"
            else:
                ok = value is None and nullable or is_number(value)
                kind = "a number or null" if nullable else "a number"
            if not ok:
                raise ValueError(f"{path}: key {name!r} must be {kind}, got {value!r}")
        buckets = raw.get("buckets", {})
        if not isinstance(buckets, dict):
            raise ValueError(f"{path}: key 'buckets' must be an object, got {buckets!r}")
        for length, row in buckets.items():
            if not (length.isdecimal() and isinstance(row, dict) and type(row.get("n")) is int
                    and is_number(row.get("p1"))):
                raise ValueError(f"{path}: key 'buckets' must map decimal integers to "
                                 f"{{n: integer, p1: number}}, got {length!r}: {row!r}")
        metadata = raw.get("metadata", {})
        if not isinstance(metadata, dict):
            raise ValueError(f"{path}: key 'metadata' must be an object, got {metadata!r}")
        if "vocab_size" in metadata and type(metadata["vocab_size"]) is not int:
            raise ValueError(f"{path}: key 'metadata.vocab_size' must be an integer, "
                             f"got {metadata['vocab_size']!r}")
        return cls(**required, buckets={int(k): v for k, v in buckets.items()},
                   metadata=metadata)


def compute_report(predictions: "Iterable[Prediction]", dataset: Dataset,
                   vocab: SubwordVocab = None, language: str = "en") -> MetricsReport:
    """Full evaluation over one pass of predictions, then one pass per relation.

    metadata records language; a vocabulary adds vocab_size and the subject-length buckets.
    """
    outcomes = _outcomes(predictions, dataset)
    per_relation, p1_mf, distinct, pooled = {}, [], [], Counter()
    bucket_n, bucket_hits = Counter(), Counter()
    for rel in dataset.relation_ids:
        triples = dataset.triples_by_relation[rel]
        tops = [outcomes[t.id][0] for t in triples]
        ranks = [outcomes[t.id][1] for t in triples]
        per_relation[rel] = {"n_triples": len(triples), "p_at_1": ranks.count(0) / len(ranks),
                             "p_at_5": sum(rank < 5 for rank in ranks) / len(ranks)}
        mf = most_frequent_object(dataset, rel)
        kept = [rank for t, rank in zip(triples, ranks) if t.object != mf]
        if kept:
            p1_mf.append(kept.count(0) / len(kept))
        pooled.update(tops)
        distinct.append(len(set(tops)))
        if vocab is not None:
            lengths = [len(tokenize(vocab, t.subject)) for t in triples]
            bucket_n.update(lengths)
            bucket_hits.update(n for n, rank in zip(lengths, ranks) if rank == 0)
    total = sum(pooled.values())
    entropy = 0.0
    for label in sorted(pooled):
        p = pooled[label] / total
        entropy -= p * math.log2(p)
    metadata = {"n_relations": len(per_relation), "n_triples": dataset.n_triples,
                "entropy_scope": "pooled-top1-base2", "bucket_aggregation": "micro",
                "language": language}
    if vocab is not None:
        metadata["vocab_size"] = vocab.size
    return MetricsReport(
        per_relation=per_relation,
        macro_p1=sum(row["p_at_1"] for row in per_relation.values()) / len(per_relation),
        macro_p5=sum(row["p_at_5"] for row in per_relation.values()) / len(per_relation),
        p1_mf=sum(p1_mf) / len(p1_mf) if p1_mf else None,
        relations_dropped_by_mf=len(per_relation) - len(p1_mf),
        entropy_bits=entropy,
        avg_distinct_predictions=sum(distinct) / len(distinct),
        buckets={length: {"n": n, "p1": bucket_hits[length] / n}
                 for length, n in sorted(bucket_n.items())},
        metadata=metadata,
    )


def per_relation_tsv(report: MetricsReport) -> str:
    lines = ["relation\tn_triples\tp_at_1\tp_at_5"]
    for rel in sorted(report.per_relation):
        row = report.per_relation[rel]
        lines.append(f"{rel}\t{row['n_triples']}\t{row['p_at_1']:.4f}\t{row['p_at_5']:.4f}")
    return "\n".join(lines) + "\n"


def buckets_tsv(report: MetricsReport) -> str:
    lines = ["subject_length\tn\tp1"]
    for length in sorted(report.buckets):
        row = report.buckets[length]
        lines.append(f"{length}\t{row['n']}\t{row['p1']:.4f}")
    return "\n".join(lines) + "\n"
