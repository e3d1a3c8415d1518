"""Evaluation metrics over ranked predictions.

All relation-level aggregates are unweighted means, so small relations count
as much as large ones. Bucket accuracies are the one deliberate exception:
they pool triples across relations.
"""

import math
from collections import Counter, defaultdict
from dataclasses import MISSING, asdict, dataclass, field, fields

from .jsonio import read_json, write_json
from .kb import Dataset
from .ranking import Prediction
from .wordpiece import SubwordVocab, tokenize


def _by_triple(predictions: list[Prediction], dataset: Dataset) -> dict[str, Prediction]:
    by_id = {}
    for pred in predictions:
        if pred.triple_id in by_id:
            raise ValueError(f"duplicate prediction for triple {pred.triple_id!r}")
        by_id[pred.triple_id] = pred
    missing = [t.id for t in dataset.triples() if t.id not in by_id]
    if missing:
        shown = ", ".join(repr(m) for m in missing[:10])
        raise ValueError(f"{len(missing)} triples have no prediction: {shown}")
    return by_id


def precision_at_k(predictions: list[Prediction], dataset: Dataset,
                   k: int) -> tuple[dict[str, float], float]:
    """Per-relation hit rate of the gold object in the top k, plus its macro mean."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    by_id = _by_triple(predictions, dataset)
    per_relation = {}
    for rel in dataset.relation_ids:
        triples = dataset.triples_by_relation[rel]
        hits = sum(1 for t in triples if t.object in by_id[t.id].top_k(k))
        per_relation[rel] = hits / len(triples)
    macro = sum(per_relation.values()) / len(per_relation)
    return per_relation, macro


def most_frequent_object(dataset: Dataset, relation_id: str) -> str:
    """The relation's most common gold object, ties going to the smaller label."""
    freq = Counter(t.object for t in dataset.triples_by_relation[relation_id])
    return min(freq, key=lambda obj: (-freq[obj], obj))


def p1_excluding_most_frequent(predictions: list[Prediction],
                               dataset: Dataset) -> tuple[float, int]:
    """Macro p@1 after dropping each relation's most-frequent-object triples.

    Relations left with nothing are skipped; the count of such relations is
    returned alongside the score.
    """
    by_id = _by_triple(predictions, dataset)
    per_relation = []
    dropped = 0
    for rel in dataset.relation_ids:
        mf = most_frequent_object(dataset, rel)
        kept = [t for t in dataset.triples_by_relation[rel] if t.object != mf]
        if not kept:
            dropped += 1
            continue
        hits = sum(1 for t in kept if by_id[t.id].top1 == t.object)
        per_relation.append(hits / len(kept))
    if not per_relation:
        raise ValueError("every relation was emptied by the most-frequent filter")
    return sum(per_relation) / len(per_relation), dropped


def diversity(predictions: list[Prediction], dataset: Dataset) -> tuple[float, float]:
    """(base-2 entropy of the pooled top-1 distribution, mean distinct top-1 per relation)."""
    by_id = _by_triple(predictions, dataset)
    pooled = Counter()
    distinct_counts = []
    for rel in dataset.relation_ids:
        tops = [by_id[t.id].top1 for t in dataset.triples_by_relation[rel]]
        pooled.update(tops)
        distinct_counts.append(len(set(tops)))
    total = sum(pooled.values())
    entropy = 0.0
    for label in sorted(pooled):
        p = pooled[label] / total
        entropy -= p * math.log2(p)
    return entropy, sum(distinct_counts) / len(distinct_counts)


def bucket_by_subject_length(predictions: list[Prediction], dataset: Dataset,
                             vocab: SubwordVocab) -> dict[int, dict]:
    """Micro p@1 grouped by how many pieces the subject tokenizes into."""
    by_id = _by_triple(predictions, dataset)
    hits = defaultdict(int)
    totals = defaultdict(int)
    for triple in dataset.triples():
        length = len(tokenize(vocab, triple.subject))
        totals[length] += 1
        if by_id[triple.id].top1 == triple.object:
            hits[length] += 1
    return {
        length: {"n": totals[length], "p1": hits[length] / totals[length]}
        for length in sorted(totals)
    }


@dataclass
class MetricsReport:
    """Full evaluation results; fields for disabled metrics hold None."""

    per_relation: dict[str, dict]
    macro_p1: float
    macro_p5: float | None
    p1_mf: float | None
    relations_dropped_by_mf: int | None
    entropy_bits: float | None
    avg_distinct_predictions: float | None
    buckets: dict[int, dict] = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = asdict(self)
        out["buckets"] = {str(k): v for k, v in self.buckets.items()}
        return out

    def save(self, path) -> None:
        write_json(path, self.to_dict())

    @classmethod
    def load(cls, path) -> "MetricsReport":
        """Read a saved report; every field without a default is required.

        per_relation must be an object and every other required field a
        number, or null where the field allows None. Errors name path and key.
        """
        raw = read_json(path)
        required = {}
        for f in fields(cls):
            if f.default_factory is not MISSING:
                continue
            if f.name not in raw:
                raise ValueError(f"{path}: missing key {f.name!r}")
            value = required[f.name] = raw[f.name]
            if f.name == "per_relation":
                ok, kind = isinstance(value, dict), "an object"
            else:
                nullable = isinstance(None, f.type)  # true for a `T | None` field
                ok = (value is None and nullable
                      or isinstance(value, (int, float)) and not isinstance(value, bool))
                kind = "a number or null" if nullable else "a number"
            if not ok:
                raise ValueError(f"{path}: key {f.name!r} must be {kind}, got {value!r}")
        return cls(**required,
                   buckets={int(k): v for k, v in raw.get("buckets", {}).items()},
                   metadata=raw.get("metadata", {}))


def compute_report(predictions: list[Prediction], dataset: Dataset,
                   vocab: SubwordVocab = None, with_p5: bool = True,
                   with_mf: bool = True, with_diversity: bool = True) -> MetricsReport:
    """Full evaluation over one prediction set; buckets need a vocabulary."""
    p1_by_rel, macro_p1 = precision_at_k(predictions, dataset, 1)
    macro_p5 = None
    p5_by_rel = {}
    if with_p5:
        p5_by_rel, macro_p5 = precision_at_k(predictions, dataset, 5)
    p1_mf = dropped = None
    if with_mf:
        # degenerate datasets (one object per relation everywhere) leave the
        # filtered metric undefined; report None rather than refusing outright
        survivors = [rel for rel in dataset.relation_ids
                     if len({t.object for t in dataset.triples_by_relation[rel]}) > 1]
        if survivors:
            p1_mf, dropped = p1_excluding_most_frequent(predictions, dataset)
        else:
            dropped = len(dataset.relation_ids)
    entropy = avg_distinct = None
    if with_diversity:
        entropy, avg_distinct = diversity(predictions, dataset)
    per_relation = {}
    for rel in dataset.relation_ids:
        row = {
            "n_triples": len(dataset.triples_by_relation[rel]),
            "p_at_1": p1_by_rel[rel],
        }
        if with_p5:
            row["p_at_5"] = p5_by_rel[rel]
        per_relation[rel] = row
    buckets = {}
    if vocab is not None:
        buckets = bucket_by_subject_length(predictions, dataset, vocab)
    return MetricsReport(
        per_relation=per_relation,
        macro_p1=macro_p1,
        macro_p5=macro_p5,
        p1_mf=p1_mf,
        relations_dropped_by_mf=dropped,
        entropy_bits=entropy,
        avg_distinct_predictions=avg_distinct,
        buckets=buckets,
        metadata={
            "n_relations": len(dataset.relation_ids),
            "n_triples": dataset.n_triples,
            "entropy_scope": "pooled-top1-base2",
            "bucket_aggregation": "micro",
            "language": dataset.language,
        },
    )


def per_relation_tsv(report: MetricsReport) -> str:
    lines = ["relation\tn_triples\tp_at_1\tp_at_5"]
    for rel in sorted(report.per_relation):
        row = report.per_relation[rel]
        p5 = f"{row['p_at_5']:.4f}" if "p_at_5" in row else "-"
        lines.append(f"{rel}\t{row['n_triples']}\t{row['p_at_1']:.4f}\t{p5}")
    return "\n".join(lines) + "\n"


def buckets_tsv(report: MetricsReport) -> str:
    lines = ["subject_length\tn\tp1"]
    for length in sorted(report.buckets):
        row = report.buckets[length]
        lines.append(f"{length}\t{row['n']}\t{row['p1']:.4f}")
    return "\n".join(lines) + "\n"
