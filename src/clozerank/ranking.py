"""Candidate ranking: static nearest-neighbor, frequency oracle, MLM adapter."""

import hashlib
import math
from collections import Counter
from collections.abc import Iterable, Iterator

from .embeddings import EmbeddingTable, compose
from .jsonio import read_json, read_jsonl, write_jsonl
from .kb import CandidateSet, Dataset, instantiate_query
from .wordpiece import UNK_TOKEN, SubwordVocab, tokenize


class Prediction:
    """Ranked candidates for one triple, scores descending.

    Ties sort by the lexicographically smaller candidate label.
    """

    __slots__ = ("triple_id", "relation_id", "ranked", "flags")

    def __init__(self, triple_id: str, relation_id: str, ranked: list[tuple[str, float]],
                 flags: dict | None = None):
        self.triple_id, self.relation_id, self.ranked = triple_id, relation_id, ranked
        self.flags = {} if flags is None else flags


def _composed(table: EmbeddingTable, vocab: SubwordVocab, text: str):
    """The mean piece vector of text, its norm, and whether any piece is OOV."""
    import numpy as np
    tokens = vocab.ids_to_tokens(tokenize(vocab, text))
    if not tokens:
        return np.zeros(table.dim, dtype=np.float64), 0.0, True
    vector, missing = compose(table, tokens)
    return vector, float(np.linalg.norm(vector)), bool(missing) or UNK_TOKEN in tokens


def rank_static(table: EmbeddingTable, vocab: SubwordVocab, dataset: Dataset,
                candidates: dict[str, CandidateSet],
                exclude_subject_match: bool = False) -> Iterator[Prediction]:
    """Yield, relation by relation, each triple's candidates ranked by cosine to the subject.

    The template plays no part: the only signal is the subject string. A
    pair with a zero-norm composition scores the floor -1.0 instead of NaN.
    With exclude_subject_match a candidate identical to the subject is
    dropped from that triple's ranking; a triple left with no candidate
    raises ValueError once reached. Each distinct string is composed once.
    """
    strings = {t.subject for t in dataset.triples()}
    for rel in dataset.relation_ids:
        strings.update(candidates[rel])
    composed = {text: _composed(table, vocab, text) for text in strings}
    for rel in dataset.relation_ids:
        triples = dataset.triples_by_relation[rel]
        rankings = _rank_relation(candidates[rel].candidates, [t.subject for t in triples],
                                  composed, exclude_subject_match)
        for triple, (ranked, zero_norm) in zip(triples, rankings):
            if not ranked:
                raise ValueError(f"triple {triple.id!r} of relation {rel!r} has no candidate "
                                 f"left once its subject is excluded")
            yield Prediction(triple.id, rel, ranked,
                             {"query_oov": composed[triple.subject][2], "zero_norm": zero_norm})


def _rank_relation(labels, subjects, composed, exclude_subject_match):
    """Yield (ranking, zero_norm) for each subject over one relation's sorted labels.

    The cosines are one product of the distinct unit subject rows with the
    distinct unit candidate rows. Candidates whose unit rows are bitwise
    equal (copied or doubled vectors) share one column, so they tie exactly
    and the stable sort breaks the tie by label. A zero-norm subject gets the
    label-ordered floor ranking, and every -1.0 in a ranking is one float.
    """
    import numpy as np
    floor = -1.0
    vectors = np.array([composed[c][0] for c in labels])
    norms = np.array([composed[c][1] for c in labels])
    live = np.flatnonzero(norms)
    column = {}  # adding +0.0 gives -0.0 and 0.0 one key
    columns = [column.setdefault(row.tobytes(), len(column))
               for row in vectors[live] / norms[live, None] + 0.0]
    dim = vectors.shape[1]
    distinct = np.frombuffer(b"".join(column), dtype=np.float64).reshape(len(column), dim)
    # The candidate a live subject excludes has the subject's own nonzero
    # composition, so every zero-norm candidate stays in that ranking.
    any_zero = len(live) < len(labels)
    position = {label: i for i, label in enumerate(labels)} if exclude_subject_match else {}

    queries = list(dict.fromkeys(s for s in subjects if composed[s][1] != 0.0))
    units = np.array([composed[s][0] for s in queries]).reshape(len(queries), dim)
    units /= np.array([composed[s][1] for s in queries])[:, None]
    scores = np.full((len(queries), len(labels)), floor)
    scores[:, live] = (units @ distinct.T)[:, columns]
    keys = -scores
    for row, subject in enumerate(queries):
        if subject in position:
            keys[row, position[subject]] = np.inf
    order = np.argsort(keys, axis=1, kind="stable")
    ranked_scores = np.take_along_axis(scores, order, axis=1)
    values = ranked_scores.astype(object)
    values[ranked_scores == floor] = floor
    names = np.array(labels, dtype=object)[order]

    floor_ranking = [(label, floor) for label in labels]
    rows = {subject: row for row, subject in enumerate(queries)}
    for subject in subjects:
        row = rows.get(subject)
        if row is None:  # a zero-norm subject
            ranked = list(floor_ranking)
            if subject in position:
                del ranked[position[subject]]
            yield ranked, True
        else:
            ranked = list(zip(names[row].tolist(), values[row].tolist()))
            if subject in position:
                ranked.pop()  # the excluded candidate, sorted last
            yield ranked, any_zero


def rank_oracle(dataset: Dataset, candidates: dict[str, CandidateSet]) -> Iterator[Prediction]:
    """Yield, relation by relation, each triple's candidates ranked by gold-object frequency."""
    for rel in dataset.relation_ids:
        triples = dataset.triples_by_relation[rel]
        freq = Counter(t.object for t in triples)
        scores = {c: float(freq.get(c, 0)) for c in candidates[rel]}
        # A stable sort over the sorted labels breaks each tie by label.
        ranked = [(c, scores[c]) for c in sorted(scores, key=scores.__getitem__, reverse=True)]
        for triple in triples:
            yield Prediction(triple.id, rel, list(ranked), {"query_oov": False})


def export_mlm_manifest(dataset: Dataset, candidates: dict[str, CandidateSet],
                        scorer_vocab: SubwordVocab, out_path) -> int:
    """Write one JSONL row per (triple, candidate) pair for an external scorer.

    The query carries as many [MASK] tokens as the candidate has pieces under
    the scorer's vocabulary; rows whose candidate is [UNK]-only are flagged so
    the scorer can skip or special-case them. Returns the row count.
    """
    def rows():
        for rel in dataset.relation_ids:
            spec = dataset.relations[rel]
            pieces = [(cand, tokenize(scorer_vocab, cand)) for cand in candidates[rel]]
            for triple in dataset.triples_by_relation[rel]:
                for cand, token_ids in pieces:
                    yield {
                        "triple_id": triple.id,
                        "relation_id": rel,
                        "candidate": cand,
                        "query_text": instantiate_query(spec, triple.subject,
                                                        len(token_ids)),
                        "mask_token_ids": token_ids,
                        "candidate_oov": all(i == scorer_vocab.unk_id for i in token_ids),
                    }
    return write_jsonl(out_path, rows())


def _logprobs(value) -> tuple[float, ...]:
    """token_logprobs as floats: a non-empty JSON list of numbers, each finite and <= 0."""
    if type(value) is not list or not value or not set(map(type, value)) <= {int, float}:
        raise ValueError(f"token_logprobs must be a non-empty list of numbers, got {value!r}")
    lps = tuple(map(float, value))
    if not (all(map(math.isfinite, lps)) and max(lps) <= 0):
        lp = next(lp for lp in lps if not math.isfinite(lp) or lp > 0)
        raise ValueError(f"log-prob {lp!r} must be finite and <= 0")
    return lps


def _scores_by_pair(path) -> dict[tuple[str, str], tuple[float, ...]]:
    """Read a score file into each pair's log-probs; a pair may have one row only."""
    by_pair = {}
    for lineno, _, (triple_id, candidate, logprobs) in read_jsonl(
            path, "triple_id", "candidate", "token_logprobs",
            text=("triple_id", "candidate")):
        key = (triple_id, candidate)
        if key in by_pair:  # rescan for the first row only on error
            first = next(n for n, _, pair in read_jsonl(path, "triple_id", "candidate")
                         if pair == key)
            raise ValueError(f"{path}:{lineno}: duplicate score row for {key!r} "
                             f"(first at line {first})")
        try:
            by_pair[key] = _logprobs(logprobs)
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: malformed score row: {exc}") from None
    return by_pair


def _read_manifest(manifest_path):
    """Yield (lineno, triple_id, candidate, mask count) for each manifest row."""
    for lineno, _, (triple_id, cand, mask_ids) in read_jsonl(
            manifest_path, "triple_id", "candidate", "mask_token_ids",
            text=("triple_id", "candidate")):
        if not (type(mask_ids) is list and set(map(type, mask_ids)) == {int}):
            raise ValueError(f"{manifest_path}:{lineno}: mask_token_ids must be a list "
                             f"of one or more integers, got {mask_ids!r}")
        yield lineno, triple_id, cand, len(mask_ids)


def _check_manifest(manifest_path, by_pair: dict) -> None:
    """Every scored pair needs a manifest row with one mask id per log-prob."""
    unlisted = set(by_pair)
    for lineno, triple_id, cand, masks in _read_manifest(manifest_path):
        key = (triple_id, cand)
        unlisted.discard(key)
        lps = by_pair.get(key)
        if lps is not None and len(lps) != masks:
            raise ValueError(
                f"{manifest_path}:{lineno}: score length {len(lps)} "
                f"for {key!r} does not match manifest mask count {masks}"
            )
    if unlisted:
        shown = ", ".join(repr(p) for p in sorted(unlisted)[:10])
        raise ValueError(
            f"{manifest_path}: {len(unlisted)} scored pairs have no manifest row: {shown}"
        )


def rank_mlm(score_path, dataset: Dataset, candidates: dict[str, CandidateSet],
             manifest_path=None) -> list[Prediction]:
    """Turn an external scorer's output into per-triple rankings.

    A candidate's score is the arithmetic mean of its per-mask log
    probabilities. The file must cover every (triple, candidate) pair exactly
    once; row order is irrelevant. A manifest, if given, must hold a row for
    every scored pair with as many mask ids as the pair has log-probs.
    """
    by_pair = _scores_by_pair(score_path)

    if manifest_path is not None:
        _check_manifest(manifest_path, by_pair)

    # One pass pairs every expected pair with its row; rows left over are extra.
    predictions, missing = [], []
    for rel in dataset.relation_ids:
        for triple in dataset.triples_by_relation[rel]:
            scores = {}
            for cand in candidates[rel]:
                lps = by_pair.pop((triple.id, cand), None)
                if lps is None:
                    missing.append((triple.id, cand))
                else:
                    scores[cand] = sum(lps) / len(lps)
            # As in rank_oracle: a stable sort over the sorted labels breaks each tie by label.
            ranked = [(c, scores[c]) for c in sorted(scores, key=scores.__getitem__, reverse=True)]
            predictions.append(Prediction(triple.id, rel, ranked, {"query_oov": False}))
    if missing:
        shown = ", ".join(repr(m) for m in sorted(missing)[:10])
        raise ValueError(f"{len(missing)} (triple, candidate) pairs unscored: {shown}")
    if by_pair:
        shown = ", ".join(repr(e) for e in sorted(by_pair)[:10])
        raise ValueError(f"{len(by_pair)} score rows match no (triple, candidate) pair: {shown}")
    return predictions


def read_lookup(path) -> dict[tuple[str, str], tuple[float, ...]]:
    """Read a stub-score lookup file, one JSON object of triple_id -> {candidate:
    [log-probs]}, into each (triple_id, candidate) pair's log-probs. Each log-prob
    is finite and <= 0 as in a score row; every error names the path."""
    table = {}
    for key, value in read_json(path).items():
        if not isinstance(value, dict):
            raise ValueError(f"{path}: lookup entry {key!r} must map each candidate to a "
                             f"list of log-probs, got {value!r}")
        for cand, lps in value.items():
            try:
                table[(key, cand)] = _logprobs(lps)
            except (OverflowError, ValueError) as exc:
                raise ValueError(f"{path}: lookup entry {key!r}, candidate {cand!r}: "
                                 f"{exc}") from None
    return table


def write_stub_scores(manifest_path, out_path, lookup=None) -> int:
    """Generate a valid score file from a manifest without any external model.

    lookup, as read_lookup returns it, maps (triple_id, candidate) to that
    pair's log-probs; pairs not covered get deterministic filler values, and
    a lookup pair that matches no manifest row is an error. A manifest that
    fails part way leaves out_path as it was. Returns the number of rows
    written.
    """
    lookup = lookup or {}
    unused = set(lookup)

    def rows():
        for lineno, triple_id, cand, masks in _read_manifest(manifest_path):
            key = (triple_id, cand)
            lps = lookup.get(key)
            unused.discard(key)
            if lps is None:  # filler from sha256 of "triple_id\tcandidate\tposition"
                prefix = f"{triple_id}\t{cand}\t".encode("utf-8")
                digests = (hashlib.sha256(prefix + b"%d" % i).digest() for i in range(masks))
                lps = [-0.01 - 7.99 * (int.from_bytes(d[:8], "big") / 2 ** 64) for d in digests]
            elif len(lps) != masks:
                raise ValueError(f"{manifest_path}:{lineno}: lookup for {key!r} has "
                                 f"{len(lps)} log-probs, manifest wants {masks}")
            yield {"triple_id": triple_id, "candidate": cand, "token_logprobs": lps}
        if unused:
            shown = ", ".join(repr(p) for p in sorted(unused)[:10])
            raise ValueError(f"{len(unused)} lookup pairs match no manifest row: {shown}")
    return write_jsonl(out_path, rows())


def save_predictions(predictions: Iterable[Prediction], path) -> int:
    """Write one row per prediction as it arrives and return the count; a failure
    leaves path as it was. A ranking that holds the previous row's (label, score)
    tuples, as rank oracle's and the zero-norm floor rankings do, is encoded once."""
    return write_jsonl(path, ({
        "triple_id": pred.triple_id,
        "relation_id": pred.relation_id,
        "ranked": pred.ranked,  # json writes each (label, score) tuple as an array
        "flags": pred.flags,
    } for pred in predictions), shared="ranked")


def load_predictions(path) -> Iterator[Prediction]:
    """Yield each row of a predictions file once it passes its checks: one row per
    triple, each label once per ranking, flags (if given) an object of booleans."""
    seen = set()
    for lineno, row, (triple_id, relation_id, ranked) in read_jsonl(
            path, "triple_id", "relation_id", "ranked", text=("triple_id", "relation_id")):
        if triple_id in seen:  # rescan for the first row only on error
            first = next(n for n, _, (tid, _) in read_jsonl(path, "triple_id", "relation_id")
                         if tid == triple_id)
            raise ValueError(f"{path}:{lineno}: duplicate prediction for triple "
                             f"{triple_id!r} (first at line {first})")
        seen.add(triple_id)
        # Only a two-element list unpacks into a string and a number: a JSON
        # string or object yields strings. save_predictions writes float
        # scores, which the first pass keeps; a row holding an integer score
        # or a malformed entry takes the second, which converts integers.
        try:
            pairs = [(label, score) for label, score in ranked
                     if type(label) is str and type(score) is float]
            if len(pairs) != len(ranked):
                pairs = [(label, float(score)) for label, score in ranked
                         if type(label) is str and type(score) in (int, float)]
        except OverflowError as exc:  # an integer too large for a float
            raise ValueError(f"{path}:{lineno}: malformed prediction: {exc}") from None
        except (TypeError, ValueError):  # not a list, or an entry that is not two values
            pairs = []
        if not pairs or len(pairs) != len(ranked):
            raise ValueError(f"{path}:{lineno}: ranked must be a non-empty list of "
                             "[label, score] pairs of a string and a number")
        if len({label for label, _ in pairs}) != len(pairs):  # loop only to name the label
            counts = Counter(label for label, _ in pairs)
            label = next(label for label, _ in pairs if counts[label] > 1)
            raise ValueError(f"{path}:{lineno}: ranked lists label {label!r} twice")
        flags = row.get("flags", {})
        if type(flags) is not dict or not set(map(type, flags.values())) <= {bool}:
            raise ValueError(f"{path}:{lineno}: flags must be an object of booleans, "
                             f"got {flags!r}")
        yield Prediction(triple_id, relation_id, pairs, flags)
