"""Candidate ranking: static nearest-neighbor, frequency oracle, MLM adapter."""

import math
import operator
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from hashlib import sha256
from itertools import chain
from struct import Struct
from typing import TYPE_CHECKING

from .jsonio import encode_row, read_json, read_jsonl, write_jsonl
from .wordpiece import SubwordVocab, tokenize

if TYPE_CHECKING:  # the functions that run these modules import them
    from .embeddings import EmbeddingTable
    from .kb import Dataset


class Prediction:
    """Ranked candidates for one triple: labels and their finite scores, scores descending.

    Ties sort by the lexicographically smaller candidate label. Predictions
    that share a ranking share its two sequences, as tuples.
    """

    __slots__ = ("triple_id", "relation_id", "labels", "scores", "flags")

    def __init__(self, triple_id: str, relation_id: str, labels: Sequence[str],
                 scores: Sequence[float], flags: dict | None = None):
        self.triple_id, self.relation_id = triple_id, relation_id
        self.labels, self.scores = labels, scores
        self.flags = {} if flags is None else flags


def rank_static(table: "EmbeddingTable", vocab: SubwordVocab, dataset: "Dataset",
                exclude_subject_match: bool = False) -> Iterator[Prediction]:
    """Yield, relation by relation, each triple's candidates ranked by cosine to the subject.

    The template plays no part: the only signal is the subject string. A
    pair with a zero-norm composition scores the floor -1.0 instead of NaN.
    With exclude_subject_match a candidate identical to the subject is
    dropped from that triple's ranking; a triple left with no candidate
    raises ValueError once reached. One compose call makes each distinct
    string's mean piece vector a row of one matrix; a string is OOV if a
    piece is [UNK] or has no vector, or if it has no piece at all (only a
    hand-built Dataset holds such a string), which gives it a zero row.
    """
    import numpy as np

    from .embeddings import compose
    row_of: dict[str, int] = {}  # each distinct string's row, composed strings first
    oov, blank = [], {}

    def token_lists():  # one list per distinct string with a piece, made as compose reads it
        for text in chain((t.subject for t in dataset.triples()),
                          *map(dataset.candidates.__getitem__, dataset.relation_ids)):
            if text not in row_of and text not in blank:
                ids = tokenize(vocab, text)
                if ids:
                    row_of[text] = len(oov)
                    oov.append(vocab.unk_id in ids)
                    yield vocab.ids_to_tokens(ids)
                else:
                    blank[text] = None

    vectors, missing = compose(table, token_lists())
    oov = [unk or bool(gone) for unk, gone in zip(oov, missing)]
    del missing
    if blank:
        vectors = np.vstack((vectors, np.zeros((len(blank), table.dim))))
        for text in blank:
            row_of[text] = len(oov)
            oov.append(True)
    # The norm np.linalg.norm gives each row, bitwise: the square root of its dot product.
    norms = np.sqrt(np.fromiter((v.dot(v) for v in vectors), np.float64, len(vectors)))
    for rel in dataset.relation_ids:
        triples = dataset.triples_by_relation[rel]
        rankings = _rank_relation(dataset.candidates[rel], [t.subject for t in triples],
                                  vectors, norms, row_of, exclude_subject_match)
        for triple, (labels, scores, zero_norm) in zip(triples, rankings):
            if not labels:
                raise ValueError(f"triple {triple.id!r} of relation {rel!r} has no candidate "
                                 f"left once its subject is excluded")
            yield Prediction(triple.id, rel, labels, scores,
                             {"query_oov": oov[row_of[triple.subject]], "zero_norm": zero_norm})


def _rank_relation(labels, subjects, vectors, norms, row_of, exclude_subject_match):
    """Yield (labels, scores, zero_norm) for each subject over one relation's sorted labels.

    A string's composition is row row_of[text] of vectors, its norm that of norms.
    The cosines are one product of the distinct unit subject rows with the
    distinct unit candidate rows. Candidates whose unit rows are bitwise
    equal (copied or doubled vectors) share one column, so they tie exactly
    and the stable sort breaks the tie by label. A live subject gets two new
    lists; a zero-norm subject gets the relation's label-ordered floor
    ranking, two tuples that every such subject without an exclusion shares.
    """
    import numpy as np
    floor = -1.0
    candidate_rows = np.array([row_of[c] for c in labels])
    candidate_norms = norms[candidate_rows]
    live = np.flatnonzero(candidate_norms)
    column = {}  # adding +0.0 gives -0.0 and 0.0 one key
    columns = [column.setdefault(unit.tobytes(), len(column))
               for unit in vectors[candidate_rows[live]] / candidate_norms[live, None] + 0.0]
    dim = vectors.shape[1]
    distinct = np.frombuffer(b"".join(column), dtype=np.float64).reshape(len(column), dim)
    # The candidate a live subject excludes has the subject's own nonzero
    # composition, so every zero-norm candidate stays in that ranking.
    any_zero = len(live) < len(labels)
    position = {label: i for i, label in enumerate(labels)} if exclude_subject_match else {}

    queries = [s for s in dict.fromkeys(subjects) if norms[row_of[s]] != 0.0]
    query_rows = np.array([row_of[s] for s in queries], dtype=np.intp)
    units = vectors[query_rows] / norms[query_rows, None]
    scores = np.full((len(queries), len(labels)), floor)
    scores[:, live] = (units @ distinct.T)[:, columns]
    keys = -scores
    for row, subject in enumerate(queries):
        if subject in position:
            keys[row, position[subject]] = np.inf
    order = np.argsort(keys, axis=1, kind="stable")
    ranked_scores = np.take_along_axis(scores, order, axis=1)
    names = np.array(labels, dtype=object)[order]

    floor_labels, floor_scores = tuple(labels), (floor,) * len(labels)
    rows = {subject: row for row, subject in enumerate(queries)}
    for subject in subjects:
        row = rows.get(subject)
        if row is None:  # a zero-norm subject
            if subject in position:
                i = position[subject]
                yield floor_labels[:i] + floor_labels[i + 1:], floor_scores[1:], True
            else:
                yield floor_labels, floor_scores, True
        else:
            ranked_labels, ranked_values = names[row].tolist(), ranked_scores[row].tolist()
            if subject in position:  # the excluded candidate, sorted last
                ranked_labels.pop()
                ranked_values.pop()
            yield ranked_labels, ranked_values, any_zero


def rank_oracle(dataset: "Dataset") -> Iterator[Prediction]:
    """Yield, relation by relation, each triple's candidates ranked by gold-object frequency."""
    for rel in dataset.relation_ids:
        triples = dataset.triples_by_relation[rel]
        freq = Counter(t.object for t in triples)
        scores = {c: float(freq.get(c, 0)) for c in dataset.candidates[rel]}
        # A stable sort over the sorted labels breaks each tie by label.
        labels = tuple(sorted(scores, key=scores.__getitem__, reverse=True))
        values = tuple(map(scores.__getitem__, labels))
        for triple in triples:
            yield Prediction(triple.id, rel, labels, values, {"query_oov": False})


def export_mlm_manifest(dataset: "Dataset", scorer_vocab: SubwordVocab, out_path) -> int:
    """Write one JSONL row per (triple, candidate) pair for an external scorer.

    The query carries as many [MASK] tokens as the candidate has pieces under
    the scorer's vocabulary; rows whose candidate is [UNK]-only are flagged so
    the scorer can skip or special-case them. Returns the row count.

    Each row is the object {triple_id, relation_id, candidate, query_text,
    mask_token_ids, candidate_oov}, joined from fragments the row encoder
    wrote once: each triple's head, each candidate's name and tail per
    relation, each query per (triple, mask count).
    """
    from .kb import instantiate_query

    def lines():
        for rel in dataset.relation_ids:
            spec, relation = dataset.relations[rel], encode_row(rel)
            pieces = []  # (mask count, name, tail) per candidate
            for cand in dataset.candidates[rel]:
                ids = tokenize(scorer_vocab, cand)
                oov = all(i == scorer_vocab.unk_id for i in ids)
                pieces.append((len(ids), f'{encode_row(cand)}, "query_text": ',
                               f', "mask_token_ids": {encode_row(ids)}, '
                               f'"candidate_oov": {encode_row(oov)}}}'))
            mask_counts = {masks for masks, _, _ in pieces}
            for triple in dataset.triples_by_relation[rel]:
                head = (f'{{"triple_id": {encode_row(triple.id)}, "relation_id": {relation}, '
                        '"candidate": ')
                queries = {masks: encode_row(instantiate_query(spec, triple.subject, masks))
                           for masks in mask_counts}
                for masks, name, tail in pieces:
                    yield head + name + queries[masks] + tail
    return write_jsonl(out_path, lines())


def _logprobs(value) -> tuple[float, ...]:
    """token_logprobs as floats: a non-empty JSON list of numbers, each finite and <= 0."""
    if type(value) is not list or not value or not set(map(type, value)) <= {int, float}:
        raise ValueError(f"token_logprobs must be a non-empty list of numbers, got {value!r}")
    lps = tuple(map(float, value))
    if not (all(map(math.isfinite, lps)) and max(lps) <= 0):
        lp = next(lp for lp in lps if not math.isfinite(lp) or lp > 0)
        raise ValueError(f"log-prob {lp!r} must be finite and <= 0")
    return lps


def _read_manifest(manifest_path):
    """Yield (lineno, triple_id, candidate, mask count) for each manifest row."""
    for lineno, _, (triple_id, cand, mask_ids) in read_jsonl(
            manifest_path, "triple_id", "candidate", "mask_token_ids",
            text=("triple_id", "candidate")):
        if not (type(mask_ids) is list and set(map(type, mask_ids)) == {int}):
            raise ValueError(f"{manifest_path}:{lineno}: mask_token_ids must be a list "
                             f"of one or more integers, got {mask_ids!r}")
        yield lineno, triple_id, cand, len(mask_ids)


def _repeated(path, lineno: int, kind: str, pair) -> ValueError:
    """The error for a second row of a (triple_id, candidate) pair at path:lineno;
    path is rescanned for the first only now, on error."""
    first = next(n for n, _, row_pair in read_jsonl(path, "triple_id", "candidate")
                 if row_pair == pair)
    return ValueError(f"{path}:{lineno}: duplicate {kind} row for {pair!r} "
                      f"(first at line {first})")


def rank_mlm(score_path, dataset: "Dataset", manifest_path=None) -> Iterator[Prediction]:
    """Check an external scorer's output in full, then yield per-triple rankings.

    A candidate's score is the arithmetic mean of its per-mask log
    probabilities. The file must cover every (triple, candidate) pair exactly
    once; row order is irrelevant. A manifest, if given, must list each pair
    at most once and hold a row for every scored pair with as many mask ids
    as the pair has log-probs. Every check runs before this returns; the
    rankings then follow relation by relation, as rank_static yields them.
    """
    from array import array  # here, so that rank static and evaluate do not load it
    # One slot per expected pair: its triple's first slot plus the candidate's
    # position in the relation's sorted set. A scored pair that matches none
    # gets a slot past them, which extra records.
    first, expected = {}, 0
    for rel in dataset.relation_ids:
        position = {cand: i for i, cand in enumerate(dataset.candidates[rel])}
        for triple in dataset.triples_by_relation[rel]:
            first[triple.id] = (expected, position)
            expected += len(position)
    extra = {}

    def slot_of(triple_id, cand):
        entry = first.get(triple_id)
        if entry is not None:
            index = entry[1].get(cand)
            if index is not None:
                return entry[0] + index
        return extra.get((triple_id, cand))

    # Each slot's mean log-prob and its log-prob count, 0 while unscored.
    means, counts = array("d", [0.0]) * expected, array("i", [0]) * expected
    rows = 0
    for lineno, _, (triple_id, cand, logprobs) in read_jsonl(
            score_path, "triple_id", "candidate", "token_logprobs",
            text=("triple_id", "candidate")):
        slot = slot_of(triple_id, cand)
        if slot is None:
            slot = extra[triple_id, cand] = len(counts)
            means.append(0.0)
            counts.append(0)
        elif counts[slot]:
            raise _repeated(score_path, lineno, "score", (triple_id, cand))
        try:
            lps = _logprobs(logprobs)
        except (OverflowError, ValueError) as exc:
            raise ValueError(f"{score_path}:{lineno}: malformed score row: {exc}") from None
        means[slot], counts[slot] = sum(lps) / len(lps), len(lps)
        rows += 1

    def pairs():  # each slot's (triple_id, candidate), in slot order
        for rel in dataset.relation_ids:
            for triple in dataset.triples_by_relation[rel]:
                for cand in dataset.candidates[rel]:
                    yield triple.id, cand
        yield from extra

    if manifest_path is not None:
        # A listed slot holds ~count, which is negative; ~~count is the count.
        listed = 0
        for lineno, triple_id, cand, masks in _read_manifest(manifest_path):
            slot = slot_of(triple_id, cand)
            if slot is None:  # a pair this run neither ranks nor scores
                continue
            count = counts[slot]
            if count < 0:
                raise _repeated(manifest_path, lineno, "manifest", (triple_id, cand))
            if count and count != masks:
                raise ValueError(
                    f"{manifest_path}:{lineno}: score length {count} for "
                    f"{(triple_id, cand)!r} does not match manifest mask count {masks}")
            counts[slot] = ~count
            listed += count > 0
        if listed < rows:
            unlisted = [pair for pair, count in zip(pairs(), counts) if count > 0]
            shown = ", ".join(repr(p) for p in sorted(unlisted)[:10])
            raise ValueError(
                f"{manifest_path}: {len(unlisted)} scored pairs have no manifest row: {shown}")

    if rows - len(extra) < expected:
        missing = [pair for pair, count in zip(pairs(), counts[:expected])
                   if count in (0, ~0)]  # ~0: unscored, and listed in the manifest
        shown = ", ".join(repr(m) for m in sorted(missing)[:10])
        raise ValueError(f"{len(missing)} (triple, candidate) pairs unscored: {shown}")
    if extra:
        shown = ", ".join(repr(e) for e in sorted(extra)[:10])
        raise ValueError(f"{len(extra)} score rows match no (triple, candidate) pair: {shown}")

    def rankings():
        slot = 0
        for rel in dataset.relation_ids:
            labels = dataset.candidates[rel]
            for triple in dataset.triples_by_relation[rel]:
                scores = means[slot:slot + len(labels)]
                slot += len(labels)
                # As in rank_oracle: a stable sort over the sorted labels breaks each tie
                # by label.
                order = sorted(range(len(labels)), key=scores.__getitem__, reverse=True)
                yield Prediction(triple.id, rel, [labels[i] for i in order],
                                 [scores[i] for i in order], {"query_oov": False})
    return rankings()


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


# A digest's first 8 bytes as an integer; times 2.0 ** -64 it is exactly the
# integer over 2 ** 64, as a power of two scales the rounded integer exactly.
_digest_head = Struct(">Q").unpack_from


def write_stub_scores(manifest_path, out_path, lookup=None) -> int:
    """Generate a valid score file from a manifest without any external model.

    lookup, as read_lookup returns it, maps (triple_id, candidate) to that
    pair's log-probs; pairs not covered get deterministic filler values, and
    a lookup pair that matches no manifest row is an error. A manifest that
    fails part way leaves out_path as it was. Returns the number of rows
    written. Each row {triple_id, candidate, token_logprobs} is joined from
    encoded fragments, with its triple's head encoded once per run of rows.
    """
    lookup = lookup or {}
    unused = set(lookup)

    def lines():
        triple = head = None
        for lineno, triple_id, cand, masks in _read_manifest(manifest_path):
            if triple_id != triple:
                triple, head = triple_id, f'{{"triple_id": {encode_row(triple_id)}, "candidate": '
            lps = None
            if lookup:
                key = (triple_id, cand)
                lps = lookup.get(key)
                unused.discard(key)
            if lps is None:  # filler from sha256 of "triple_id\tcandidate\tposition"
                prefix = f"{triple_id}\t{cand}\t".encode("utf-8")
                lps = [-0.01 - 7.99 * (_digest_head(sha256(prefix + b"%d" % i).digest())[0]
                                       * 2.0 ** -64) for i in range(masks)]
            elif len(lps) != masks:
                raise ValueError(f"{manifest_path}:{lineno}: lookup for {key!r} has "
                                 f"{len(lps)} log-probs, manifest wants {masks}")
            yield f'{head}{encode_row(cand)}, "token_logprobs": {encode_row(lps)}}}'
        if unused:
            shown = ", ".join(repr(p) for p in sorted(unused)[:10])
            raise ValueError(f"{len(unused)} lookup pairs match no manifest row: {shown}")
    return write_jsonl(out_path, lines())


def save_predictions(predictions: Iterable[Prediction], path) -> int:
    """Write one row per prediction as it arrives and return the count; a failure
    leaves path as it was.

    Each row is the object {triple_id, relation_id, ranked, flags}, where ranked
    lists [label, score] pairs, joined from encoded fragments. A prediction that
    holds the previous row's labels and scores objects, as rank oracle's and the
    zero-norm floor rankings do, reuses that row's ranked text. The previous
    objects stay referenced here, so an identity match is never a reused id.
    """
    def lines():
        labels = scores = ranked = None
        for pred in predictions:
            if pred.labels is not labels or pred.scores is not scores:
                labels, scores = pred.labels, pred.scores
                ranked = encode_row(list(zip(labels, scores)))
            yield (f'{{"triple_id": {encode_row(pred.triple_id)}, '
                   f'"relation_id": {encode_row(pred.relation_id)}, '
                   f'"ranked": {ranked}, "flags": {encode_row(pred.flags)}}}')
    return write_jsonl(path, lines())


def load_predictions(path) -> Iterator[Prediction]:
    """Yield each row of a predictions file once it passes its checks: one row per triple,
    each label once in a ranking in Prediction's order, flags (if any) an object of booleans."""
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
        # string or object yields strings.
        try:
            labels = [label for label, _ in ranked]
            scores = [score for _, score in ranked]
        except (TypeError, ValueError):  # not a list, or an entry that is not two values
            labels = scores = []
        score_types = set(map(type, scores))
        if score_types != {float}:  # save_predictions writes floats; integers convert
            try:
                scores = [float(score) if type(score) is int and type(label) is str else score
                          for label, score in zip(labels, scores)]
            except OverflowError as exc:  # an integer too large for a float
                raise ValueError(f"{path}:{lineno}: malformed prediction: {exc}") from None
            score_types = set(map(type, scores))
        if score_types != {float} or set(map(type, labels)) != {str}:
            raise ValueError(f"{path}:{lineno}: ranked must be a non-empty list of "
                             "[label, score] pairs of a string and a number")
        if len(set(labels)) != len(labels):  # loop only to name the label
            counts = Counter(labels)
            label = next(label for label in labels if counts[label] > 1)
            raise ValueError(f"{path}:{lineno}: ranked lists label {label!r} twice")
        # Prediction's order. NaN fails every comparison, so scores that never rise are
        # finite if both ends are; only a ranking with a tie leaves the C-level pass.
        if not (math.isfinite(scores[0]) and math.isfinite(scores[-1])
                and (all(map(operator.gt, scores, scores[1:]))
                     or all(s > t or s == t and a < b
                            for s, t, a, b in zip(scores, scores[1:], labels, labels[1:])))):
            raise ValueError(f"{path}:{lineno}: ranked must list finite scores that never "
                             "rise, tied labels in ascending order")
        flags = row.get("flags", {})
        if type(flags) is not dict or not set(map(type, flags.values())) <= {bool}:
            raise ValueError(f"{path}:{lineno}: flags must be an object of booleans, "
                             f"got {flags!r}")
        yield Prediction(triple_id, relation_id, labels, scores, flags)
