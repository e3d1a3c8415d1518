"""Output checks, exact counters and span accounting for the benchmark.

Everything here is recomputed from the generated inputs and the files the
CLI wrote, with plain counting, exact rational arithmetic and the
brute-force oracles in ``tests/oracles.py``; nothing imports the package.
"""

import hashlib
import importlib
import json
import math
import random
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

import inputs

TESTS = Path(__file__).resolve().parent.parent / "tests"

SPECIALS = ("[UNK]", "[MASK]")
# build-vocab on a fixed corpus: merge order is a fixed guarantee, so the
# vocabulary file's bytes are too.
REFERENCE_SHAPE = {"lexicon": 800, "lines": 300, "line_words": (6, 10)}
REFERENCE_VOCAB_SIZE = 600
REFERENCE_VOCAB_SHA256 = "eb2d453678798854dd59219064934555d82b115f8ee181512ba7be9d4b11c77c"
STATIC_SAMPLE = 40
RECONCAT_SAMPLE = 200


def _oracles():
    """tests/oracles.py of the checkout under test."""
    if str(TESTS) not in sys.path:
        sys.path.insert(0, str(TESTS))
    return importlib.import_module("oracles")


class CheckFailed(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


class GreedyTokenizer:
    """Whitespace split, then greedy longest match; [UNK] for an unsegmentable word."""

    def __init__(self, tokens, max_word_length: int = 100):
        self.max_word_length = max_word_length
        self.initial = {t for t in tokens if t not in SPECIALS and not t.startswith("##")}
        self.continuation = {t[2:] for t in tokens if t.startswith("##") and len(t) > 2}

    def word(self, word: str) -> list[str]:
        if len(word) > self.max_word_length:
            return ["[UNK]"]
        pieces, pos = [], 0
        while pos < len(word):
            table = self.initial if pos == 0 else self.continuation
            end = next((e for e in range(len(word), pos, -1) if word[pos:e] in table), None)
            if end is None:
                return ["[UNK]"]
            pieces.append(word[pos:end] if pos == 0 else "##" + word[pos:end])
            pos = end
        return pieces

    def pieces(self, text: str) -> list[str]:
        return [piece for word in text.split() for piece in self.word(word)]


class Kb:
    """Triples as the CLI ingests them: ids ``<relation>#<index>``, optional subset."""

    def __init__(self, in_dir: Path, subset: bool = False):
        wanted = None
        if subset:
            wanted = set((in_dir / "mlm_ids.txt").read_text(encoding="utf-8").split())
        self.gold, self.subject = {}, {}
        self.relations: dict[str, list[str]] = defaultdict(list)
        seen = Counter()
        for row in _jsonl(in_dir / "triples.jsonl"):
            rel = row["predicate_id"]
            tid = f"{rel}#{seen[rel]}"
            seen[rel] += 1
            if wanted is not None and tid not in wanted:
                continue
            self.relations[rel].append(tid)
            self.gold[tid] = row["obj_label"]
            self.subject[tid] = row["sub_label"]
        self.candidates = {rel: sorted({self.gold[t] for t in tids})
                           for rel, tids in self.relations.items()}

    @property
    def pairs(self) -> int:
        return sum(len(tids) * len(self.candidates[rel])
                   for rel, tids in self.relations.items())


def _predictions(path: Path) -> dict[str, dict]:
    return {row["triple_id"]: row for row in _jsonl(path)}


def _vocab_tokens(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").splitlines()


def _table(path: Path) -> tuple[int, dict[str, list[str]]]:
    with open(path, "r", encoding="utf-8") as f:
        count, dim = map(int, f.readline().split())
        rows = {}
        for line in f:
            token, *values = line.rstrip("\n").split(" ")
            rows[token] = values
    _expect(len(rows) == count, f"{path.name}: header {count} rows, found {len(rows)}")
    return dim, rows


def _rank_paths(workload: str, shape: dict, work: Path) -> tuple[Path, Path]:
    if workload == "probe":
        return work / "in/probe_table.vec", work / "in/probe_vocab.txt"
    return work / "out/embed/embeddings.vec", _built_vocab(shape, work)


def _built_vocab(shape: dict, work: Path) -> Path:
    return work / f"out/vocab/vocab_{shape['vocab_size']}.txt"


# --- wordpiece and embeddings -------------------------------------------------

def write_reference_corpus(directory: Path) -> Path:
    directory.mkdir(parents=True)
    lines, _ = inputs.corpus(random.Random("reference"), REFERENCE_SHAPE)
    path = directory / "corpus.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def reference_vocab_error(out_dir: Path) -> str | None:
    data = (out_dir / f"vocab_{REFERENCE_VOCAB_SIZE}.txt").read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest != REFERENCE_VOCAB_SHA256:
        return f"reference vocab sha256 {digest} != recorded {REFERENCE_VOCAB_SHA256}"
    return None


def check_pieces_reconcatenate(work: Path) -> None:
    lines = (work / "in/corpus.txt").read_text(encoding="utf-8").splitlines()
    rows = _jsonl(work / "out/tok/tokens.jsonl")
    _expect(len(rows) == len(lines), f"{len(rows)} tokenized lines for {len(lines)}")
    sample = random.Random(len(lines)).sample(range(len(lines)),
                                              min(RECONCAT_SAMPLE, len(lines)))
    for i in sample:
        words = []
        for piece in rows[i]["tokens"]:
            if piece.startswith("##"):
                _expect(bool(words), f"line {i + 1} starts with continuation {piece!r}")
                words[-1] += piece[2:]
            else:
                words.append(piece)
        expected = lines[i].split()
        _expect(len(words) == len(expected)
                and all(w == e for w, e in zip(words, expected) if w != "[UNK]"),
                f"line {i + 1}: pieces rejoin to {words[:6]}, corpus has {expected[:6]}")


def kept_token_counts(work: Path, min_count: int) -> Counter:
    counts = Counter()
    for row in _jsonl(work / "out/tok/tokens.jsonl"):
        counts.update(row["tokens"])
    return Counter({t: c for t, c in counts.items() if c >= min_count})


def check_table(shape: dict, work: Path) -> None:
    dim, rows = _table(work / "out/embed/embeddings.vec")
    _expect(dim == shape["dim"], f"table dim {dim}, asked for {shape['dim']}")
    for token, values in rows.items():
        _expect(len(values) == dim, f"row {token!r} has {len(values)} values")
        _expect(all(math.isfinite(float(v)) for v in values), f"row {token!r} is not finite")
    kept = kept_token_counts(work, shape["min_count"])
    _expect(set(rows) == set(kept),
            f"{len(rows)} table rows for {len(kept)} kept tokens; "
            f"differ on {sorted(set(rows) ^ set(kept))[:5]}")


# --- ranking and metrics ----------------------------------------------------

def _exact_rows(table_rows: dict[str, list[str]]) -> dict[str, list]:
    """Table rows as exact numbers: ints where integral, Fractions otherwise."""
    out = {}
    for token, values in table_rows.items():
        exact = [Fraction(v) for v in values]
        out[token] = [int(x) if x.denominator == 1 else x for x in exact]
    return out


def _composed(pieces, rows, dim) -> list:
    """Sum of the pieces' rows; a piece with no row adds zero. Same direction as the mean."""
    total = [0] * dim
    for piece in pieces:
        for i, x in enumerate(rows.get(piece, ())):
            total[i] += x
    return total


def _direction(vector) -> tuple:
    """Exact unit-free direction: the vector over its largest |coordinate|."""
    scale = max(abs(x) for x in vector)
    return tuple(Fraction(x) / scale for x in vector) if scale else ()


def check_static_exact(work: Path) -> None:
    """Sampled rankings equal tests/oracles.exact_rank, ties and zero norms included."""
    dim, table_rows = _table(work / "in/probe_table.vec")
    rows = _exact_rows(table_rows)
    tokenizer = GreedyTokenizer(_vocab_tokens(work / "in/probe_vocab.txt"))
    kb = Kb(work / "in")
    preds = _predictions(work / "out/static/predictions_static.jsonl")
    _expect(set(preds) == set(kb.gold), "static predictions do not cover the triples")

    rng = random.Random(len(preds))
    ids = sorted(preds)
    zero = [t for t in ids if preds[t]["flags"].get("zero_norm")]
    oov = [t for t in ids if preds[t]["flags"].get("query_oov")]
    sample = set(rng.sample(ids, STATIC_SAMPLE))
    sample |= set(rng.sample(zero, min(STATIC_SAMPLE // 2, len(zero))))
    sample |= set(rng.sample(oov, min(STATIC_SAMPLE // 2, len(oov))))
    ties = 0
    for tid in sorted(sample):
        rel = tid.split("#")[0]
        pieces = tokenizer.pieces(kb.subject[tid])
        query = _composed(pieces, rows, dim)
        cand_vectors = {c: _composed(tokenizer.pieces(c), rows, dim)
                        for c in kb.candidates[rel]}
        expected = _oracles().exact_rank(query, cand_vectors)
        keys = [_oracles().exact_cosine_key(query, cand_vectors[c]) for c in expected]
        for (a, key_a), (b, key_b) in zip(zip(expected, keys), zip(expected[1:], keys[1:])):
            if key_a == key_b and any(query):
                # The oracle's domain: ties only from copied or doubled rows.
                _expect(_direction(cand_vectors[a]) == _direction(cand_vectors[b]),
                        f"{tid}: generated input has an accidental tie {a!r}, {b!r}")
                ties += 1
        got = [label for label, _ in preds[tid]["ranked"]]
        if got != expected:
            raise CheckFailed(f"{tid}: ranking {got[:5]}... differs from exact_rank "
                              f"{expected[:5]}...")
        flags = {"query_oov": any(p not in rows for p in pieces),
                 "zero_norm": not any(query) or not all(any(v) for v in cand_vectors.values())}
        _expect(preds[tid]["flags"] == flags, f"{tid}: flags {preds[tid]['flags']} != {flags}")
    _expect(ties > 0 and zero and oov, "sample holds no tie, zero-norm or OOV case")


def check_metrics(work: Path, name: str, subset: bool) -> None:
    """metrics.json equals the brute-force oracles at the acceptance tests' 1e-9."""
    kb = Kb(work / "in", subset=subset)
    preds = _predictions(work / f"out/{name}/predictions_{name}.jsonl")
    top_lists = {tid: [label for label, _ in row["ranked"]] for tid, row in preds.items()}
    _expect(set(top_lists) == set(kb.gold), f"{name} predictions do not cover the triples")
    with open(work / f"out/eval_{name}/metrics.json", "r", encoding="utf-8") as f:
        report = json.load(f)
    relations = dict(kb.relations)
    oracles = _oracles()
    _, macro_p1 = oracles.brute_p_at_k(top_lists, kb.gold, relations, 1)
    _, macro_p5 = oracles.brute_p_at_k(top_lists, kb.gold, relations, 5)
    p1_mf, dropped = oracles.brute_p1_mf(top_lists, kb.gold, relations)
    entropy, avg_distinct = oracles.brute_diversity(top_lists, relations)
    for key, want in (("macro_p1", macro_p1), ("macro_p5", macro_p5), ("p1_mf", p1_mf),
                      ("entropy_bits", entropy), ("avg_distinct_predictions", avg_distinct)):
        got = report[key]
        _expect(abs(got - want) <= 1e-9, f"{name} {key} {got} != brute force {want}")
    _expect(report["relations_dropped_by_mf"] == dropped,
            f"{name} relations_dropped_by_mf {report['relations_dropped_by_mf']} != {dropped}")


def check_oracle_law(work: Path) -> None:
    """Per relation, oracle p@1 is the max object frequency over n, exactly."""
    kb = Kb(work / "in")
    with open(work / "out/eval_oracle/metrics.json", "r", encoding="utf-8") as f:
        per_relation = json.load(f)["per_relation"]
    for rel, tids in kb.relations.items():
        law = max(Counter(kb.gold[t] for t in tids).values()) / len(tids)
        _expect(per_relation[rel]["p_at_1"] == law,
                f"{rel}: oracle p@1 {per_relation[rel]['p_at_1']} != {law}")


def check_mlm(work: Path) -> None:
    """Manifest has one row per pair, scores cover it once, top-1 is the argmax."""
    kb = Kb(work / "in", subset=True)
    expected = {(t, c) for rel, tids in kb.relations.items()
                for t in tids for c in kb.candidates[rel]}
    manifest = _jsonl(work / "out/manifest/mlm_manifest.jsonl")
    _expect(len(manifest) == kb.pairs, f"{len(manifest)} manifest rows, want {kb.pairs}")
    masks = {(r["triple_id"], r["candidate"]): len(r["mask_token_ids"]) for r in manifest}
    _expect(set(masks) == expected, "manifest pairs differ from triples x candidates")

    scores = {}
    for row in _jsonl(work / "out/scores/stub_scores.jsonl"):
        key = (row["triple_id"], row["candidate"])
        _expect(key not in scores, f"pair {key} scored twice")
        _expect(len(row["token_logprobs"]) == max(1, masks.get(key, 0)),
                f"pair {key}: {len(row['token_logprobs'])} log-probs")
        scores[key] = sum(row["token_logprobs"]) / len(row["token_logprobs"])
    _expect(set(scores) == expected, "score file does not cover the manifest exactly once")

    preds = _predictions(work / "out/mlm/predictions_mlm.jsonl")
    for rel, tids in kb.relations.items():
        for tid in tids:
            best = min(kb.candidates[rel], key=lambda c: (-scores[(tid, c)], c))
            _expect(preds[tid]["ranked"][0][0] == best,
                    f"{tid}: top-1 {preds[tid]['ranked'][0][0]!r}, argmax {best!r}")


def output_checks(workload: str, shape: dict, work: Path) -> list[tuple[str, str | None]]:
    """Run every output check; a check that raises reports its message."""
    checks = [
        ("pieces_reconcatenate", lambda: check_pieces_reconcatenate(work)),
        ("table_rows", lambda: check_table(shape, work)),
        ("metrics_static", lambda: check_metrics(work, "static", False)),
        ("metrics_oracle", lambda: check_metrics(work, "oracle", False)),
        ("metrics_mlm", lambda: check_metrics(work, "mlm", True)),
        ("oracle_law", lambda: check_oracle_law(work)),
        ("mlm_adapter", lambda: check_mlm(work)),
    ]
    if workload == "probe":
        checks.append(("static_exact_rank", lambda: check_static_exact(work)))
    results = []
    for name, check in checks:
        try:
            check()
            results.append((name, None))
        except Exception as exc:  # a broken output must count, not abort the run
            results.append((name, f"{type(exc).__name__}: {exc}"))
    return results


# --- counters -----------------------------------------------------------------

def _alphabet(corpus: Path) -> set[str]:
    symbols = set()
    for word in set(corpus.read_text(encoding="utf-8").split()):
        if len(word) <= 100:
            symbols.add(word[0])
            symbols.update("##" + ch for ch in word[1:])
    return symbols


def duplicate_candidate_rows(kb: Kb, table: Path, vocab: Path) -> int:
    """Candidate rows a ranker that dedupes normalised rows would not score."""
    dim, table_rows = _table(table)
    tokenizer = GreedyTokenizer(_vocab_tokens(vocab))
    wanted = {p for cands in kb.candidates.values() for c in cands for p in tokenizer.pieces(c)}
    rows = _exact_rows({t: v for t, v in table_rows.items() if t in wanted})
    return sum(len(cands) - len({_direction(_composed(tokenizer.pieces(c), rows, dim))
                                 for c in cands})
               for cands in kb.candidates.values())


def _size(*paths: Path) -> int:
    return sum(p.stat().st_size for p in paths)


def counters(workload: str, shape: dict, work: Path, root: Path) -> dict[str, float]:
    """Exact counts from the inputs and outputs; they repeat for a given seed."""
    kb = Kb(work / "in")
    vocab = _built_vocab(shape, work)
    table, rank_vocab = _rank_paths(workload, shape, work)
    kept = kept_token_counts(work, shape["min_count"])
    flags = [row["flags"] for row in _jsonl(work / "out/static/predictions_static.jsonl")]

    checksum_bytes = 0
    for manifest in (work / "out").rglob("*_manifest.json"):
        listed = json.loads(manifest.read_text(encoding="utf-8"))["inputs"]
        checksum_bytes += _size(*(work / p for p in listed))
    for sidecar in (work / "out/vocab").glob("vocab_*.txt.json"):
        if json.loads(sidecar.read_text(encoding="utf-8"))["corpus_sha256"]:
            checksum_bytes += _size(work / "in/corpus.txt")

    return {
        "wordpiece.merges": (len(_vocab_tokens(vocab)) - len(SPECIALS)
                             - len(_alphabet(work / "in/corpus.txt"))),
        "wordpiece.corpus_checksum.bytes": checksum_bytes,
        "embeddings.train_tokens": sum(kept.values()) * shape["epochs"],
        "embeddings.table_rows": len(_table(table)[1]),
        "embeddings.table_bytes": _size(table),
        "kb.triples": len(kb.gold),
        "kb.candidates": sum(len(c) for c in kb.candidates.values()),
        "ranking.pairs_scored": kb.pairs,
        "ranking.distinct_subject_ratio": len(set(kb.subject.values())) / len(kb.subject),
        "ranking.duplicate_candidate_rows": duplicate_candidate_rows(kb, table, rank_vocab),
        "ranking.query_oov_rate": sum(bool(f.get("query_oov")) for f in flags) / len(flags),
        "ranking.zero_norm_rate": sum(bool(f.get("zero_norm")) for f in flags) / len(flags),
        "ranking.predictions_bytes": _size(*(work / f"out/{m}/predictions_{m}.jsonl"
                                             for m in ("static", "oracle", "mlm"))),
        "ranking.manifest_rows": len(_jsonl(work / "out/manifest/mlm_manifest.jsonl")),
        "ranking.manifest_bytes": _size(work / "out/manifest/mlm_manifest.jsonl"),
        "ranking.score_bytes": _size(work / "out/scores/stub_scores.jsonl"),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in (root / "src").rglob("*.py")),
    }


# --- spans --------------------------------------------------------------------

def _spans(cmd: dict) -> dict:
    with open(cmd["spans"], "r", encoding="utf-8") as f:
        return json.load(f)


def unaccounted_s(cmd: dict) -> float:
    """Wall time of the child not covered by import time and the CLI span."""
    payload = _spans(cmd)
    cli = payload["spans"][0]
    return cmd["wall"] - payload["import_s"] - (cli["end"] - cli["start"])


def layer_timings(commands: list[dict]) -> dict[str, float]:
    """Per-layer seconds, call counts and CLI self time over one traced pipeline."""
    values = defaultdict(float)
    for cmd in commands:
        if cmd["spans"] is None:
            continue
        payload = _spans(cmd)
        cli, *layer_spans = payload["spans"]
        values[f"{cli['name']}.self_s"] += cli["self_s"]
        values["cli.startup_s"] += payload["import_s"]
        values["trace.unaccounted_s"] += unaccounted_s(cmd)
        for span in layer_spans:
            values[f"{span['name']}.s"] += span["end"] - span["start"]
            if span["name"] == "embeddings.train_static_embeddings":
                values["embeddings.train_static_embeddings.rss_hwm_mb"] = max(
                    values["embeddings.train_static_embeddings.rss_hwm_mb"],
                    span["maxrss_mb"])
        for name, agg in payload["aggregates"].items():
            values[f"{name}.s"] += agg["s"]
            values[f"{name}.calls"] += agg["calls"]
            values[f"{name}.items"] += agg["items"]
    return dict(values)


def derive_rates(values: dict) -> None:
    def rate(count, seconds):
        return values[count] / values[seconds] if values.get(seconds) else 0.0

    values["wordpiece.merges_per_s"] = rate("wordpiece.merges", "wordpiece.train_wordpiece.s")
    values["wordpiece.tokenize.tokens_per_s"] = rate("wordpiece.tokenize.items",
                                                     "wordpiece.tokenize.s")
    values["embeddings.train_tokens_per_s"] = rate("embeddings.train_tokens",
                                                   "embeddings.train_static_embeddings.s")
    values["ranking.pairs_per_s"] = rate("ranking.pairs_scored", "ranking.rank_static.s")
