"""Seeded input generation for the three benchmark workloads.

Every workload gets the same file set in one input directory, so the
pipeline in ``run.py`` is one command sequence for all of them:

- ``corpus.txt``: Zipfian text over a synthetic lexicon, for
  ``build-vocab``, ``tokenize`` and ``train-embeddings``;
- ``triples.jsonl`` / ``templates.jsonl``: the knowledge base;
- ``mlm_ids.txt``: the triple ids the score-file adapter runs on;
- ``probe`` only: ``probe_vocab.txt`` and ``probe_table.vec``, a fixed
  vocabulary and a small-integer table that ``rank static`` uses instead of
  the trained one, so its rankings can be checked in exact arithmetic.

Shapes (sizes, candidate-set schedule) are fixed per workload; the seed only
changes content, so timings move with the code and not with the seed.
"""

import itertools
import json
import random
from pathlib import Path

# Letters of the synthetic lexicon. "q" is left out on purpose: a word that
# contains it can never be segmented and always tokenizes to [UNK].
LETTERS = "abcdefghijklmnoprstuvwxyz"
OOV_LETTER = "q"

SHAPES = {
    # Wordpiece and skip-gram training dominate; the KB is small.
    "train": {
        "lexicon": 2400, "lines": 260, "line_words": (8, 14),
        "vocab_size": 2500, "dim": 24, "epochs": 1, "min_count": 3,
        "hash_buckets": 400_000,
        "relations": 8, "triples": 40, "candidates": (6, 24), "mlm_relations": 8,
    },
    # LAMA-shaped KB with skewed candidate sets; training inputs are tiny.
    "probe": {
        "lexicon": 400, "lines": 40, "line_words": (6, 10),
        "vocab_size": 500, "dim": 8, "epochs": 1, "min_count": 2,
        "hash_buckets": 2000,
        "relations": 40, "triples": 100, "candidates": (20, 100), "mlm_relations": 2,
    },
    # Score-file adapter: many (triple, candidate) rows, small training.
    "mlm": {
        "lexicon": 1500, "lines": 80, "line_words": (6, 10),
        "vocab_size": 1200, "dim": 8, "epochs": 1, "min_count": 2,
        "hash_buckets": 2000,
        "relations": 20, "triples": 80, "candidates": (10, 40), "mlm_relations": 20,
    },
}

PROBE_DIM = 8


def candidate_schedule(n_relations: int, low: int, high: int) -> list[int]:
    """Geometric candidate-set sizes from low to high across relations."""
    if n_relations == 1:
        return [high]
    ratio = (high / low) ** (1.0 / (n_relations - 1))
    return [round(low * ratio ** i) for i in range(n_relations)]


def _word(rng: random.Random, letters: str, low: int, high: int) -> str:
    return "".join(rng.choice(letters) for _ in range(rng.randint(low, high)))


def _distinct_words(rng, count, letters=LETTERS, low=3, high=9, avoid=()):
    seen = set(avoid)
    words = []
    while len(words) < count:
        word = _word(rng, letters, low, high)
        if word not in seen:
            seen.add(word)
            words.append(word)
    return words


def corpus(rng, shape) -> tuple[list[str], list[str]]:
    lexicon = _distinct_words(rng, shape["lexicon"])
    cum_weights = list(itertools.accumulate(1.0 / (rank + 1)
                                            for rank in range(len(lexicon))))
    low, high = shape["line_words"]
    lines = [" ".join(rng.choices(lexicon, cum_weights=cum_weights,
                                  k=rng.randint(low, high)))
             for _ in range(shape["lines"])]
    return lines, lexicon


def _objects_for(rng, pool: list[str], n_triples: int, n_candidates: int) -> list[str]:
    """n_triples gold objects with exactly n_candidates distinct values, skewed."""
    chosen = rng.sample(pool, n_candidates)
    weights = [1.0 / (rank + 1) for rank in range(n_candidates)]
    objects = list(chosen) + rng.choices(chosen, weights=weights,
                                         k=n_triples - n_candidates)
    rng.shuffle(objects)
    return objects


def _kb_rows(rng, shape, subject_for, object_pool):
    triples, templates = [], []
    sizes = candidate_schedule(shape["relations"], *shape["candidates"])
    for r, n_candidates in enumerate(sizes):
        rel = f"P{r:03d}"
        templates.append({"relation": rel, "template": f"[X] is linked by {rel} to [Y] ."})
        for obj in _objects_for(rng, object_pool, shape["triples"], n_candidates):
            triples.append({"sub_label": subject_for(), "predicate_id": rel,
                            "obj_label": obj})
    return triples, templates


def _probe_lexicon(rng):
    """Vocabulary and integer table whose composition is exact in float64.

    Whole-word tokens are 4 letters, continuation pieces 3, word-initial
    stems 5: a stem plus a piece can only segment as [stem, ##piece] under
    greedy longest match. Candidates are whole words; subjects total 1, 2 or
    4 pieces, so the mean of integer rows is exact. Ties come from copied and
    doubled rows, zero-norm cases from zero rows, table gaps and [UNK].
    Fresh rows draw coordinates from 0..99: with 0..9 and over a hundred
    candidates per relation, unrelated rows often reach exactly equal
    cosines, which float64 cannot order the way exact arithmetic does.
    """
    words = _distinct_words(rng, 2200, low=4, high=4)
    stems = _distinct_words(rng, 300, low=5, high=5)
    pieces = _distinct_words(rng, 120, low=3, high=3)
    tokens = ["[UNK]", "[MASK]"] + words + stems + ["##" + p for p in pieces]

    rows, drawn = {}, []
    for tok in tokens[2:]:
        roll = rng.random()
        if drawn and roll < 0.12:
            rows[tok] = list(rng.choice(drawn))                 # exact tie
        elif drawn and roll < 0.20:
            rows[tok] = [2 * x for x in rng.choice(drawn)]      # doubled tie
        elif roll < 0.25:
            rows[tok] = [0] * PROBE_DIM                         # zero norm
        elif roll < 0.29:
            continue                                            # not in table
        else:
            rows[tok] = [rng.randint(0, 99) for _ in range(PROBE_DIM)]
            drawn.append(rows[tok])
    return tokens, rows, words, stems, pieces


def _probe_subject(rng, words, stems, pieces) -> str:
    def two_piece():
        return rng.choice(stems) + rng.choice(pieces)

    def oov():
        word = _word(rng, LETTERS, 3, 6)
        cut = rng.randint(0, len(word))
        return word[:cut] + OOV_LETTER + word[cut:]

    shape = rng.random()
    if shape < 0.35:
        return rng.choice(words)
    if shape < 0.55:
        return two_piece()
    if shape < 0.75:
        return " ".join(rng.choice(words) for _ in range(2))
    if shape < 0.85:
        return rng.choice([oov(), rng.choice(words) + " " + oov()])
    return " ".join([two_piece(), rng.choice(words), rng.choice(words)])


def generate(workload: str, seed: int, out_dir: Path) -> None:
    """Write the workload's inputs for ``seed`` into out_dir."""
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    lines, lexicon = corpus(rng, shape)
    (out_dir / "corpus.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")

    if workload == "probe":
        tokens, rows, words, stems, pieces = _probe_lexicon(rng)
        (out_dir / "probe_vocab.txt").write_text(
            "".join(t + "\n" for t in tokens), encoding="utf-8")
        with open(out_dir / "probe_table.vec", "w", encoding="utf-8") as f:
            f.write(f"{len(rows)} {PROBE_DIM}\n")
            for tok, vec in rows.items():
                f.write(tok + " " + " ".join(f"{v:.5f}" for v in vec) + "\n")
        oov_objects = [w[:2] + OOV_LETTER + w[2:] for w in words[:40]]
        triples, templates = _kb_rows(
            rng, shape, lambda: _probe_subject(rng, words, stems, pieces),
            words + oov_objects)
    else:
        frequent = lexicon[: len(lexicon) // 4]
        triples, templates = _kb_rows(
            rng, shape,
            lambda: " ".join(rng.sample(frequent, rng.choice([1, 1, 2]))),
            frequent)

    with open(out_dir / "triples.jsonl", "w", encoding="utf-8") as f:
        for row in triples:
            f.write(json.dumps(row, ensure_ascii=False) + "\n")
    with open(out_dir / "templates.jsonl", "w", encoding="utf-8") as f:
        for row in templates:
            f.write(json.dumps(row, ensure_ascii=False) + "\n")

    # The adapter runs on the relations with the smallest candidate sets.
    mlm_rels = {t["relation"] for t in templates[: shape["mlm_relations"]]}
    ids, seen = [], {}
    for row in triples:
        rel = row["predicate_id"]
        index = seen.get(rel, 0)
        seen[rel] = index + 1
        if rel in mlm_rels:
            ids.append(f"{rel}#{index}")
    (out_dir / "mlm_ids.txt").write_text("\n".join(ids) + "\n", encoding="utf-8")
