"""A seeded planted-fact KB and corpus, where a fact is learnable only from shared contexts.

The KB has relations x triples facts. Each relation has `objects` objects, each
a string of 5 to 9 random letters with 3 private context words. Subjects are
fresh random words, and a triple's object is drawn with weight 1/(k+1)**0.5
over its relation's objects, so the frequency oracle has something to find.

The corpus holds shuffled three-word lines: 4 per subject and 6 per object,
each the entity and 2 of its object's context words in random order. A subject
and its object share contexts, but never a line, so only second-order
co-occurrence links them.

The module imports nothing from the package and never iterates a set, so a
seed gives the same files under any hash seed, and a benchmark can load it by
path as it loads tests/oracles.py.
"""

import json
import random
import string
from pathlib import Path

CONTEXT_WORDS = 3
LINES_PER_SUBJECT = 4
LINES_PER_OBJECT = 6


def generate(seed: int, relations: int = 5, triples: int = 20, objects: int = 10):
    """(corpus lines, triple rows, template rows) of one planted KB."""
    rng = random.Random(seed)
    taken = set()

    def fresh_word():
        while True:
            word = "".join(rng.choices(string.ascii_lowercase, k=rng.randint(5, 9)))
            if word not in taken:
                taken.add(word)
                return word

    contexts, triple_rows, template_rows, lines = {}, [], [], []
    weights = [1 / (k + 1) ** 0.5 for k in range(objects)]
    for r in range(relations):
        relation = f"P{r + 1}"
        template_rows.append({"relation": relation, "template": f"[X] r{r + 1} [Y] ."})
        pool = [fresh_word() for _ in range(objects)]
        for obj in pool:
            contexts[obj] = [fresh_word() for _ in range(CONTEXT_WORDS)]
            lines += [[obj, *rng.sample(contexts[obj], 2)] for _ in range(LINES_PER_OBJECT)]
        for _ in range(triples):
            subject, (obj,) = fresh_word(), rng.choices(pool, weights)
            triple_rows.append({"sub_label": subject, "predicate_id": relation,
                                "obj_label": obj})
            lines += [[subject, *rng.sample(contexts[obj], 2)]
                      for _ in range(LINES_PER_SUBJECT)]
    for line in lines:
        rng.shuffle(line)
    rng.shuffle(lines)
    return [" ".join(line) for line in lines], triple_rows, template_rows


def write(directory, seed: int) -> dict[str, Path]:
    """Write the default shape's corpus.txt, triples.jsonl and templates.jsonl under
    directory; return their paths under the names corpus, triples and templates."""
    lines, triple_rows, template_rows = generate(seed)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {name: directory / file for name, file in (
        ("corpus", "corpus.txt"), ("triples", "triples.jsonl"),
        ("templates", "templates.jsonl"))}
    paths["corpus"].write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    for name, rows in (("triples", triple_rows), ("templates", template_rows)):
        paths[name].write_text("".join(json.dumps(row) + "\n" for row in rows),
                               encoding="utf-8")
    return paths
