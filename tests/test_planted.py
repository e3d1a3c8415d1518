"""The vocabulary-size gate: on planted facts, a larger wordpiece vocabulary ranks better.

Each seed's planted KB and corpus train one wordpiece vocabulary to whole words
and cut sizes 150 and 1000 from it as prefixes. Each size trains skip-gram
embeddings (dim 32, window 3, 10 epochs, n-grams off), which rank_static and
compute_report score; rank_oracle gives the frequency baseline. Seeds 1 / 2 / 3
gave macro p@1 0.17 / 0.08 / 0.12 at size 150, 0.22 / 0.34 / 0.34 at size 1000,
0.93 / 0.94 / 0.96 at whole words and 0.22 / 0.25 / 0.29 for the oracle. At size
1000, one-piece subjects scored 68 of 145 and longer ones 22 of 155.
planted_sweep.py runs the same sweep through the CLI.
"""

import pytest

from clozerank.embeddings import EmbedTrainConfig, train_static_embeddings
from clozerank.kb import ingest_dataset
from clozerank.metrics import compute_report
from clozerank.ranking import rank_oracle, rank_static
from clozerank.wordpiece import tokenize, train_wordpiece

import planted
import planted_sweep

SEEDS = (1, 2, 3)
SIZES = (150, 1000)
CONFIG = EmbedTrainConfig(dim=32, window=3, epochs=10, min_count=1, char_ngram_min=0,
                          char_ngram_max=0, seed=1)


def sweep(directory, seed):
    """Each vocabulary's report, keyed by its size, 'whole' or 'oracle'."""
    paths = planted.write(directory, seed)
    dataset = ingest_dataset(paths["triples"], paths["templates"])
    lines = paths["corpus"].read_text(encoding="utf-8").splitlines()
    whole = train_wordpiece(lines, 100000)  # more than the corpus allows: every word
    vocabs = {**{size: whole.prefix(size) for size in SIZES}, "whole": whole}
    reports = {}
    for name, vocab in vocabs.items():
        table = train_static_embeddings((tokenize(vocab, line) for line in lines), vocab,
                                        CONFIG)
        reports[name] = compute_report(rank_static(table, vocab, dataset),
                                       dataset, vocab=vocab)
    reports["oracle"] = compute_report(rank_oracle(dataset), dataset)
    return reports


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    return {seed: sweep(tmp_path_factory.mktemp(f"planted{seed}"), seed) for seed in SEEDS}


def test_generator_is_seeded_and_shaped():
    lines, triples, templates = planted.generate(7)
    assert (lines, triples, templates) == planted.generate(7)
    assert lines != planted.generate(8)[0]
    assert len(templates) == 5 and len(triples) == 100
    assert len(lines) == 100 * 4 + 50 * 6 and all(len(line.split()) == 3 for line in lines)
    for row in triples:  # subjects and objects share contexts, never a line
        assert not any({row["sub_label"], row["obj_label"]} <= set(line.split())
                       for line in lines)


def test_larger_vocabulary_ranks_planted_facts_better(reports):
    p1 = {name: [reports[seed][name].macro_p1 for seed in SEEDS]
          for name in (*SIZES, "whole", "oracle")}
    assert sum(p1[1000]) / len(SEEDS) >= sum(p1[150]) / len(SEEDS) + 0.1, p1
    for whole, size_1000, oracle in zip(p1["whole"], p1[1000], p1["oracle"]):
        assert whole >= size_1000 + 0.3 and whole >= oracle + 0.3, p1
    # At size 1000, subjects kept whole beat subjects split into pieces, pooled.
    hits, counts = [0, 0], [0, 0]
    for seed in SEEDS:
        for length, row in reports[seed][1000].buckets.items():
            hits[length > 1] += round(row["n"] * row["p1"])
            counts[length > 1] += row["n"]
    assert hits[0] / counts[0] > hits[1] / counts[1], (hits, counts)


def test_cli_sweep_reports_the_library_numbers(reports, tmp_path):
    # The CLI ranks from .vec tables, which hold 5 decimals: each p@1 must still
    # match the library's, to the 4 decimals report.tsv prints.
    rows = planted_sweep.sweep(tmp_path, 1)
    assert {model: p1 for model, _, p1, _ in rows} == {
        str(name): f"{report.macro_p1:.4f}" for name, report in reports[1].items()}
