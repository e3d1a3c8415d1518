"""The planted-fact vocabulary sweep, run through the clozerank CLI.

Usage (from the repository root):

    PYTHONPATH=src python3 tests/planted_sweep.py OUT_DIR [SEED ...]

Seeds default to 1 2 3. For each seed, planted.write puts the KB and corpus
under OUT_DIR/seed<N>, build-vocab trains one vocabulary and cuts sizes 150,
1000 and 100000 (more than the corpus allows: every word), and each size runs
train-embeddings, rank static and evaluate --vocab; rank oracle and evaluate
give the frequency baseline, and report collects the runs into report.tsv.
Training uses dim 32, window 3, 10 epochs, min_count 1, n-grams off, seed 1.

OUT_DIR/sweep.tsv holds one row per seed and model: seed, model, vocab_size,
p1 and the wall seconds of train-embeddings ("-" for the oracle). Only
sweep.tsv holds a timing, so every command's --output is the same bytes on a
rerun.
"""

import sys
import time
from pathlib import Path

import numpy  # noqa: F401  imported here, so that no size's seconds hold its import

from clozerank import cli

import planted

SIZES = {150: "150", 1000: "1000", 100000: "whole"}
TRAIN = ("--dim", 32, "--window", 3, "--epochs", 10, "--min-count", 1,
         "--char-ngram-min", 0, "--char-ngram-max", 0, "--seed", 1)


def run(*argv) -> None:
    if cli.main([str(a) for a in argv]) != 0:
        raise RuntimeError(f"clozerank {' '.join(map(str, argv))} failed")


def sweep(directory, seed: int) -> list[tuple[str, str, str, str]]:
    """Run one seed's sweep under directory; return its report rows as
    (model, vocab_size, p1, train-embeddings seconds)."""
    directory = Path(directory)
    paths = planted.write(directory, seed)
    kb = ("--triples", paths["triples"], "--templates", paths["templates"])
    run("build-vocab", "--corpus", paths["corpus"], "--target-size", *SIZES,
        "--output", directory / "vocab")
    specs, seconds = [], {}
    for size, model in SIZES.items():
        vocab, out = directory / "vocab" / f"vocab_{size}.txt", directory / model
        started = time.perf_counter()
        run("train-embeddings", "--vocab", vocab, "--corpus", paths["corpus"], *TRAIN,
            "--output", out)
        seconds[model] = f"{time.perf_counter() - started:.2f}"
        run("rank", "static", *kb, "--table", out / "embeddings.vec", "--vocab", vocab,
            "--output", out)
        run("evaluate", *kb, "--predictions", out / "predictions_static.jsonl",
            "--vocab", vocab, "--output", out)
        specs.append(f"{model}={out / 'metrics.json'}")
    out = directory / "oracle"
    run("rank", "oracle", *kb, "--output", out)
    run("evaluate", *kb, "--predictions", out / "predictions_oracle.jsonl", "--output", out)
    specs.append(f"oracle={out / 'metrics.json'}")
    run("report", "--run", *specs, "--output", directory)
    lines = (directory / "report.tsv").read_text(encoding="utf-8").splitlines()[1:]
    return [(model, vocab_size, p1, seconds.get(model, "-"))
            for model, vocab_size, p1, _ in (line.split("\t") for line in lines)]


def main(argv) -> int:
    out_dir, *seeds = argv
    lines = ["seed\tmodel\tvocab_size\tp1\ttrain_s"]
    for seed in map(int, seeds or (1, 2, 3)):
        lines += ["\t".join((str(seed), *row))
                  for row in sweep(Path(out_dir) / f"seed{seed}", seed)]
    table = "\n".join(lines) + "\n"
    (Path(out_dir) / "sweep.tsv").write_text(table, encoding="utf-8")
    print(table, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
