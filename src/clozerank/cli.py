"""Pipeline driver: subcommands over the library modules.

Every command reads an optional JSON config file (flags win over config
values), writes its artifacts plus a manifest of input checksums under the
output directory, and exits nonzero with a JSON error record on stderr when
anything goes wrong. Reruns with identical inputs produce byte-identical
artifacts: nothing here embeds timestamps or machine state.

Each command imports the library modules it runs, so it loads only what it
uses, and main runs it with the cyclic garbage collector off.
"""

import argparse
import gc
import hashlib
import json
import sys
from pathlib import Path

from . import jsonio, wordpiece


class RunContext:
    """One command run: its flags, config file and output directory.

    A setting is the flag if given, else the same-named config key typed like
    the flag, else the default. A config key must name a flag of some command,
    so one config file can serve several. The manifest that finish() writes
    lists every path read through input() or vocab() and written through output().
    Used as a context manager, a run that fails removes the output directories
    it created, as long as they are still empty.
    """

    def __init__(self, args):
        self.args = args
        self.config = {} if args.config is None else jsonio.read_json(args.config)
        self.settings, self.inputs, self.outputs = {}, [], []
        self.created = []  # the directories output() made, innermost first
        unknown = sorted(self.config.keys() - args.config_keys)
        if unknown:
            raise ValueError(f"{args.config}: config key {unknown[0]!r} must be a setting "
                             "of a clozerank command")
        for key in sorted(args.flags.keys() & self.config.keys()):  # typed like its flag
            flag, value = args.flags[key], self.config[key]
            # Neither a store_true flag (nargs 0) nor a string flag has a type.
            kind = flag.type or (bool if flag.nargs == 0 else str)
            items = value if flag.nargs and isinstance(value, list) else [value]
            kinds = (int, float) if kind is float else kind
            # bool subclasses int, so true and false fit only a store_true flag.
            if not items or any(isinstance(v, bool) != (kind is bool)
                                or not isinstance(v, kinds) for v in items):
                raise ValueError(f"{args.config}: config key {key!r} must be "
                                 f"{'one or more ' if flag.nargs else ''}{kind.__name__}, "
                                 f"like {flag.option_strings[0]}")
            self.config[key] = list(map(kind, items)) if flag.nargs else kind(value)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is not None:
            for directory in self.created:
                try:
                    directory.rmdir()  # fails on a directory that holds anything
                except OSError:
                    break

    def get(self, key, default=None):
        value = getattr(self.args, key, None)
        return value if value is not None else self.config.get(key, default)

    def given(self, *keys) -> dict:
        """The settings among keys that a flag or the config sets."""
        return {key: self.get(key) for key in keys if self.get(key) is not None}

    def require(self, key):
        value = self.get(key)
        if value is None:
            raise ValueError(f"missing required setting {key!r} (flag or config)")
        return value

    def input(self, key, required=True):
        """The path setting key, recorded in the settings and, if set, hashed."""
        path = self.settings[key] = self.require(key) if required else self.get(key)
        if path is not None:
            self.inputs.append(path)
        return path

    def vocab(self, required=True):
        """The vocabulary the vocab setting names, or None."""
        path = self.input("vocab", required)
        return None if path is None else wordpiece.SubwordVocab.load(path)

    def output(self, name: str) -> Path:
        """The path of artifact name under --output, which is created on first use."""
        out = Path(self.get("output", "."))
        if not out.is_dir():
            self.created = [d for d in (out, *out.parents) if not d.exists()]
            out.mkdir(parents=True)
        self.outputs.append(out / name)
        return out / name

    def dataset(self):
        """The KB cut to subset; a kept relation keeps its candidate set from the whole KB."""
        from . import kb
        triples = self.input("triples")
        dataset = kb.ingest_dataset(triples, self.input("templates"))
        subset = self.input("subset", required=False)
        if subset is not None:
            dataset, unknown = kb.apply_subset(dataset, kb.read_subset_ids(subset))
            if unknown:
                print(f"subset list has {unknown} ids not present in the dataset",
                      file=sys.stderr)
        if dataset.n_triples == 0:
            raise ValueError(f"{subset or triples}: the run keeps no triple of the KB")
        return dataset

    def finish(self, message: str, **settings) -> int:
        """Write the manifest, the run's one record of its settings and inputs.

        settings are those that name no path; input() recorded the others.
        """
        command = self.args.command
        settings = {**self.settings, **settings}
        canonical = json.dumps({"command": command, "settings": settings},
                               sort_keys=True, separators=(",", ":"))
        outputs = sorted(map(str, self.outputs))
        # Manifests escape non-ASCII paths; the other JSON artifacts keep them.
        jsonio.write_json(self.output(f"{command.replace('-', '_')}_manifest.json"), {
            "command": command,
            "config_checksum": hashlib.sha256(canonical.encode("utf-8")).hexdigest(),
            "settings": settings,
            "inputs": {p: wordpiece.corpus_checksum(p)
                       for p in sorted(set(map(str, self.inputs)))},
            "outputs": outputs,
        }, ensure_ascii=True)
        print(message)
        return 0


def cmd_build_vocab(ctx: RunContext) -> int:
    corpus = ctx.input("corpus")
    sizes = ctx.require("target_size")
    for size in sizes:
        if size <= 0:
            raise ValueError(f"target_size must be positive, got {size}")
        if sizes.count(size) > 1:
            raise ValueError(f"target_size {size} is given more than once")

    # Train once: the target only decides when merging stops, so every
    # smaller vocabulary is a prefix of the largest.
    with jsonio.open_text(corpus) as f:
        trained = wordpiece.train_wordpiece(f, max(sizes))
    vocabs = [trained.prefix(size) for size in sizes]  # each size is checked before any write
    lines = []
    for size, vocab in zip(sizes, vocabs):
        vocab_path = ctx.output(f"vocab_{size}.txt")
        vocab.save(vocab_path)
        lines.append(f"vocab_{size}: {vocab.size} tokens -> {vocab_path}")
    return ctx.finish("\n".join(lines), target_size=sizes)


def cmd_tokenize(ctx: RunContext) -> int:
    vocab = ctx.vocab()
    text_path = ctx.input("input")
    with jsonio.open_text(text_path) as fin:
        out_path = ctx.output("tokens.jsonl")
        ids_per_line = (wordpiece.tokenize(vocab, line) for line in fin)
        jsonio.write_jsonl(out_path, map(jsonio.encode_row, (
            {"token_ids": ids, "tokens": vocab.ids_to_tokens(ids)} for ids in ids_per_line)))
    return ctx.finish(f"tokenized {text_path} -> {out_path}")


def cmd_train_embeddings(ctx: RunContext) -> int:
    from . import embeddings
    cfg = embeddings.EmbedTrainConfig(**ctx.given(*embeddings.EmbedTrainConfig.__slots__))
    workers = ctx.get("workers", 1)
    if workers != 1:
        raise ValueError(f"workers must be 1: training is single-threaded and "
                         f"deterministic, got {workers}")
    vocab = ctx.vocab()
    corpus = ctx.input("corpus")
    with jsonio.open_text(corpus) as f:
        table = embeddings.train_static_embeddings(
            (wordpiece.tokenize(vocab, line) for line in f), vocab, cfg)

    table_path = ctx.output("embeddings.vec")
    embeddings.save_table(table, table_path)
    return ctx.finish(f"trained {len(table)} vectors (dim {table.dim}) -> {table_path}",
                      **cfg.to_dict(), workers=workers)


def cmd_build_candidates(ctx: RunContext) -> int:
    candidates = ctx.dataset().candidates
    out_path = ctx.output("candidates.json")
    jsonio.write_json(out_path, {"candidates": candidates})
    return ctx.finish(f"{len(candidates)} candidate sets -> {out_path}")


def cmd_export_manifest(ctx: RunContext) -> int:
    from . import ranking
    dataset = ctx.dataset()
    vocab = ctx.vocab()
    out_path = ctx.output("mlm_manifest.jsonl")
    rows = ranking.export_mlm_manifest(dataset, vocab, out_path)
    return ctx.finish(f"{rows} scoring rows -> {out_path}")


def cmd_rank(ctx: RunContext) -> int:
    from . import ranking
    mode = ctx.args.mode
    # A flag that only another mode reads is an error, not ignored; a config key is not.
    reads = {"static": ("table", "vocab", "exclude_subject_match"), "mlm": ("scores", "manifest")}
    for key in sum(reads.values(), ()):
        if key not in reads.get(mode, ()) and getattr(ctx.args, key) is not None:
            raise ValueError(f"rank {mode} does not read {ctx.args.flags[key].option_strings[0]}")
    dataset = ctx.dataset()
    settings = {"mode": mode}
    if mode == "static":
        from . import embeddings
        table = embeddings.load_table(ctx.input("table"))
        vocab = ctx.vocab()
        exclude = ctx.get("exclude_subject_match", False)
        settings["exclude_subject_match"] = exclude
        predictions = ranking.rank_static(table, vocab, dataset, exclude_subject_match=exclude)
    elif mode == "oracle":
        predictions = ranking.rank_oracle(dataset)
    else:  # mlm
        predictions = ranking.rank_mlm(ctx.input("scores"), dataset,
                                       manifest_path=ctx.input("manifest", required=False))

    out_path = ctx.output(f"predictions_{mode}.jsonl")
    count = ranking.save_predictions(predictions, out_path)
    return ctx.finish(f"{count} predictions -> {out_path}", **settings)


def cmd_stub_score(ctx: RunContext) -> int:
    from . import ranking
    manifest_path, lookup_path = ctx.input("manifest"), ctx.input("lookup", required=False)
    lookup = None if lookup_path is None else ranking.read_lookup(lookup_path)
    out_path = ctx.output("stub_scores.jsonl")
    rows = ranking.write_stub_scores(manifest_path, out_path, lookup=lookup)
    return ctx.finish(f"{rows} score rows -> {out_path}")


def cmd_evaluate(ctx: RunContext) -> int:
    from . import metrics, ranking
    dataset = ctx.dataset()
    predictions = ranking.load_predictions(ctx.input("predictions"))
    vocab = ctx.vocab(required=False)
    language = ctx.get("language", "en")
    report = metrics.compute_report(predictions, dataset, vocab=vocab, language=language)

    report_path = ctx.output("metrics.json")
    report.save(report_path)
    ctx.output("per_relation.tsv").write_text(metrics.per_relation_tsv(report),
                                              encoding="utf-8")
    if report.buckets:
        ctx.output("buckets.tsv").write_text(metrics.buckets_tsv(report), encoding="utf-8")
    return ctx.finish(f"macro p1 {report.macro_p1:.4f} -> {report_path}",
                      language=language)


def cmd_energy(ctx: RunContext) -> int:
    from . import energy
    run = energy.EnergyInput(ctx.require("watts"), ctx.require("hours"))
    payload = {"run": energy.footprint(run)}

    baseline_watts, baseline_hours = ctx.get("baseline_watts"), ctx.get("baseline_hours")
    if (baseline_watts is None) != (baseline_hours is None):
        raise ValueError("baseline needs both --baseline-watts and --baseline-hours")
    if baseline_watts is not None:
        baseline = energy.EnergyInput(baseline_watts, baseline_hours)
        payload["baseline"] = energy.footprint(baseline)
        payload["ratios"] = energy.footprint_ratio(run, baseline)

    out_path = ctx.output("energy.json")
    jsonio.write_json(out_path, payload)
    return ctx.finish(f"{payload['run']['energy_kwh']:.4f} kWh, "
                      f"{payload['run']['co2e']:.4f} lb CO2e -> {out_path}",
                      watts=run.power_watts, hours=run.hours,
                      baseline_watts=baseline_watts, baseline_hours=baseline_hours)


def _parse_run_spec(spec: str) -> tuple[str, str, str | None]:
    name, _, paths = spec.partition("=")
    first, comma, second = paths.partition(",")
    # The name becomes a report.tsv cell, which a tab or line break would split.
    if not name or any(c in name for c in "\t\r\n") or not first or comma and not second:
        raise ValueError(f"run spec {spec!r} must look like NAME=metrics.json[,uhn.json]")
    return name, first, second or None


def cmd_report(ctx: RunContext) -> int:
    from . import metrics
    specs = ctx.require("run")
    lines = ["model\tvocab_size\tp1\tp1_uhn"]
    for spec in specs:
        name, full_path, uhn_path = _parse_run_spec(spec)
        full = metrics.MetricsReport.load(full_path)
        ctx.inputs.append(full_path)
        vocab_size = full.metadata.get("vocab_size", "-")
        p1_uhn = "-"
        if uhn_path:
            uhn = metrics.MetricsReport.load(uhn_path)
            ctx.inputs.append(uhn_path)
            p1_uhn = f"{uhn.macro_p1:.4f}"
        lines.append(f"{name}\t{vocab_size}\t{full.macro_p1:.4f}\t{p1_uhn}")

    out_path = ctx.output("report.tsv")
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ctx.finish(f"{len(specs)} rows -> {out_path}", run=specs)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--output", help="output directory (default .)")
    kb_inputs = argparse.ArgumentParser(add_help=False, parents=[common])
    kb_inputs.add_argument("--triples")
    kb_inputs.add_argument("--templates")
    kb_inputs.add_argument("--subset", help="file of triple ids to keep, one per line")

    parser = argparse.ArgumentParser(
        prog="clozerank",
        description="Train subword vocabularies and static embeddings, rank "
                    "typed cloze candidates, and evaluate the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", parents=[common],
                       help="train wordpiece vocabularies from a corpus")
    p.add_argument("--corpus")
    p.add_argument("--target-size", type=int, nargs="+",
                   help="one or more sizes; training runs once, to the largest")
    p.set_defaults(func=cmd_build_vocab)

    p = sub.add_parser("tokenize", parents=[common],
                       help="tokenize a text file with a saved vocabulary")
    p.add_argument("--vocab")
    p.add_argument("--input")
    p.set_defaults(func=cmd_tokenize)

    p = sub.add_parser("train-embeddings", parents=[common],
                       help="train subword skip-gram embeddings")
    p.add_argument("--vocab")
    p.add_argument("--corpus")
    p.add_argument("--dim", type=int)
    p.add_argument("--window", type=int)
    p.add_argument("--negatives", type=int)
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--min-count", type=int)
    p.add_argument("--char-ngram-min", type=int)
    p.add_argument("--char-ngram-max", type=int)
    p.add_argument("--hash-buckets", type=int)
    p.add_argument("--workers", type=int,
                   help="only 1 is accepted: training is single-threaded")
    p.add_argument("--seed", type=int, help="training seed")
    p.set_defaults(func=cmd_train_embeddings)

    p = sub.add_parser("build-candidates", parents=[kb_inputs],
                       help="emit per-relation candidate sets")
    p.set_defaults(func=cmd_build_candidates)

    p = sub.add_parser("export-manifest", parents=[kb_inputs],
                       help="emit (triple, candidate) rows for an external scorer")
    p.add_argument("--vocab")
    p.set_defaults(func=cmd_export_manifest)

    p = sub.add_parser("rank", parents=[kb_inputs],
                       help="rank candidates per triple")
    p.add_argument("mode", choices=["static", "oracle", "mlm"])
    p.add_argument("--table")
    p.add_argument("--vocab")
    p.add_argument("--exclude-subject-match", action="store_true", default=None)
    p.add_argument("--scores")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("stub-score", parents=[common],
                       help="fill a scoring manifest with deterministic values")
    p.add_argument("--manifest")
    p.add_argument("--lookup")
    p.set_defaults(func=cmd_stub_score)

    p = sub.add_parser("evaluate", parents=[kb_inputs],
                       help="compute the metric suite over predictions")
    p.add_argument("--predictions")
    p.add_argument("--vocab", help="enables subject-length buckets")
    p.add_argument("--language", help="language tag of the KB (default en)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("energy", parents=[common],
                       help="energy and CO2e accounting for a training run")
    p.add_argument("--watts", type=float)
    p.add_argument("--hours", type=float)
    p.add_argument("--baseline-watts", type=float)
    p.add_argument("--baseline-hours", type=float)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("report", parents=[common],
                       help="combine evaluation runs into one results table")
    p.add_argument("--run", action="extend", nargs="+",
                   help="NAME=metrics.json[,uhn_metrics.json]; repeatable")
    p.set_defaults(func=cmd_report)

    # Every optional flag but --help and --config types the config key of the
    # same name, and a config key must name such a flag of some command.
    flags = {p: {a.dest: a for a in p._actions
                 if a.option_strings and a.dest not in ("help", "config")}
             for p in sub.choices.values()}
    config_keys = set().union(*flags.values())
    for p, own in flags.items():
        p.set_defaults(flags=own, config_keys=config_keys)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # A command's inputs live until it exits and the rows it streams hold no
    # cycles, so collecting only costs time. The caller's state comes back.
    enabled = gc.isenabled()
    gc.disable()
    try:
        with RunContext(args) as ctx:
            return args.func(ctx)
    except Exception as exc:
        record = {
            "command": getattr(args, "command", None),
            "error": type(exc).__name__,
            "message": str(exc),
        }
        print(json.dumps(record, ensure_ascii=False, sort_keys=True), file=sys.stderr)
        return 1
    finally:
        if enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
