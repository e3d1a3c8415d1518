"""Pipeline driver: subcommands over the library modules.

Every command reads an optional JSON config file (flags win over config
values), writes its artifacts plus a manifest of input checksums under the
output directory, and exits nonzero with a JSON error record on stderr when
anything goes wrong. Reruns with identical inputs produce byte-identical
artifacts: nothing here embeds timestamps or machine state.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import embeddings, energy, kb, metrics, ranking, wordpiece


def _checksum_json(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _load_config(path) -> dict:
    if path is None:
        return {}
    with open(path, "r", encoding="utf-8") as f:
        config = json.load(f)
    if not isinstance(config, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return config


def _setting(args, config, key, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    if key in config:
        return config[key]
    return default


def _require(args, config, key):
    value = _setting(args, config, key)
    if value is None:
        raise ValueError(f"missing required setting {key!r} (flag or config)")
    return value


def _out_dir(args, config) -> Path:
    out = Path(_setting(args, config, "output", default="."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_manifest(out_dir: Path, command: str, settings: dict,
                    inputs, outputs) -> str:
    checksum = _checksum_json({"command": command, "settings": settings})
    manifest = {
        "command": command,
        "config_checksum": checksum,
        "settings": settings,
        "inputs": {str(p): wordpiece.corpus_checksum(p) for p in sorted(set(map(str, inputs)))},
        "outputs": sorted(str(o) for o in outputs),
    }
    path = out_dir / f"{command.replace('-', '_')}_manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return checksum


def _settings_checksum(command: str, settings: dict) -> str:
    return _checksum_json({"command": command, "settings": settings})


def _load_dataset(args, config):
    triples = _require(args, config, "triples")
    templates = _require(args, config, "templates")
    language = _setting(args, config, "language", default="en")
    dataset = kb.ingest_dataset(triples, templates, language_tag=language)
    inputs = [triples, templates]
    subset = _setting(args, config, "subset")
    if subset is not None:
        ids = kb.read_subset_ids(subset)
        dataset, _ = kb.apply_subset(dataset, ids)
        inputs.append(subset)
    return dataset, inputs


def cmd_build_vocab(args) -> int:
    config = _load_config(args.config)
    out_dir = _out_dir(args, config)
    corpus = _require(args, config, "corpus")
    sizes = _setting(args, config, "vocab_sizes")
    if sizes is None:
        sizes = [_require(args, config, "target_size")]
    sizes = [int(s) for s in sizes]
    min_frequency = int(_setting(args, config, "min_frequency", default=1))
    max_word_length = int(_setting(args, config, "max_word_length", default=100))

    settings = {
        "corpus": str(corpus), "vocab_sizes": sizes,
        "min_frequency": min_frequency, "max_word_length": max_word_length,
    }
    checksum = _settings_checksum("build-vocab", settings)
    outputs = []
    for size in sizes:
        cfg = wordpiece.VocabTrainConfig(
            target_size=size, min_frequency=min_frequency,
            max_word_length=max_word_length,
        )
        with open(corpus, "r", encoding="utf-8") as f:
            vocab = wordpiece.train_wordpiece(f, cfg)
        vocab_path = out_dir / f"vocab_{size}.txt"
        wordpiece.save_vocab_with_sidecar(
            vocab, cfg, vocab_path, corpus_path=corpus,
            extra={"config_checksum": checksum},
        )
        outputs += [vocab_path, Path(str(vocab_path) + ".json")]
        print(f"vocab_{size}: {vocab.size} tokens -> {vocab_path}")
    _write_manifest(out_dir, "build-vocab", settings, [corpus], outputs)
    return 0


def cmd_tokenize(args) -> int:
    config = _load_config(args.config)
    out_dir = _out_dir(args, config)
    vocab_path = _require(args, config, "vocab")
    text_path = _require(args, config, "input")
    vocab = wordpiece.SubwordVocab.load(vocab_path)

    settings = {"vocab": str(vocab_path), "input": str(text_path)}
    out_path = out_dir / "tokens.jsonl"
    with open(text_path, "r", encoding="utf-8") as fin, \
            open(out_path, "w", encoding="utf-8") as fout:
        for line in fin:
            ids = wordpiece.tokenize(vocab, line)
            fout.write(json.dumps({
                "token_ids": ids,
                "tokens": vocab.ids_to_tokens(ids),
            }, ensure_ascii=False) + "\n")
    _write_manifest(out_dir, "tokenize", settings, [vocab_path, text_path], [out_path])
    print(f"tokenized {text_path} -> {out_path}")
    return 0


def cmd_train_embeddings(args) -> int:
    config = _load_config(args.config)
    out_dir = _out_dir(args, config)
    vocab_path = _require(args, config, "vocab")
    corpus = _require(args, config, "corpus")
    vocab = wordpiece.SubwordVocab.load(vocab_path)

    embed_config = dict(config.get("embed", {}))
    flag_fields = {"lr": "learning_rate", "hash_buckets": "ngram_buckets"}
    for key in ("dim", "window", "negatives", "epochs", "lr", "min_count",
                "char_ngram_min", "char_ngram_max", "hash_buckets", "seed"):
        value = getattr(args, key, None)
        if value is not None:
            embed_config[flag_fields.get(key, key)] = value
    cfg = embeddings.EmbedTrainConfig(**embed_config)
    workers = int(_setting(args, config, "workers", default=1))

    settings = {
        "vocab": str(vocab_path), "corpus": str(corpus),
        "embed": cfg.to_dict(), "workers": workers,
    }
    checksum = _settings_checksum("train-embeddings", settings)

    with open(corpus, "r", encoding="utf-8") as f:
        tokenized = [wordpiece.tokenize(vocab, line) for line in f]
    table = embeddings.train_static_embeddings(tokenized, vocab, cfg, workers=workers)
    table.metadata["config_checksum"] = checksum

    table_path = out_dir / "embeddings.vec"
    meta_path = out_dir / "embeddings.vec.json"
    embeddings.save_table(table, table_path)
    embeddings.save_table_metadata(table, meta_path)
    _write_manifest(out_dir, "train-embeddings", settings,
                    [vocab_path, corpus], [table_path, meta_path])
    print(f"trained {len(table)} vectors (dim {table.dim}) -> {table_path}")
    return 0


def cmd_build_candidates(args) -> int:
    config = _load_config(args.config)
    out_dir = _out_dir(args, config)
    dataset, inputs = _load_dataset(args, config)
    candidates = kb.build_candidates(dataset)

    settings = {"inputs": [str(p) for p in inputs]}
    checksum = _settings_checksum("build-candidates", settings)
    out_path = out_dir / "candidates.json"
    payload = {
        "config_checksum": checksum,
        "candidates": {rel: list(cset) for rel, cset in candidates.items()},
    }
    out_path.write_text(json.dumps(payload, ensure_ascii=False, indent=2,
                                   sort_keys=True) + "\n", encoding="utf-8")
    _write_manifest(out_dir, "build-candidates", settings, inputs, [out_path])
    print(f"{len(candidates)} candidate sets -> {out_path}")
    return 0


def cmd_export_manifest(args) -> int:
    config = _load_config(args.config)
    out_dir = _out_dir(args, config)
    dataset, inputs = _load_dataset(args, config)
    vocab_path = _require(args, config, "vocab")
    vocab = wordpiece.SubwordVocab.load(vocab_path)
    candidates = kb.build_candidates(dataset)

    settings = {"inputs": [str(p) for p in inputs], "vocab": str(vocab_path)}
    out_path = out_dir / "mlm_manifest.jsonl"
    rows = ranking.export_mlm_manifest(dataset, candidates, vocab, out_path)
    _write_manifest(out_dir, "export-manifest", settings,
                    inputs + [vocab_path], [out_path])
    print(f"{rows} scoring rows -> {out_path}")
    return 0


def cmd_rank(args) -> int:
    config = _load_config(args.config)
    out_dir = _out_dir(args, config)
    dataset, inputs = _load_dataset(args, config)
    candidates = kb.build_candidates(dataset)
    mode = args.mode

    settings = {"mode": mode, "inputs": [str(p) for p in inputs]}
    if mode == "static":
        table_path = _require(args, config, "table")
        vocab_path = _require(args, config, "vocab")
        table = embeddings.load_table(table_path)
        vocab = wordpiece.SubwordVocab.load(vocab_path)
        exclude = bool(_setting(args, config, "exclude_subject_match", default=False))
        settings.update({"table": str(table_path), "vocab": str(vocab_path),
                         "exclude_subject_match": exclude})
        inputs += [table_path, vocab_path]
        predictions = ranking.rank_static(table, vocab, dataset, candidates,
                                          exclude_subject_match=exclude)
    elif mode == "oracle":
        predictions = ranking.rank_oracle(dataset, candidates)
    elif mode == "mlm":
        score_path = _require(args, config, "scores")
        manifest_path = _setting(args, config, "manifest")
        settings.update({"scores": str(score_path),
                         "manifest": str(manifest_path) if manifest_path else None})
        inputs.append(score_path)
        if manifest_path:
            inputs.append(manifest_path)
        predictions = ranking.rank_mlm(score_path, dataset, candidates,
                                       manifest_path=manifest_path)
    else:
        raise ValueError(f"unknown rank mode {mode!r}")

    checksum = _settings_checksum("rank", settings)
    out_path = out_dir / f"predictions_{mode}.jsonl"
    meta_path = out_dir / f"predictions_{mode}.meta.json"
    ranking.save_predictions(predictions, out_path)
    meta_path.write_text(json.dumps({
        "config_checksum": checksum,
        "mode": mode,
        "n_predictions": len(predictions),
    }, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    _write_manifest(out_dir, "rank", settings, inputs, [out_path, meta_path])
    print(f"{len(predictions)} predictions -> {out_path}")
    return 0


def cmd_stub_score(args) -> int:
    config = _load_config(args.config)
    out_dir = _out_dir(args, config)
    manifest_path = _require(args, config, "manifest")
    lookup_path = _setting(args, config, "lookup")
    lookup = None
    inputs = [manifest_path]
    if lookup_path is not None:
        with open(lookup_path, "r", encoding="utf-8") as f:
            lookup = json.load(f)
        inputs.append(lookup_path)

    settings = {"manifest": str(manifest_path),
                "lookup": str(lookup_path) if lookup_path else None}
    out_path = out_dir / "stub_scores.jsonl"
    rows = ranking.write_stub_scores(manifest_path, out_path, lookup=lookup)
    _write_manifest(out_dir, "stub-score", settings, inputs, [out_path])
    print(f"{rows} score rows -> {out_path}")
    return 0


def cmd_evaluate(args) -> int:
    config = _load_config(args.config)
    out_dir = _out_dir(args, config)
    dataset, inputs = _load_dataset(args, config)
    predictions_path = _require(args, config, "predictions")
    predictions = ranking.load_predictions(predictions_path)
    inputs.append(predictions_path)

    toggles = dict(config.get("metrics", {}))
    for key in ("p5", "mf", "diversity"):
        flag = getattr(args, f"no_{key}", False)
        if flag:
            toggles[key] = False
    vocab_path = _setting(args, config, "vocab")
    vocab = None
    if vocab_path is not None and toggles.get("buckets", True):
        vocab = wordpiece.SubwordVocab.load(vocab_path)
        inputs.append(vocab_path)

    settings = {
        "inputs": [str(p) for p in inputs],
        "predictions": str(predictions_path),
        "vocab": str(vocab_path) if vocab_path else None,
        "toggles": {k: bool(toggles.get(k, True))
                    for k in ("p5", "mf", "diversity", "buckets")},
    }
    checksum = _settings_checksum("evaluate", settings)

    report = metrics.compute_report(
        predictions, dataset, vocab=vocab,
        with_p5=toggles.get("p5", True),
        with_mf=toggles.get("mf", True),
        with_diversity=toggles.get("diversity", True),
    )
    report.metadata["config_checksum"] = checksum
    if vocab is not None:
        report.metadata["vocab_size"] = vocab.size

    report_path = out_dir / "metrics.json"
    report.save(report_path)
    rel_path = out_dir / "per_relation.tsv"
    rel_path.write_text(metrics.per_relation_tsv(report), encoding="utf-8")
    outputs = [report_path, rel_path]
    if report.buckets:
        bucket_path = out_dir / "buckets.tsv"
        bucket_path.write_text(metrics.buckets_tsv(report), encoding="utf-8")
        outputs.append(bucket_path)
    _write_manifest(out_dir, "evaluate", settings, inputs, outputs)
    print(f"macro p1 {report.macro_p1:.4f} -> {report_path}")
    return 0


def cmd_energy(args) -> int:
    config = _load_config(args.config)
    out_dir = _out_dir(args, config)
    watts = float(_require(args, config, "watts"))
    hours = float(_require(args, config, "hours"))
    pue = float(_setting(args, config, "pue", default=energy.DEFAULT_PUE))
    intensity = float(_setting(args, config, "carbon_intensity",
                               default=energy.DEFAULT_CARBON_INTENSITY))
    run = energy.EnergyInput(watts, hours, pue=pue, carbon_intensity=intensity)
    payload = {"run": energy.footprint(run)}

    baseline_watts = _setting(args, config, "baseline_watts")
    baseline_hours = _setting(args, config, "baseline_hours")
    if (baseline_watts is None) != (baseline_hours is None):
        raise ValueError("baseline needs both --baseline-watts and --baseline-hours")
    if baseline_watts is not None:
        baseline = energy.EnergyInput(float(baseline_watts), float(baseline_hours),
                                      pue=pue, carbon_intensity=intensity)
        payload["baseline"] = energy.footprint(baseline)
        payload["ratios"] = energy.footprint_ratio(run, baseline)

    settings = {
        "watts": watts, "hours": hours, "pue": pue, "carbon_intensity": intensity,
        "baseline_watts": float(baseline_watts) if baseline_watts is not None else None,
        "baseline_hours": float(baseline_hours) if baseline_hours is not None else None,
    }
    payload["config_checksum"] = _settings_checksum("energy", settings)
    out_path = out_dir / "energy.json"
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    _write_manifest(out_dir, "energy", settings, [], [out_path])
    print(f"{payload['run']['energy_kwh']:.4f} kWh, "
          f"{payload['run']['co2e']:.4f} CO2e -> {out_path}")
    return 0


def _parse_run_spec(spec: str) -> tuple[str, str, str | None]:
    name, _, paths = spec.partition("=")
    if not name or not paths:
        raise ValueError(f"run spec {spec!r} must look like NAME=metrics.json[,uhn.json]")
    first, _, second = paths.partition(",")
    return name, first, second or None


def cmd_report(args) -> int:
    config = _load_config(args.config)
    out_dir = _out_dir(args, config)
    specs = list(args.run or []) + [str(s) for s in config.get("runs", [])]
    if not specs:
        raise ValueError("no runs given; pass --run NAME=metrics.json[,uhn.json]")

    inputs = []
    lines = ["model\tvocab_size\tp1\tp1_uhn"]
    for spec in specs:
        name, full_path, uhn_path = _parse_run_spec(spec)
        full = metrics.MetricsReport.load(full_path)
        inputs.append(full_path)
        vocab_size = full.metadata.get("vocab_size", "-")
        p1_uhn = "-"
        if uhn_path:
            uhn = metrics.MetricsReport.load(uhn_path)
            inputs.append(uhn_path)
            p1_uhn = f"{uhn.macro_p1:.4f}"
        lines.append(f"{name}\t{vocab_size}\t{full.macro_p1:.4f}\t{p1_uhn}")

    settings = {"runs": specs}
    out_path = out_dir / "report.tsv"
    out_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    _write_manifest(out_dir, "report", settings, inputs, [out_path])
    print(f"{len(specs)} rows -> {out_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--output", help="output directory (default .)")
    common.add_argument("--seed", type=int, help="training seed")
    common.add_argument("--deterministic", action="store_true",
                        help="accepted for compatibility; a no-op, since every "
                             "command is already single-threaded and deterministic")

    parser = argparse.ArgumentParser(
        prog="clozerank",
        description="Train subword vocabularies and static embeddings, rank "
                    "typed cloze candidates, and evaluate the results.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-vocab", parents=[common],
                       help="train wordpiece vocabularies from a corpus")
    p.add_argument("--corpus")
    p.add_argument("--target-size", dest="target_size", type=int)
    p.add_argument("--vocab-sizes", dest="vocab_sizes", type=int, nargs="+")
    p.add_argument("--min-frequency", dest="min_frequency", type=int)
    p.add_argument("--max-word-length", dest="max_word_length", type=int)
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
    p.add_argument("--lr", type=float)
    p.add_argument("--min-count", dest="min_count", type=int)
    p.add_argument("--char-ngram-min", dest="char_ngram_min", type=int)
    p.add_argument("--char-ngram-max", dest="char_ngram_max", type=int)
    p.add_argument("--hash-buckets", dest="hash_buckets", type=int)
    p.add_argument("--workers", type=int,
                   help="only 1 is accepted: training is single-threaded")
    p.set_defaults(func=cmd_train_embeddings)

    p = sub.add_parser("build-candidates", parents=[common],
                       help="emit per-relation candidate sets")
    p.add_argument("--triples")
    p.add_argument("--templates")
    p.add_argument("--subset")
    p.set_defaults(func=cmd_build_candidates)

    p = sub.add_parser("export-manifest", parents=[common],
                       help="emit (triple, candidate) rows for an external scorer")
    p.add_argument("--triples")
    p.add_argument("--templates")
    p.add_argument("--subset")
    p.add_argument("--vocab")
    p.set_defaults(func=cmd_export_manifest)

    p = sub.add_parser("rank", parents=[common],
                       help="rank candidates per triple")
    p.add_argument("mode", choices=["static", "oracle", "mlm"])
    p.add_argument("--triples")
    p.add_argument("--templates")
    p.add_argument("--subset")
    p.add_argument("--table")
    p.add_argument("--vocab")
    p.add_argument("--exclude-subject-match", dest="exclude_subject_match",
                   action="store_true", default=None)
    p.add_argument("--scores")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("stub-score", parents=[common],
                       help="fill a scoring manifest with deterministic values")
    p.add_argument("--manifest")
    p.add_argument("--lookup")
    p.set_defaults(func=cmd_stub_score)

    p = sub.add_parser("evaluate", parents=[common],
                       help="compute the metric suite over predictions")
    p.add_argument("--predictions")
    p.add_argument("--triples")
    p.add_argument("--templates")
    p.add_argument("--subset")
    p.add_argument("--vocab", help="enables subject-length buckets")
    p.add_argument("--no-p5", action="store_true")
    p.add_argument("--no-mf", action="store_true")
    p.add_argument("--no-diversity", action="store_true")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("energy", parents=[common],
                       help="energy and CO2e accounting for a training run")
    p.add_argument("--watts", type=float)
    p.add_argument("--hours", type=float)
    p.add_argument("--pue", type=float)
    p.add_argument("--carbon-intensity", dest="carbon_intensity", type=float)
    p.add_argument("--baseline-watts", dest="baseline_watts", type=float)
    p.add_argument("--baseline-hours", dest="baseline_hours", type=float)
    p.set_defaults(func=cmd_energy)

    p = sub.add_parser("report", parents=[common],
                       help="combine evaluation runs into one results table")
    p.add_argument("--run", action="append",
                   help="NAME=metrics.json[,uhn_metrics.json]; repeatable")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        record = {
            "command": getattr(args, "command", None),
            "error": type(exc).__name__,
            "message": str(exc),
        }
        print(json.dumps(record, ensure_ascii=False, sort_keys=True), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
