import gc
import hashlib
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from clozerank import kb, wordpiece
from clozerank.cli import main
from clozerank.wordpiece import SubwordVocab

from conftest import FIXTURES

MINI = {
    "triples": str(FIXTURES / "mini_triples.jsonl"),
    "templates": str(FIXTURES / "mini_templates.jsonl"),
    "vocab": str(FIXTURES / "mini_vocab.txt"),
    "table": str(FIXTURES / "mini_table.vec"),
    "lookup": str(FIXTURES / "mini_stub_lookup.json"),
    "uhn_ids": str(FIXTURES / "mini_uhn_ids.txt"),
}

# Hand-checked macro p@1 values for the bundled fixture, relation order
# P103, P106, P19.
STATIC_MACRO_P1 = (5 / 6 + 4 / 6 + 3 / 6) / 3
ORACLE_MACRO_P1 = (3 / 6 + 4 / 6 + 2 / 6) / 3
STATIC_UHN_MACRO_P1 = (3 / 4 + 3 / 4 + 2 / 4) / 3


def run_cli(args):
    return main([str(a) for a in args])


def read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def rank_static(out_dir, subset=None):
    args = ["rank", "static", "--triples", MINI["triples"],
            "--templates", MINI["templates"], "--table", MINI["table"],
            "--vocab", MINI["vocab"], "--output", out_dir]
    if subset:
        args += ["--subset", subset]
    assert run_cli(args) == 0
    return out_dir / "predictions_static.jsonl"


def evaluate(out_dir, predictions, subset=None, extra=()):
    args = ["evaluate", "--predictions", predictions,
            "--triples", MINI["triples"], "--templates", MINI["templates"],
            "--vocab", MINI["vocab"], "--output", out_dir, *extra]
    if subset:
        args += ["--subset", subset]
    assert run_cli(args) == 0
    return out_dir / "metrics.json"


class TestBuildVocab:
    def test_artifacts_and_manifest(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("ab ab ab b\nab cab bc\nbc bc cab\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["build-vocab", "--corpus", corpus,
                        "--target-size", "8", "10", "--output", out]) == 0
        manifest = read_json(out / "build_vocab_manifest.json")
        for size in (8, 10):
            vocab_path = out / f"vocab_{size}.txt"
            assert vocab_path.exists()
            assert not (out / f"vocab_{size}.txt.json").exists()
        digest = hashlib.sha256(corpus.read_bytes()).hexdigest()
        assert manifest["inputs"][str(corpus)] == digest
        assert manifest["command"] == "build-vocab"

    def test_sweep_hashes_the_corpus_once(self, tmp_path, monkeypatch):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("ab ab ab b\nab cab bc\nbc bc cab\n", encoding="utf-8")
        calls = []
        checksum = wordpiece.corpus_checksum
        monkeypatch.setattr(wordpiece, "corpus_checksum",
                            lambda path: calls.append(path) or checksum(path))
        out = tmp_path / "out"
        assert run_cli(["build-vocab", "--corpus", corpus,
                        "--target-size", "8", "9", "10", "--output", out]) == 0
        assert calls == [str(corpus)]

    def test_target_size_single(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("xy xy yx\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["build-vocab", "--corpus", corpus,
                        "--target-size", "7", "--output", out]) == 0
        assert (out / "vocab_7.txt").exists()

    def test_tokenize_keeps_the_trained_max_word_length(self, tmp_path):
        """A word of 100 characters is split, one of 101 is [UNK], as in BERT."""
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("ab ba abab\n", encoding="utf-8")
        text = tmp_path / "text.txt"
        text.write_text("ab" * 50 + "\n" + "ab" * 50 + "a\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["build-vocab", "--corpus", corpus, "--target-size", "8",
                        "--output", out]) == 0
        assert run_cli(["tokenize", "--vocab", out / "vocab_8.txt",
                        "--input", text, "--output", out]) == 0
        rows = [json.loads(line) for line in
                (out / "tokens.jsonl").read_text(encoding="utf-8").splitlines()]
        assert "".join(rows[0]["tokens"]).replace("##", "") == "ab" * 50
        assert rows[1]["tokens"] == ["[UNK]"]


class TestTokenize:
    def test_rows_carry_ids_and_tokens(self, tmp_path):
        text = tmp_path / "text.txt"
        text.write_text("anna maria\nkenji\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["tokenize", "--vocab", MINI["vocab"],
                        "--input", text, "--output", out]) == 0
        vocab = SubwordVocab.load(MINI["vocab"])
        rows = [json.loads(line) for line in
                (out / "tokens.jsonl").read_text(encoding="utf-8").splitlines()]
        assert rows[0]["tokens"] == ["anna", "maria"]
        assert rows[0]["token_ids"] == [vocab.token_to_id[t] for t in ("anna", "maria")]
        assert rows[1]["tokens"] == ["kenji"]


def write_tiny_training_setup(tmp_path):
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("[UNK]\n[MASK]\nt1\nt2\n", encoding="utf-8")
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("t1 t2\n" * 30, encoding="utf-8")
    return vocab, corpus


class TestTrainEmbeddings:
    def train_args(self, vocab, corpus, out, extra=()):
        return ["train-embeddings", "--vocab", vocab, "--corpus", corpus,
                "--output", out, "--dim", "8", "--epochs", "1",
                "--min-count", "1", "--char-ngram-min", "0",
                "--char-ngram-max", "0", "--seed", "3", *extra]

    def test_artifacts(self, tmp_path):
        vocab, corpus = write_tiny_training_setup(tmp_path)
        out = tmp_path / "out"
        assert run_cli(self.train_args(vocab, corpus, out)) == 0
        header = (out / "embeddings.vec").read_text(encoding="utf-8").splitlines()[0]
        assert header == "2 8"
        manifest = read_json(out / "train_embeddings_manifest.json")
        assert manifest["outputs"] == [str(out / "embeddings.vec")]
        assert manifest["settings"]["learning_rate"] == 0.05

    def test_learning_rate_flag_reaches_the_trainer(self, tmp_path, monkeypatch):
        from clozerank import embeddings
        vocab, corpus = write_tiny_training_setup(tmp_path)
        out, rates, trainer = tmp_path / "out", [], embeddings.train_static_embeddings

        def train(corpus, vocab, cfg):
            rates.append(cfg.learning_rate)
            return trainer(corpus, vocab, cfg)

        monkeypatch.setattr(embeddings, "train_static_embeddings", train)
        assert run_cli(self.train_args(vocab, corpus, out,
                                       extra=["--learning-rate", "0.1"])) == 0
        assert rates == [0.1]
        manifest = read_json(out / "train_embeddings_manifest.json")
        assert manifest["settings"]["learning_rate"] == 0.1

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_learning_rate_fails_before_reading(self, tmp_path, capsys, value):
        missing = tmp_path / "missing.txt"
        assert run_cli(self.train_args(missing, missing, tmp_path / "out",
                                       extra=["--learning-rate", value])) == 1
        assert cli_error(capsys)["message"] == (
            f"learning_rate must be positive and finite, got {value}")
        assert not (tmp_path / "out").exists()

    def test_deterministic_runs_are_byte_identical(self, tmp_path):
        vocab, corpus = write_tiny_training_setup(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert run_cli(self.train_args(vocab, corpus, out)) == 0
        assert (out1 / "embeddings.vec").read_bytes() \
            == (out2 / "embeddings.vec").read_bytes()

    def test_min_count_above_every_piece_count_creates_nothing(self, tmp_path, capsys):
        vocab, corpus = write_tiny_training_setup(tmp_path)  # each piece occurs 30 times
        out = tmp_path / "out"
        assert run_cli(self.train_args(vocab, corpus, out, extra=["--min-count", "31"])) == 1
        record = cli_error(capsys)
        assert (record["error"], record["message"]) == ("ValueError",
                                                        "no token reaches min_count=31")
        assert not out.exists()


class TestBuildCandidates:
    def test_candidate_file(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli(["build-candidates", "--triples", MINI["triples"],
                        "--templates", MINI["templates"], "--output", out]) == 0
        payload = read_json(out / "candidates.json")
        assert payload["candidates"] == {
            "P103": ["french", "german", "italian"],
            "P106": ["actor", "singer", "writer"],
            "P19": ["berlin", "paris", "rome"],
        }
        assert list(payload) == ["candidates"]


class TestStaticPipeline:
    def test_rank_writes_predictions_and_manifest(self, tmp_path):
        preds_path = rank_static(tmp_path)
        rows = preds_path.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 18
        manifest = read_json(tmp_path / "rank_manifest.json")
        assert manifest["outputs"] == [str(preds_path)]
        for path in (MINI["triples"], MINI["templates"], MINI["table"],
                     MINI["vocab"]):
            assert path in manifest["inputs"]

    def test_evaluate_reproduces_hand_values(self, tmp_path):
        preds_path = rank_static(tmp_path)
        metrics_path = evaluate(tmp_path, preds_path)
        report = read_json(metrics_path)
        assert report["macro_p1"] == STATIC_MACRO_P1
        assert report["macro_p5"] == 1.0
        assert report["p1_mf"] == (1.0 + 1.0 + 0.5) / 3
        assert report["relations_dropped_by_mf"] == 0
        assert report["buckets"] == {
            "1": {"n": 8, "p1": 0.5},
            "2": {"n": 6, "p1": 5 / 6},
            "3": {"n": 4, "p1": 0.75},
        }
        counts = {"actor": 2, "berlin": 2, "french": 2, "german": 3,
                  "italian": 1, "paris": 2, "rome": 2, "singer": 2, "writer": 2}
        entropy = -sum(n / 18 * math.log2(n / 18)
                       for _, n in sorted(counts.items()))
        assert report["entropy_bits"] == pytest.approx(entropy, abs=1e-12)
        assert report["avg_distinct_predictions"] == 3.0
        assert report["metadata"]["vocab_size"] == 24
        assert (tmp_path / "per_relation.tsv").exists()
        assert (tmp_path / "buckets.tsv").exists()

    def test_evaluate_is_byte_stable(self, tmp_path):
        preds_path = rank_static(tmp_path)
        a = evaluate(tmp_path / "a", preds_path)
        b = evaluate(tmp_path / "b", preds_path)
        assert a.read_bytes() == b.read_bytes()

    def test_subset_run(self, tmp_path):
        preds_path = rank_static(tmp_path, subset=MINI["uhn_ids"])
        rows = preds_path.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 12
        report = read_json(evaluate(tmp_path, preds_path,
                                    subset=MINI["uhn_ids"]))
        assert report["macro_p1"] == STATIC_UHN_MACRO_P1


class TestOraclePipeline:
    def test_oracle_macro(self, tmp_path):
        assert run_cli(["rank", "oracle", "--triples", MINI["triples"],
                        "--templates", MINI["templates"],
                        "--output", tmp_path]) == 0
        report = read_json(evaluate(
            tmp_path, tmp_path / "predictions_oracle.jsonl"))
        assert report["macro_p1"] == ORACLE_MACRO_P1


class TestMlmPipeline:
    def test_stub_scored_ranking(self, tmp_path):
        assert run_cli(["export-manifest", "--triples", MINI["triples"],
                        "--templates", MINI["templates"],
                        "--vocab", MINI["vocab"], "--output", tmp_path]) == 0
        manifest = tmp_path / "mlm_manifest.jsonl"
        assert len(manifest.read_text(encoding="utf-8").splitlines()) == 54

        assert run_cli(["stub-score", "--manifest", manifest,
                        "--lookup", MINI["lookup"], "--output", tmp_path]) == 0
        scores = tmp_path / "stub_scores.jsonl"
        assert len(scores.read_text(encoding="utf-8").splitlines()) == 54

        assert run_cli(["rank", "mlm", "--triples", MINI["triples"],
                        "--templates", MINI["templates"], "--scores", scores,
                        "--manifest", manifest, "--output", tmp_path]) == 0
        preds = {}
        for line in (tmp_path / "predictions_mlm.jsonl").read_text(
                encoding="utf-8").splitlines():
            row = json.loads(line)
            preds[row["triple_id"]] = [c for c, _ in row["ranked"]]
        assert preds["P103#2"][0] == "german"
        assert preds["P19#1"][0] == "paris"
        assert preds["P106#3"][0] == "writer"
        assert preds["P103#0"][0] == "french"

        report = read_json(evaluate(tmp_path,
                                    tmp_path / "predictions_mlm.jsonl"))
        assert report["macro_p1"] == pytest.approx(5 / 6, rel=1e-12)

    @pytest.mark.parametrize("lookup, unused", [
        ({"P19#99": {"rome": [-0.5]}}, "1 lookup pairs match no manifest row: ('P19#99', 'rome')"),
        ({"P19#0": {"madrid": [-0.1], "rome": [-0.5]}},
         "1 lookup pairs match no manifest row: ('P19#0', 'madrid')"),
        ({"P19#99": {"rome": [-0.5]}, "P19#0": {"madrid": [-0.1]}},
         "2 lookup pairs match no manifest row: ('P19#0', 'madrid'), ('P19#99', 'rome')"),
    ], ids=["unknown-triple", "unknown-candidate", "both"])
    def test_lookup_pair_without_manifest_row_exits_1(self, tmp_path, capsys, lookup, unused):
        manifest, scores = export_and_stub_score(tmp_path)
        earlier = scores.read_bytes()
        path = tmp_path / "lookup.json"
        path.write_text(json.dumps(lookup), encoding="utf-8")
        assert run_cli(["stub-score", "--manifest", manifest, "--lookup", path,
                        "--output", tmp_path]) == 1
        assert cli_error(capsys) == {"command": "stub-score", "error": "ValueError",
                                     "message": unused}
        assert scores.read_bytes() == earlier
        assert not (tmp_path / "stub_scores.jsonl.part").exists()


class TestEnergyCommand:
    def test_run_with_baseline(self, tmp_path):
        assert run_cli(["energy", "--watts", "618", "--hours", "5",
                        "--baseline-watts", "12041", "--baseline-hours", "79",
                        "--output", tmp_path]) == 0
        payload = read_json(tmp_path / "energy.json")
        assert payload["run"]["energy_kwh"] == pytest.approx(4.8822, abs=1e-9)
        assert payload["baseline"]["energy_kwh"] == pytest.approx(1502.9576,
                                                                  abs=1e-3)
        assert payload["ratios"]["kwh_ratio"] == pytest.approx(
            4.8822 / 1502.95762, rel=1e-6)
        assert (tmp_path / "energy_manifest.json").exists()

    def test_run_without_baseline(self, tmp_path):
        assert run_cli(["energy", "--watts", "618", "--hours", "5",
                        "--output", tmp_path]) == 0
        payload = read_json(tmp_path / "energy.json")
        assert "ratios" not in payload
        # PUE and grid intensity are fixed, and energy.json still records them.
        assert (payload["run"]["pue"], payload["run"]["carbon_intensity"]) == (1.58, 0.954)
        settings = read_json(tmp_path / "energy_manifest.json")["settings"]
        assert "pue" not in settings and "carbon_intensity" not in settings

    @pytest.mark.parametrize("watts, hours, message", [
        ("nan", "5", "power_watts must be positive and finite, got nan"),
        ("inf", "5", "power_watts must be positive and finite, got inf"),
        ("618", "nan", "hours must be non-negative and finite, got nan"),
        ("1e308", "1e308", "{out}/energy.json: Out of range float values are not JSON compliant"),
    ], ids=["nan-watts", "inf-watts", "nan-hours", "overflow"])
    def test_non_finite_run_writes_nothing(self, tmp_path, capsys, watts, hours, message):
        out = tmp_path / "out"
        assert run_cli(["energy", "--watts", watts, "--hours", hours, "--output", out]) == 1
        assert cli_error(capsys)["message"].startswith(message.format(out=out))
        assert not out.exists()

    def test_half_baseline_rejected(self, tmp_path, capsys):
        rc = run_cli(["energy", "--watts", "618", "--hours", "5",
                      "--baseline-watts", "12041", "--output", tmp_path])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["command"] == "energy"
        assert "baseline" in record["message"]


class TestReportCommand:
    def test_table_layout(self, tmp_path):
        full_preds = rank_static(tmp_path / "full")
        evaluate(tmp_path / "full", full_preds)
        uhn_preds = rank_static(tmp_path / "uhn", subset=MINI["uhn_ids"])
        evaluate(tmp_path / "uhn", uhn_preds, subset=MINI["uhn_ids"])

        out = tmp_path / "combined"
        spec = (f"static={tmp_path / 'full' / 'metrics.json'},"
                f"{tmp_path / 'uhn' / 'metrics.json'}")
        assert run_cli(["report", "--run", spec, "--output", out]) == 0
        lines = (out / "report.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "model\tvocab_size\tp1\tp1_uhn"
        assert lines[1] == "static\t24\t0.6667\t0.6667"

    def test_runs_required(self, tmp_path, capsys):
        assert run_cli(["report", "--output", tmp_path]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["command"] == "report"

    @pytest.mark.parametrize("spec", ["static", "=metrics.json", "static=",
                                      "static=,metrics.json", "static=metrics.json,",
                                      "a\tb=metrics.json", "x\ny=metrics.json"])
    def test_spec_needs_name_and_path(self, tmp_path, capsys, spec):
        out = tmp_path / "out"
        assert run_cli(["report", "--run", spec, "--output", out]) == 1
        assert cli_error(capsys)["message"] == (
            f"run spec {spec!r} must look like NAME=metrics.json[,uhn.json]")
        assert not out.exists()


class TestErrorHandling:
    def test_missing_input_yields_json_error(self, tmp_path, capsys):
        rc = run_cli(["rank", "static", "--triples", MINI["triples"],
                      "--templates", MINI["templates"],
                      "--table", tmp_path / "missing.vec",
                      "--vocab", MINI["vocab"], "--output", tmp_path])
        assert rc == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["command"] == "rank"
        assert record["error"]
        assert "missing.vec" in record["message"]

    def test_missing_setting_names_the_key(self, tmp_path, capsys):
        assert run_cli(["rank", "static", "--triples", MINI["triples"],
                        "--templates", MINI["templates"],
                        "--output", tmp_path]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "table" in record["message"]


class TestRankModeFlags:
    """rank rejects a flag that only another mode reads, before it reads any input."""

    @pytest.mark.parametrize("mode, own, other, flag", [
        ("oracle", [], ["--exclude-subject-match"], "--exclude-subject-match"),
        ("oracle", [], ["--table", "missing.vec"], "--table"),
        ("oracle", [], ["--scores", "missing.jsonl"], "--scores"),
        ("mlm", ["--scores", "missing.jsonl"], ["--exclude-subject-match"],
         "--exclude-subject-match"),
        ("mlm", ["--scores", "missing.jsonl"], ["--vocab", MINI["vocab"]], "--vocab"),
        ("static", ["--table", MINI["table"], "--vocab", MINI["vocab"]],
         ["--manifest", "missing.jsonl"], "--manifest"),
    ], ids=["oracle-exclude", "oracle-table", "oracle-scores", "mlm-exclude",
            "mlm-vocab", "static-manifest"])
    def test_other_mode_flag_rejected(self, tmp_path, capsys, mode, own, other, flag):
        out = tmp_path / "out"
        assert run_cli(["rank", mode, "--triples", tmp_path / "missing.jsonl",
                        "--templates", MINI["templates"], *own, *other,
                        "--output", out]) == 1
        assert cli_error(capsys) == {"command": "rank", "error": "ValueError",
                                     "message": f"rank {mode} does not read {flag}"}
        assert not out.exists()

    def test_config_keys_of_other_modes_still_serve(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"table": MINI["table"], "vocab": MINI["vocab"],
                                      "exclude_subject_match": True,
                                      "scores": "missing.jsonl"}), encoding="utf-8")
        assert run_cli(["rank", "oracle", "--config", config, "--triples", MINI["triples"],
                        "--templates", MINI["templates"], "--output", tmp_path]) == 0
        assert read_json(tmp_path / "rank_manifest.json")["settings"] == {
            "mode": "oracle", "subset": None, "templates": MINI["templates"],
            "triples": MINI["triples"]}


class TestGarbageCollector:
    """main runs a command with the cyclic collector off and then restores the caller's state."""

    @pytest.mark.parametrize("caller_enabled", [True, False])
    @pytest.mark.parametrize("fails", [False, True])
    def test_collector_off_while_the_command_runs(self, tmp_path, monkeypatch,
                                                  caller_enabled, fails):
        seen, ingest = [], kb.ingest_dataset

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            if fails:
                raise ValueError("ingest failed")
            return ingest(*args, **kwargs)

        monkeypatch.setattr(kb, "ingest_dataset", recording)
        was_enabled = gc.isenabled()
        gc.enable() if caller_enabled else gc.disable()
        try:
            code = run_cli(["build-candidates", "--triples", MINI["triples"],
                            "--templates", MINI["templates"], "--output", tmp_path])
            after = gc.isenabled()
        finally:
            gc.enable() if was_enabled else gc.disable()
        assert (code, seen, after) == (1 if fails else 0, [False], caller_enabled)


class TestConfigFile:
    def test_config_supplies_settings(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"watts": 100, "hours": 2}),
                          encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["energy", "--config", config, "--output", out]) == 0
        assert read_json(out / "energy.json")["run"]["power_watts"] == 100

    def test_flags_override_config(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"watts": 100, "hours": 2}),
                          encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["energy", "--config", config, "--watts", "618",
                        "--output", out]) == 0
        payload = read_json(out / "energy.json")
        assert payload["run"]["power_watts"] == 618
        assert payload["run"]["hours"] == 2

    def test_one_config_serves_several_commands(self, tmp_path):
        # table and vocab are rank flags; evaluate accepts them and reads vocab.
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: MINI[key] for key in
                                      ("triples", "templates", "table", "vocab")}),
                          encoding="utf-8")
        assert run_cli(["rank", "static", "--config", config, "--output", tmp_path]) == 0
        assert run_cli(["evaluate", "--config", config, "--output", tmp_path,
                        "--predictions", tmp_path / "predictions_static.jsonl"]) == 0
        assert read_json(tmp_path / "metrics.json")["macro_p1"] == STATIC_MACRO_P1

    def test_non_object_config_rejected(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text("[1, 2]", encoding="utf-8")
        assert run_cli(["energy", "--config", config, "--watts", "618",
                        "--hours", "5", "--output", tmp_path]) == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert "JSON object" in record["message"]


class TestDeterminism:
    def test_pipeline_reruns_byte_identical(self, tmp_path):
        out = tmp_path / "pipe"
        trees = []
        for _ in range(2):
            preds = rank_static(out)
            evaluate(out, preds)
            trees.append({p.name: p.read_bytes()
                          for p in sorted(out.iterdir()) if p.is_file()})
        assert trees[0] == trees[1]


# Runs each argv list given as JSON through cli.main in one fresh interpreter.
HASH_SEED_RUNNER = """
import json, sys
from clozerank.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


class TestHashSeed:
    def test_artifacts_do_not_depend_on_the_hash_seed(self, tmp_path):
        # Set and dict order could leak into an artifact only across
        # interpreters, so each hash seed runs the whole pipeline in a fresh
        # one, at the same paths.
        rng = random.Random(11)
        words = sorted({word for line in Path(MINI["triples"]).read_text(encoding="utf-8")
                        .splitlines() for key in ("sub_label", "obj_label")
                        for word in json.loads(line)[key].split()}) + ["speaks", "born", "in"]
        run = tmp_path / "run"
        kb_args = ["--triples", MINI["triples"], "--templates", MINI["templates"]]
        vocab, out = str(run / "vocab" / "vocab_70.txt"), str(run / "out")
        commands = [
            ["build-vocab", "--corpus", str(tmp_path / "corpus.txt"), "--target-size", "50",
             "70", "--output", str(run / "vocab")],
            ["tokenize", "--vocab", vocab, "--input", str(tmp_path / "corpus.txt"),
             "--output", out],
            ["train-embeddings", "--vocab", vocab, "--corpus", str(tmp_path / "corpus.txt"),
             "--dim", "8", "--epochs", "2", "--min-count", "1", "--char-ngram-min", "2",
             "--char-ngram-max", "3", "--hash-buckets", "997", "--output", out],
            ["rank", "static", *kb_args, "--table", f"{out}/embeddings.vec",
             "--vocab", vocab, "--output", f"{out}/static"],
            ["rank", "oracle", *kb_args, "--output", f"{out}/oracle"],
            ["export-manifest", *kb_args, "--vocab", vocab, "--output", f"{out}/mlm"],
            ["stub-score", "--manifest", f"{out}/mlm/mlm_manifest.jsonl",
             "--output", f"{out}/mlm"],
            ["rank", "mlm", *kb_args, "--scores", f"{out}/mlm/stub_scores.jsonl",
             "--manifest", f"{out}/mlm/mlm_manifest.jsonl", "--output", f"{out}/mlm"],
            *(["evaluate", *kb_args, "--predictions", f"{out}/{mode}/predictions_{mode}.jsonl",
               "--vocab", vocab, "--output", f"{out}/{mode}"]
              for mode in ("static", "oracle", "mlm")),
        ]
        (tmp_path / "corpus.txt").write_text(
            "".join(" ".join(rng.choices(words, k=rng.randint(3, 9))) + "\n"
                    for _ in range(150)), encoding="utf-8")
        trees = []
        for seed in ("1", "2"):
            if run.exists():
                shutil.rmtree(run)
            proc = subprocess.run([sys.executable, "-c", HASH_SEED_RUNNER, json.dumps(commands)],
                                  capture_output=True, text=True,
                                  env={**os.environ, "PYTHONHASHSEED": seed})
            assert proc.returncode == 0, proc.stderr
            trees.append({str(p.relative_to(run)): p.read_bytes()
                          for p in sorted(run.rglob("*")) if p.is_file()})
        assert len(trees[0]) > 20
        assert trees[0] == trees[1]


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "clozerank", "energy", "--watts", "618",
             "--hours", "5", "--output", str(tmp_path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "energy.json").exists()


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestManifestContract:
    """Every command's manifest and every embedded checksum agree."""

    def run_all(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("ab ab ab b\nab cab bc\nbc bc cab\n", encoding="utf-8")
        vocab, train_corpus = write_tiny_training_setup(tmp_path)
        kb_args = ["--triples", MINI["triples"], "--templates", MINI["templates"]]
        out = {name: tmp_path / name for name in (
            "build-vocab", "tokenize", "train-embeddings", "build-candidates",
            "export-manifest", "stub-score", "rank", "evaluate", "energy", "report")}
        commands = [
            ["build-vocab", "--corpus", corpus, "--target-size", "8", "10"],
            ["tokenize", "--vocab", MINI["vocab"], "--input", corpus],
            ["train-embeddings", "--vocab", vocab, "--corpus", train_corpus,
             "--dim", "8", "--epochs", "1", "--min-count", "1", "--seed", "3"],
            ["build-candidates", *kb_args, "--subset", MINI["uhn_ids"]],
            ["export-manifest", *kb_args, "--vocab", MINI["vocab"]],
            ["stub-score", "--manifest", out["export-manifest"] / "mlm_manifest.jsonl",
             "--lookup", MINI["lookup"]],
            ["rank", "mlm", *kb_args,
             "--scores", out["stub-score"] / "stub_scores.jsonl",
             "--manifest", out["export-manifest"] / "mlm_manifest.jsonl"],
            ["evaluate", *kb_args, "--vocab", MINI["vocab"],
             "--predictions", out["rank"] / "predictions_mlm.jsonl"],
            ["energy", "--watts", "618", "--hours", "5",
             "--baseline-watts", "12041", "--baseline-hours", "79"],
            ["report", "--run", f"mlm={out['evaluate'] / 'metrics.json'}"],
        ]
        for argv in commands:
            assert run_cli([*argv, "--output", out[argv[0]]]) == 0, argv
        return out

    def test_manifests_and_output_directories(self, tmp_path):
        out = self.run_all(tmp_path)
        for command, out_dir in out.items():
            manifest_path = out_dir / f"{command.replace('-', '_')}_manifest.json"
            manifest = read_json(manifest_path)
            assert manifest["command"] == command
            payload = json.dumps({"command": command, "settings": manifest["settings"]},
                                 sort_keys=True, separators=(",", ":"))
            expected = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            assert manifest["config_checksum"] == expected, command
            for path, digest in manifest["inputs"].items():
                assert digest == sha256_file(path), (command, path)
            # The directory holds the manifest and what it lists, each listed once.
            outputs = manifest["outputs"]
            assert len(set(outputs)) == len(outputs), command
            assert sorted(map(str, out_dir.iterdir())) \
                == sorted([str(manifest_path), *outputs]), command

    def test_path_settings_are_named_and_hashed(self, tmp_path):
        out = self.run_all(tmp_path)
        for command, out_dir in out.items():
            manifest = read_json(out_dir / f"{command.replace('-', '_')}_manifest.json")
            settings = manifest["settings"]
            assert "inputs" not in settings, command
            paths = {v for v in settings.values() if isinstance(v, str) and Path(v).is_file()}
            assert paths <= manifest["inputs"].keys(), command
        kb_settings = read_json(out["build-candidates"] / "build_candidates_manifest.json")
        assert {key: kb_settings["settings"][key] for key in ("triples", "templates", "subset")} \
            == {key: MINI[key] for key in ("triples", "templates")} | {"subset": MINI["uhn_ids"]}


def cli_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def export_and_stub_score(out):
    assert run_cli(["export-manifest", "--triples", MINI["triples"],
                    "--templates", MINI["templates"],
                    "--vocab", MINI["vocab"], "--output", out]) == 0
    manifest = out / "mlm_manifest.jsonl"
    assert run_cli(["stub-score", "--manifest", manifest, "--output", out]) == 0
    return manifest, out / "stub_scores.jsonl"


class TestJsonlLocations:
    """A JSONL line that is not an object, or lacks a field, names path:line."""

    def test_build_candidates_non_object_triple(self, tmp_path, capsys):
        triples = tmp_path / "triples.jsonl"
        triples.write_text("[1, 2]\n", encoding="utf-8")
        assert run_cli(["build-candidates", "--triples", triples,
                        "--templates", MINI["templates"], "--output", tmp_path]) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert f"{triples}:1:" in record["message"]

    def test_template_without_object_slot(self, tmp_path, capsys):
        templates = tmp_path / "templates.jsonl"
        templates.write_text('{"relation": "P19", "template": "[X] was born in ."}\n',
                             encoding="utf-8")
        assert run_cli(["rank", "oracle", "--triples", MINI["triples"],
                        "--templates", templates, "--output", tmp_path / "out"]) == 1
        assert cli_error(capsys)["message"].startswith(
            f"{templates}:1: template for 'P19' must contain exactly one [Y]")

    def test_rank_mlm_non_object_manifest(self, tmp_path, capsys):
        manifest, scores = export_and_stub_score(tmp_path)
        manifest.write_text("[1, 2]\n", encoding="utf-8")
        assert run_cli(["rank", "mlm", "--triples", MINI["triples"],
                        "--templates", MINI["templates"], "--scores", scores,
                        "--manifest", manifest, "--output", tmp_path]) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert f"{manifest}:1:" in record["message"]

    def test_stub_score_row_missing_candidate(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text('{"triple_id": "P1#0"}\n', encoding="utf-8")
        assert run_cli(["stub-score", "--manifest", manifest, "--output", tmp_path]) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert f"{manifest}:1: missing field 'candidate'" in record["message"]


class TestMlmManifestCoverage:
    def test_manifest_missing_scored_pairs_rejected(self, tmp_path, capsys):
        manifest, scores = export_and_stub_score(tmp_path)
        rows = manifest.read_text(encoding="utf-8").splitlines()
        assert len(rows) == 54
        cut = tmp_path / "cut_manifest.jsonl"
        cut.write_text("\n".join(rows[:50]) + "\n", encoding="utf-8")
        assert run_cli(["rank", "mlm", "--triples", MINI["triples"],
                        "--templates", MINI["templates"], "--scores", scores,
                        "--manifest", cut, "--output", tmp_path]) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert "4 scored pairs have no manifest row" in record["message"]
        for row in rows[50:]:
            pair = json.loads(row)
            assert repr((pair["triple_id"], pair["candidate"])) in record["message"]


class TestTrainEmbeddingsConfig:
    FLAGS = {"dim": 8, "epochs": 1, "min_count": 1, "char_ngram_min": 0,
             "char_ngram_max": 0, "seed": 5, "learning_rate": 0.1, "hash_buckets": 64}

    def test_config_matches_flags(self, tmp_path):
        vocab, corpus = write_tiny_training_setup(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"vocab": str(vocab), "corpus": str(corpus),
                                      **self.FLAGS}), encoding="utf-8")
        assert run_cli(["train-embeddings", "--config", config,
                        "--output", tmp_path / "config"]) == 0
        flags = []
        for key, value in self.FLAGS.items():
            flags += [f"--{key.replace('_', '-')}", value]
        assert run_cli(["train-embeddings", "--vocab", vocab, "--corpus", corpus,
                        *flags, "--output", tmp_path / "flags"]) == 0
        table = (tmp_path / "config" / "embeddings.vec").read_bytes()
        assert table.splitlines()[0] == b"2 8"
        assert table == (tmp_path / "flags" / "embeddings.vec").read_bytes()
        manifest = read_json(tmp_path / "config" / "train_embeddings_manifest.json")
        assert manifest["settings"]["seed"] == 5
        assert manifest["settings"]["hash_buckets"] == 64

    def test_manifest_settings_rerun_as_a_config(self, tmp_path):
        """The manifest records every setting flat, under its flag's name, so its
        settings make a config file that reruns the same training."""
        vocab, corpus = write_tiny_training_setup(tmp_path)
        flags = []
        for key, value in self.FLAGS.items():
            flags += [f"--{key.replace('_', '-')}", value]
        assert run_cli(["train-embeddings", "--vocab", vocab, "--corpus", corpus,
                        *flags, "--output", tmp_path / "flags"]) == 0
        first = read_json(tmp_path / "flags" / "train_embeddings_manifest.json")
        assert sorted(first["settings"]) == sorted([
            "vocab", "corpus", "dim", "window", "negatives", "epochs", "learning_rate",
            "min_count", "char_ngram_min", "char_ngram_max", "hash_buckets", "seed", "workers"])
        config = tmp_path / "config.json"
        config.write_text(json.dumps(first["settings"]), encoding="utf-8")
        assert run_cli(["train-embeddings", "--config", config,
                        "--output", tmp_path / "config"]) == 0
        second = read_json(tmp_path / "config" / "train_embeddings_manifest.json")
        assert second["settings"] == first["settings"]
        assert second["config_checksum"] == first["config_checksum"]
        assert ((tmp_path / "config" / "embeddings.vec").read_bytes()
                == (tmp_path / "flags" / "embeddings.vec").read_bytes())


class TestCommonOptions:
    def test_seed_belongs_to_train_embeddings_only(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["rank", "oracle", "--seed", "3"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_deterministic_is_not_a_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(["train-embeddings", "--deterministic"])
        assert exc.value.code == 2
        assert "--deterministic" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train-embeddings", "--lr", "0.1"],
        ["rank", "static", "--language", "de"],
        ["rank", "oracle", "--language", "de"],
        ["rank", "mlm", "--language", "de"],
        ["build-candidates", "--language", "de"],
        ["export-manifest", "--language", "de"],
    ], ids=["lr", "rank-static-language", "rank-oracle-language", "rank-mlm-language",
            "build-candidates-language", "export-manifest-language"])
    def test_flag_of_a_setting_the_command_lacks(self, capsys, argv):
        """--lr is now --learning-rate, and only evaluate reads --language."""
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        assert argv[-2] in capsys.readouterr().err

    def test_language_reaches_metrics_and_checksum(self, tmp_path):
        preds_path = rank_static(tmp_path)
        en = read_json(evaluate(tmp_path / "en", preds_path))
        de = read_json(evaluate(tmp_path / "de", preds_path, extra=["--language", "de"]))
        assert (en["metadata"]["language"], de["metadata"]["language"]) == ("en", "de")
        en, de = (read_json(tmp_path / lang / "evaluate_manifest.json") for lang in ("en", "de"))
        assert en["config_checksum"] != de["config_checksum"]


class TestConfigTypes:
    """Config values must have the type of the flag with the same name."""

    @pytest.mark.parametrize("key, value", [
        ("dim", "8"), ("dim", 8.0), ("epochs", True), ("learning_rate", "0.1"),
        ("seed", None),
    ])
    def test_mistyped_value_rejected(self, tmp_path, capsys, key, value):
        vocab, corpus = write_tiny_training_setup(tmp_path)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"vocab": str(vocab), "corpus": str(corpus),
                                      **TestTrainEmbeddingsConfig.FLAGS, key: value}),
                          encoding="utf-8")
        assert run_cli(["train-embeddings", "--config", config,
                        "--output", tmp_path / "out"]) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert record["message"].startswith(f"{config}: config key {key!r}")

    def test_list_flag_takes_a_list_of_its_type(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("anna maria\n" * 5, encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"corpus": str(corpus), "target_size": [9, "12"]}),
                          encoding="utf-8")
        assert run_cli(["build-vocab", "--config", config, "--output", tmp_path]) == 1
        assert "config key 'target_size'" in cli_error(capsys)["message"]

    def test_integer_lr_checksum_matches_flag(self, tmp_path):
        vocab, corpus = write_tiny_training_setup(tmp_path)
        settings = dict(TestTrainEmbeddingsConfig.FLAGS, learning_rate=1)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"vocab": str(vocab), "corpus": str(corpus),
                                      **settings}), encoding="utf-8")
        assert run_cli(["train-embeddings", "--config", config,
                        "--output", tmp_path / "config"]) == 0
        flags = []
        for key, value in settings.items():
            flags += [f"--{key.replace('_', '-')}", value]
        assert run_cli(["train-embeddings", "--vocab", vocab, "--corpus", corpus,
                        *flags, "--output", tmp_path / "flags"]) == 0
        from_config, from_flags = (read_json(tmp_path / side / "train_embeddings_manifest.json")
                                   for side in ("config", "flags"))
        assert from_config["settings"]["learning_rate"] == 1.0
        assert from_config["config_checksum"] == from_flags["config_checksum"]


class TestUnencodableLabel:
    def test_lone_surrogate_rejected_before_any_output(self, tmp_path, capsys):
        triples = tmp_path / "triples.jsonl"
        triples.write_text(json.dumps({"sub_label": "anna", "obj_label": "\ud800x",
                                       "predicate_id": "P1"}) + "\n", encoding="utf-8")
        templates = tmp_path / "templates.jsonl"
        templates.write_text(json.dumps({"relation": "P1", "template": "[X] in [Y] ."})
                             + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["rank", "oracle", "--triples", triples, "--templates", templates,
                        "--output", out]) == 1
        assert cli_error(capsys)["message"].startswith(f"{triples}:1: ")
        assert not (out / "predictions_oracle.jsonl").exists()


class TestJsonObjectFiles:
    """--config, --lookup and report's metrics files must hold one JSON object."""

    def run_with(self, tmp_path, role, path):
        if role == "config":
            argv = ["energy", "--config", path, "--watts", "618", "--hours", "5"]
        elif role == "lookup":
            manifest, _ = export_and_stub_score(tmp_path / "mlm")
            argv = ["stub-score", "--manifest", manifest, "--lookup", path]
        else:
            argv = ["report", "--run", f"oracle={path}"]
        return run_cli([*argv, "--output", tmp_path / "out"])

    @pytest.mark.parametrize("role, content, problem", [
        ("config", '{"watts": 618,', "malformed JSON"),
        ("lookup", '{"P19#0": ', "malformed JSON"),
        ("lookup", "[1, 2]", "expected a JSON object, got list"),
        ("metrics", "{,}", "malformed JSON"),
        ("metrics", '"metrics"', "expected a JSON object, got str"),
    ], ids=["config-malformed", "lookup-malformed", "lookup-list", "metrics-malformed",
            "metrics-str"])
    def test_bad_file_names_its_path(self, tmp_path, capsys, role, content, problem):
        path = tmp_path / f"{role}.json"
        path.write_text(content, encoding="utf-8")
        assert self.run_with(tmp_path, role, path) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert record["message"].startswith(f"{path}: {problem}")
        if role == "lookup":
            assert not (tmp_path / "out").exists()

    def test_metrics_file_missing_key(self, tmp_path, capsys):
        metrics_path = evaluate(tmp_path / "eval", rank_static(tmp_path / "eval"))
        report = read_json(metrics_path)
        del report["per_relation"]
        metrics_path.write_text(json.dumps(report), encoding="utf-8")
        assert self.run_with(tmp_path, "metrics", metrics_path) == 1
        assert cli_error(capsys)["message"] == f"{metrics_path}: missing key 'per_relation'"

    @pytest.mark.parametrize("value", [5, {"french": -0.5}, {"french": "-0.5"}],
                             ids=["number", "candidate-number", "candidate-str"])
    def test_lookup_value_must_map_candidates_to_lists(self, tmp_path, capsys, value):
        lookup = tmp_path / "lookup.json"
        lookup.write_text(json.dumps({"P103#0": value}), encoding="utf-8")
        assert self.run_with(tmp_path, "lookup", lookup) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert "lookup entry 'P103#0'" in record["message"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("logprobs", [["x"], [0.5], [], [False], ["-1.5"]],
                             ids=["str", "positive", "empty", "bool", "numeric-str"])
    def test_lookup_logprobs_follow_the_score_row_rule(self, tmp_path, capsys, logprobs):
        lookup = tmp_path / "lookup.json"
        lookup.write_text(json.dumps({"P19#0": {"rome": logprobs}}), encoding="utf-8")
        assert self.run_with(tmp_path, "lookup", lookup) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert record["message"].startswith(f"{lookup}: lookup entry 'P19#0'")
        assert not (tmp_path / "out").exists()


def rewrite_first_row(path, **changes):
    rows = path.read_text(encoding="utf-8").splitlines()
    rows[0] = json.dumps({**json.loads(rows[0]), **changes})
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


class TestLabelTypesInRankingFiles:
    """Score, manifest and prediction rows reject mistyped labels and log-probs with path:1:."""

    @pytest.mark.parametrize("command, target, changes", [
        ("rank-mlm", "scores", {"triple_id": ["P103#0"]}),
        ("rank-mlm", "scores", {"token_logprobs": "00"}),
        ("rank-mlm", "scores", {"token_logprobs": [False]}),
        ("rank-mlm", "scores", {"token_logprobs": ["-1.5"]}),
        ("rank-mlm-no-manifest", "scores", {"token_logprobs": "00"}),
        ("rank-mlm-no-manifest", "scores", {"token_logprobs": [-10 ** 400]}),
        ("rank-mlm", "manifest", {"candidate": ["french"]}),
        ("stub-score", "manifest", {"candidate": ["french"]}),
        ("evaluate", "predictions", {"triple_id": ["P103#0"]}),
        ("evaluate", "predictions", {"ranked": []}),
        ("evaluate", "predictions", {"ranked": [[1, 0.5]]}),
        ("evaluate", "predictions", {"ranked": ["x5"]}),
        ("evaluate", "predictions", {"ranked": [["y", "2.5"]]}),
        ("evaluate", "predictions", {"ranked": [["z", True]]}),
        ("evaluate", "predictions", {"ranked": [["z", 10 ** 400]]}),
    ], ids=["scores-triple_id", "scores-logprobs-str", "scores-logprobs-bool",
            "scores-logprobs-numeric-str", "no-manifest-logprobs-str",
            "no-manifest-logprobs-huge-int", "rank-manifest-candidate",
            "stub-manifest-candidate", "predictions-triple_id", "predictions-empty-ranked",
            "predictions-int-label", "predictions-str-entry", "predictions-str-score",
            "predictions-bool-score", "predictions-huge-score"])
    def test_mistyped_row_names_path_and_line(self, tmp_path, capsys, command, target,
                                              changes):
        kb_args = ["--triples", MINI["triples"], "--templates", MINI["templates"]]
        paths = {}
        paths["manifest"], paths["scores"] = export_and_stub_score(tmp_path / "mlm")
        assert run_cli(["rank", "oracle", *kb_args, "--output", tmp_path / "oracle"]) == 0
        paths["predictions"] = tmp_path / "oracle" / "predictions_oracle.jsonl"
        rewrite_first_row(paths[target], **changes)
        argv = {
            "rank-mlm": ["rank", "mlm", *kb_args, "--scores", paths["scores"],
                         "--manifest", paths["manifest"]],
            "rank-mlm-no-manifest": ["rank", "mlm", *kb_args, "--scores", paths["scores"]],
            "stub-score": ["stub-score", "--manifest", paths["manifest"]],
            "evaluate": ["evaluate", *kb_args, "--predictions", paths["predictions"]],
        }[command]
        assert run_cli([*argv, "--output", tmp_path / "out"]) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert record["message"].startswith(f"{paths[target]}:1: ")


class TestConfigValueShapes:
    """Boolean, string and list flags type their config values; a key no flag names
    (a typo, or a retired key such as 'metrics', 'embed', 'lr', 'no_p5' or 'pue') is rejected."""

    @pytest.mark.parametrize("command, key, value", [
        ("rank-static", "exclude_subject_match", "false"),
        ("evaluate", "metrics", 5),
        ("evaluate", "metrics", {"p5": "no"}),
        ("evaluate", "metrics", {"p6": False}),
        ("build-vocab", "vocab_sizes", []),
        ("build-vocab", "corpus", 0),
        ("evaluate", "triples", ["x"]),
        ("evaluate", "metrics", {"p5": False}),
        ("train-embeddings", "epoch", 3),
        ("train-embeddings", "embed", {"dim": 8}),
        ("report", "runs", ["oracle=metrics.json"]),
        ("report", "run", [5]),
        ("evaluate", "no_p5", True),
        ("build-vocab", "target_size", []),
        ("evaluate", "config", "other.json"),
        ("build-vocab", "min_frequency", 2),
        ("energy", "pue", 1.2),
        ("energy", "carbon_intensity", 0.5),
        ("train-embeddings", "lr", 0.1),
    ], ids=["exclude-str", "metrics-number", "metrics-str-toggle", "metrics-unknown-key",
            "vocab-sizes-empty", "corpus-int", "triples-list", "metrics-once-valid",
            "epoch-unknown", "embed-nested", "runs-unknown", "run-int-list", "no-p5-retired",
            "target-size-empty", "config-in-config", "min-frequency-retired", "pue-retired",
            "carbon-intensity-retired", "lr-retired"])
    def test_value_rejected_with_path_and_key(self, tmp_path, capsys, command, key, value):
        kb_args = ["--triples", MINI["triples"], "--templates", MINI["templates"]]
        assert run_cli(["rank", "oracle", *kb_args, "--output", tmp_path / "oracle"]) == 0
        argv = {
            "rank-static": ["rank", "static", *kb_args, "--table", MINI["table"],
                            "--vocab", MINI["vocab"]],
            "evaluate": ["evaluate", *kb_args, "--predictions",
                         tmp_path / "oracle" / "predictions_oracle.jsonl"],
            "build-vocab": ["build-vocab", "--corpus", MINI["vocab"]],
            "train-embeddings": ["train-embeddings", "--vocab", MINI["vocab"],
                                 "--corpus", MINI["vocab"]],
            "report": ["report", "--run", f"oracle={tmp_path / 'oracle' / 'metrics.json'}"],
            "energy": ["energy", "--watts", "618", "--hours", "5"],
        }[command]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: value}), encoding="utf-8")
        assert run_cli([*argv, "--config", config, "--output", tmp_path / "out"]) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert record["message"].startswith(f"{config}: config key {key!r} must be")
        assert not list((tmp_path / "out").glob("*"))


class TestManifestMaskIds:
    """mask_token_ids must be a list of one or more integers; anything else names path:line."""

    @pytest.mark.parametrize("value", [5, [True], ["3"], [], [1.0]],
                             ids=["int", "bool", "str", "empty", "float"])
    @pytest.mark.parametrize("command", ["stub-score", "rank-mlm"])
    def test_mistyped_mask_ids_rejected(self, tmp_path, capsys, command, value):
        manifest, scores = export_and_stub_score(tmp_path / "mlm")
        rewrite_first_row(manifest, mask_token_ids=value)
        argv = {
            "stub-score": ["stub-score", "--manifest", manifest],
            "rank-mlm": ["rank", "mlm", "--triples", MINI["triples"],
                         "--templates", MINI["templates"], "--scores", scores,
                         "--manifest", manifest],
        }[command]
        assert run_cli([*argv, "--output", tmp_path / "out"]) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert record["message"] == (f"{manifest}:1: mask_token_ids must be a list of one "
                                     f"or more integers, got {value!r}")


class TestReportInputTypes:
    """report checks the field types of its metrics files."""

    @pytest.mark.parametrize("key, value, expected", [
        ("macro_p1", "x", "must be a number, got 'x'"),
        ("macro_p1", None, "must be a number, got None"),
        ("macro_p5", True, "must be a number or null, got True"),
        ("per_relation", [], "must be an object, got []"),
    ], ids=["str", "null-not-allowed", "bool", "per-relation-list"])
    def test_mistyped_metrics_field(self, tmp_path, capsys, key, value, expected):
        metrics_path = evaluate(tmp_path / "eval", rank_static(tmp_path / "eval"))
        metrics_path.write_text(json.dumps({**read_json(metrics_path), key: value}),
                                encoding="utf-8")
        assert run_cli(["report", "--run", f"static={metrics_path}",
                        "--output", tmp_path / "out"]) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert record["message"] == f"{metrics_path}: key {key!r} {expected}"

    @pytest.mark.parametrize("key, value, expected", [
        ("buckets", {"x": {"n": 1, "p1": 0.5}}, "key 'buckets' must map decimal integers "
         "to {n: integer, p1: number}, got 'x': {'n': 1, 'p1': 0.5}"),
        ("buckets", {"1": {"n": 1.5, "p1": 0.5}}, "key 'buckets' must map decimal integers "
         "to {n: integer, p1: number}, got '1': {'n': 1.5, 'p1': 0.5}"),
        ("metadata", [1], "key 'metadata' must be an object, got [1]"),
        ("metadata", {"vocab_size": {"a": 1}},
         "key 'metadata.vocab_size' must be an integer, got {'a': 1}"),
        ("buckets", [1], "key 'buckets' must be an object, got [1]"),
    ], ids=["bucket-key", "bucket-n", "metadata-list", "vocab-size-object", "buckets-list"])
    def test_mistyped_buckets_or_metadata(self, tmp_path, capsys, key, value, expected):
        metrics_path = evaluate(tmp_path / "eval", rank_static(tmp_path / "eval"))
        metrics_path.write_text(json.dumps({**read_json(metrics_path), key: value}),
                                encoding="utf-8")
        assert run_cli(["report", "--run", f"static={metrics_path}",
                        "--output", tmp_path / "out"]) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert record["message"] == f"{metrics_path}: {expected}"

    def test_disabled_metrics_load_as_null(self, tmp_path):
        # Older metrics files hold null for the metrics evaluate could turn off.
        metrics_path = evaluate(tmp_path / "eval", rank_static(tmp_path / "eval"))
        off = dict.fromkeys(["macro_p5", "p1_mf", "relations_dropped_by_mf", "entropy_bits",
                             "avg_distinct_predictions"])
        metrics_path.write_text(json.dumps({**read_json(metrics_path), **off}),
                                encoding="utf-8")
        assert run_cli(["report", "--run", f"static={metrics_path}",
                        "--output", tmp_path / "out"]) == 0


class TestUnknownSubsetIds:
    def test_count_reported_on_stderr(self, tmp_path, capsys):
        subset = tmp_path / "ids.txt"
        subset.write_text("P19#0\nnope\nzilch\n", encoding="utf-8")
        assert run_cli(["rank", "oracle", "--triples", MINI["triples"],
                        "--templates", MINI["templates"], "--subset", subset,
                        "--output", tmp_path / "out"]) == 0
        err = capsys.readouterr().err
        assert "subset list has 2 ids not present in the dataset" in err
        rows = (tmp_path / "out" / "predictions_oracle.jsonl").read_text(
            encoding="utf-8").splitlines()
        assert len(rows) == 1


def read_rows(path):
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


class TestSubsetKeepsTheOutputSpace:
    """A --subset picks the triples a run ranks; each kept relation's candidate set
    still holds the objects of all its triples in the KB."""

    @pytest.fixture
    def kb(self, tmp_path):
        subset = tmp_path / "p19_0.txt"
        subset.write_text("P19#0\n", encoding="utf-8")
        return ["--triples", MINI["triples"], "--templates", MINI["templates"],
                "--subset", subset]

    def test_build_candidates(self, tmp_path, capsys, kb):
        out = tmp_path / "out"
        assert run_cli(["build-candidates", *kb, "--output", out]) == 0
        assert read_json(out / "candidates.json")["candidates"] == {
            "P19": ["berlin", "paris", "rome"]}
        assert capsys.readouterr().out.startswith("1 candidate sets -> ")

    def test_export_manifest(self, tmp_path, kb):
        assert run_cli(["export-manifest", *kb, "--vocab", MINI["vocab"],
                        "--output", tmp_path]) == 0
        rows = read_rows(tmp_path / "mlm_manifest.jsonl")
        assert [(row["triple_id"], row["candidate"]) for row in rows] == [
            ("P19#0", "berlin"), ("P19#0", "paris"), ("P19#0", "rome")]

    @pytest.mark.parametrize("mode", ["static", "oracle", "mlm"])
    def test_rank(self, tmp_path, kb, mode):
        extra = []
        if mode == "static":
            extra = ["--table", MINI["table"], "--vocab", MINI["vocab"]]
        elif mode == "mlm":  # score the subset's own manifest
            assert run_cli(["export-manifest", *kb, "--vocab", MINI["vocab"],
                            "--output", tmp_path]) == 0
            manifest = tmp_path / "mlm_manifest.jsonl"
            assert run_cli(["stub-score", "--manifest", manifest, "--output", tmp_path]) == 0
            extra = ["--scores", tmp_path / "stub_scores.jsonl", "--manifest", manifest]
        assert run_cli(["rank", mode, *kb, *extra, "--output", tmp_path]) == 0
        [row] = read_rows(tmp_path / f"predictions_{mode}.jsonl")
        assert row["triple_id"] == "P19#0"
        assert sorted(label for label, _ in row["ranked"]) == ["berlin", "paris", "rome"]


class TestEmptyKbRejected:
    """A KB left with no triple after --subset exits 1 naming the file, before --output."""

    @pytest.mark.parametrize("empty", ["subset", "triples"])
    @pytest.mark.parametrize("command", ["build-candidates", "export-manifest",
                                         "rank oracle", "evaluate"])
    def test_exits_1_naming_the_file(self, tmp_path, capsys, command, empty):
        path = tmp_path / f"{empty}.txt"
        if empty == "subset":
            path.write_text("nope\n", encoding="utf-8")
            kb = ["--triples", MINI["triples"], "--subset", path]
        else:
            path.write_text("", encoding="utf-8")
            kb = ["--triples", path]
        extra = ["--vocab", MINI["vocab"]] if command == "export-manifest" else []
        if command == "evaluate":  # predictions of the whole KB
            full = tmp_path / "full"
            assert run_cli(["rank", "oracle", "--triples", MINI["triples"],
                            "--templates", MINI["templates"], "--output", full]) == 0
            extra = ["--predictions", full / "predictions_oracle.jsonl"]
        out = tmp_path / "out"
        assert run_cli([*command.split(), *kb, "--templates", MINI["templates"],
                        *extra, "--output", out]) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert record["message"].startswith(f"{path}: ")
        assert not out.exists()


class TestPredictionUnderAnotherRelation:
    def test_evaluate_names_the_triple_and_both_relations(self, tmp_path, capsys):
        assert run_cli(["rank", "oracle", "--triples", MINI["triples"],
                        "--templates", MINI["templates"], "--output", tmp_path]) == 0
        predictions = tmp_path / "predictions_oracle.jsonl"
        rows = read_rows(predictions)
        for row in rows:
            if row["relation_id"] == "P19":
                row["relation_id"] = "P999"
        predictions.write_text("".join(json.dumps(row) + "\n" for row in rows),
                               encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["evaluate", "--predictions", predictions, "--triples", MINI["triples"],
                        "--templates", MINI["templates"], "--output", out]) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert all(name in record["message"] for name in ("'P19#0'", "'P999'", "'P19'"))
        assert not (out / "metrics.json").exists()


def write_sweep_corpus(tmp_path):
    rng = random.Random(5)
    lexicon = ["".join(rng.choice("abcdefgh") for _ in range(rng.randint(2, 7)))
               for _ in range(300)]
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("".join(" ".join(rng.choices(lexicon, k=9)) + "\n"
                              for _ in range(60)), encoding="utf-8")
    return corpus


class TestVocabSizesSweep:
    """--target-size with several sizes trains once and cuts each from the largest."""

    # A word over 100 characters, in letters the lexicon lacks, is left out of training.
    @pytest.mark.parametrize("extra_line", ["", " ".join(["xyz" * 34] * 3)],
                             ids=["all", "word-over-100"])
    def test_each_size_matches_a_separate_run(self, tmp_path, extra_line):
        corpus = write_sweep_corpus(tmp_path)
        with corpus.open("a", encoding="utf-8") as f:
            f.write(extra_line + "\n")
        sizes = ["300", "40", "100000", "120"]
        sweep = tmp_path / "sweep"
        assert run_cli(["build-vocab", "--corpus", corpus, "--target-size", *sizes,
                        "--output", sweep]) == 0
        assert "x" not in (sweep / "vocab_100000.txt").read_text(encoding="utf-8").split()
        for size in sizes:
            alone = tmp_path / f"alone_{size}"
            assert run_cli(["build-vocab", "--corpus", corpus, "--target-size", size,
                            "--output", alone]) == 0
            name = f"vocab_{size}.txt"
            assert (sweep / name).read_bytes() == (alone / name).read_bytes()

    def test_size_below_alphabet_fails_before_writing(self, tmp_path, capsys):
        corpus = write_sweep_corpus(tmp_path)
        out = tmp_path / "out"
        assert run_cli(["build-vocab", "--corpus", corpus, "--target-size", "300", "3",
                        "--output", out]) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert re.fullmatch(r"target_size 3 below alphabet\+specials \(\d+\)",
                            record["message"])
        assert not list(out.glob("vocab_*"))

    def test_size_zero_fails_before_reading_or_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["build-vocab", "--corpus", tmp_path / "missing.txt",
                        "--target-size", "40", "0", "--output", out]) == 1
        assert cli_error(capsys) == {"command": "build-vocab", "error": "ValueError",
                                     "message": "target_size must be positive, got 0"}
        assert not out.exists()

    @pytest.mark.parametrize("route", ["flag", "config"])
    def test_repeated_size_fails_before_writing(self, tmp_path, capsys, route):
        corpus = write_sweep_corpus(tmp_path)
        out = tmp_path / "out"
        if route == "flag":
            argv = ["--corpus", corpus, "--target-size", "120", "40", "40"]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"corpus": str(corpus), "target_size": [120, 40, 40]}),
                              encoding="utf-8")
            argv = ["--config", config]
        assert run_cli(["build-vocab", *argv, "--output", out]) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert record["message"] == "target_size 40 is given more than once"
        assert not list(out.glob("*"))


class TestExcludeSubjectLeavesNoCandidate:
    def test_rank_static_fails_without_writing(self, tmp_path, capsys):
        triples = tmp_path / "triples.jsonl"
        triples.write_text(
            '{"sub_label": "paris", "obj_label": "paris", "predicate_id": "P19"}\n'
            '{"sub_label": "rome", "obj_label": "paris", "predicate_id": "P19"}\n',
            encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["rank", "static", "--triples", triples,
                        "--templates", MINI["templates"], "--table", MINI["table"],
                        "--vocab", MINI["vocab"], "--exclude-subject-match",
                        "--output", out]) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert "'P19#0'" in record["message"] and "'P19'" in record["message"]
        assert not (out / "predictions_static.jsonl").exists()

    def test_failed_rerun_keeps_the_earlier_predictions(self, tmp_path, capsys):
        triples = tmp_path / "triples.jsonl"
        triples.write_text(
            '{"sub_label": "rome", "obj_label": "paris", "predicate_id": "P19"}\n'
            '{"sub_label": "paris", "obj_label": "paris", "predicate_id": "P19"}\n',
            encoding="utf-8")
        out = tmp_path / "out"
        args = ["rank", "static", "--triples", triples, "--templates", MINI["templates"],
                "--table", MINI["table"], "--vocab", MINI["vocab"], "--output", out]
        assert run_cli(args) == 0
        preds = out / "predictions_static.jsonl"
        before = preds.read_bytes()
        capsys.readouterr()
        # The first triple is written before the second one fails.
        assert run_cli([*args, "--exclude-subject-match"]) == 1
        assert cli_error(capsys)["message"] == (
            "triple 'P19#1' of relation 'P19' has no candidate left once its subject "
            "is excluded")
        assert preds.read_bytes() == before
        assert sorted(p.name for p in out.iterdir()) == [
            "predictions_static.jsonl", "rank_manifest.json"]


class TestFailedRunRemovesItsOutputDirectory:
    """A run that fails takes back the --output directories it created while empty."""

    def rank_self_match(self, tmp_path, out):
        triples = tmp_path / "triples.jsonl"
        triples.write_text(
            '{"sub_label": "paris", "obj_label": "paris", "predicate_id": "P19"}\n',
            encoding="utf-8")
        return run_cli(["rank", "static", "--triples", triples,
                        "--templates", MINI["templates"], "--table", MINI["table"],
                        "--vocab", MINI["vocab"], "--exclude-subject-match",
                        "--output", out])

    def test_mid_stream_failure_leaves_no_directory(self, tmp_path, capsys):
        assert self.rank_self_match(tmp_path, tmp_path / "out" / "nested") == 1
        assert "has no candidate left" in cli_error(capsys)["message"]
        assert not (tmp_path / "out").exists()

    def test_directory_that_existed_is_kept(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        assert self.rank_self_match(tmp_path, out / "nested") == 1
        assert cli_error(capsys)["error"] == "ValueError"
        assert sorted(tmp_path.iterdir()) == [out, tmp_path / "triples.jsonl"]
        assert sorted(out.iterdir()) == []


class TestDuplicateScoreRow:
    def test_repeated_pair_names_both_lines(self, tmp_path, capsys):
        manifest, scores = export_and_stub_score(tmp_path / "mlm")
        rows = scores.read_text(encoding="utf-8").splitlines()
        scores.write_text("\n".join(rows + rows[:1]) + "\n", encoding="utf-8")
        assert run_cli(["rank", "mlm", "--triples", MINI["triples"],
                        "--templates", MINI["templates"], "--scores", scores,
                        "--output", tmp_path / "out"]) == 1
        assert cli_error(capsys)["message"] == (
            f"{scores}:{len(rows) + 1}: duplicate score row for ('P103#0', 'french') "
            "(first at line 1)")


class TestDuplicateManifestRow:
    def test_repeated_pair_names_both_lines(self, tmp_path, capsys):
        manifest, scores = export_and_stub_score(tmp_path / "mlm")
        rows = manifest.read_text(encoding="utf-8").splitlines()
        manifest.write_text("\n".join(rows + rows[:1]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["rank", "mlm", "--triples", MINI["triples"],
                        "--templates", MINI["templates"], "--scores", scores,
                        "--manifest", manifest, "--output", out]) == 1
        assert cli_error(capsys)["message"] == (
            f"{manifest}:{len(rows) + 1}: duplicate manifest row for ('P103#0', 'french') "
            "(first at line 1)")
        assert not out.exists()


class TestDuplicatePrediction:
    def test_repeated_triple_names_both_lines(self, tmp_path, capsys):
        preds = rank_static(tmp_path)
        rows = preds.read_text(encoding="utf-8").splitlines()
        preds.write_text("\n".join(rows + rows[:1]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["evaluate", "--predictions", preds, "--triples", MINI["triples"],
                        "--templates", MINI["templates"], "--output", out]) == 1
        assert cli_error(capsys)["message"] == (
            f"{preds}:{len(rows) + 1}: duplicate prediction for triple 'P103#0' "
            "(first at line 1)")
        assert not (out / "metrics.json").exists()

    def test_malformed_last_row_writes_no_metrics(self, tmp_path, capsys):
        preds = rank_static(tmp_path)
        rows = preds.read_text(encoding="utf-8").splitlines()
        preds.write_text("\n".join(rows[:-1] + [rows[-1][:-1]]) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["evaluate", "--predictions", preds, "--triples", MINI["triples"],
                        "--templates", MINI["templates"], "--output", out]) == 1
        assert cli_error(capsys)["message"].startswith(
            f"{preds}:{len(rows)}: malformed JSON line: ")
        assert not (out / "metrics.json").exists()


class TestPredictionRowRules:
    def evaluate_with(self, tmp_path, capsys, first_row):
        preds = rank_static(tmp_path)
        rows = preds.read_text(encoding="utf-8").splitlines()
        row = json.loads(rows[0])
        assert row["triple_id"] == "P103#0"
        preds.write_text("\n".join([json.dumps(dict(row, **first_row))] + rows[1:]) + "\n",
                         encoding="utf-8")
        capsys.readouterr()
        assert run_cli(["evaluate", "--predictions", preds, "--triples", MINI["triples"],
                        "--templates", MINI["templates"], "--output", tmp_path / "out"]) == 1
        return preds, cli_error(capsys)["message"]

    def test_label_listed_twice(self, tmp_path, capsys):
        ranked = [["german", 3.0], ["german", 2.0], ["french", 1.0]]
        preds, message = self.evaluate_with(tmp_path, capsys, {"ranked": ranked})
        assert message == f"{preds}:1: ranked lists label 'german' twice"

    def test_flags_not_an_object(self, tmp_path, capsys):
        preds, message = self.evaluate_with(tmp_path, capsys, {"flags": 5})
        assert message == f"{preds}:1: flags must be an object of booleans, got 5"

    @pytest.mark.parametrize("ranked", [
        [["french", 1.0], ["german", 3.0]],
        [["german", 2.0], ["french", 2.0]],
        [["german", float("nan")]],
    ], ids=["rising", "tie-out-of-label-order", "nan"])
    def test_ranking_out_of_order(self, tmp_path, capsys, ranked):
        preds, message = self.evaluate_with(tmp_path, capsys, {"ranked": ranked})
        assert message == (f"{preds}:1: ranked must list finite scores that never rise, "
                           "tied labels in ascending order")
        assert not (tmp_path / "out" / "metrics.json").exists()

    def test_reversed_oracle_rankings_rejected(self, tmp_path, capsys):
        """Reversed rows keep each label's score, so evaluate once read the lowest
        score as the top-1 and exited 0; the order of the scores now rules."""
        assert run_cli(["rank", "oracle", "--triples", MINI["triples"],
                        "--templates", MINI["templates"], "--output", tmp_path]) == 0
        preds = tmp_path / "predictions_oracle.jsonl"
        rows = [json.loads(line) for line in preds.read_text(encoding="utf-8").splitlines()]
        preds.write_text("".join(json.dumps(dict(row, ranked=row["ranked"][::-1])) + "\n"
                                 for row in rows), encoding="utf-8")
        out = tmp_path / "out"
        assert run_cli(["evaluate", "--predictions", preds, "--triples", MINI["triples"],
                        "--templates", MINI["templates"], "--output", out]) == 1
        assert cli_error(capsys)["message"].startswith(f"{preds}:1: ranked must list")
        assert not out.exists()


class TestNonUtf8Input:
    """Every text input names path:LINE of its first line that is not UTF-8."""

    @pytest.mark.parametrize("command, role", [
        ("build-vocab", "corpus"), ("train-embeddings", "corpus"), ("tokenize", "input"),
        ("tokenize", "vocab"), ("rank-oracle", "templates"), ("rank-oracle", "subset"),
        ("rank-static", "table"),
    ])
    def test_bad_line_named(self, tmp_path, capsys, command, role):
        text = tmp_path / "text.txt"
        text.write_text("anna maria\nkenji\nanna\n", encoding="utf-8")
        paths = {"corpus": text, "input": text, "vocab": Path(MINI["vocab"]),
                 "table": Path(MINI["table"]), "templates": Path(MINI["templates"]),
                 "subset": Path(MINI["uhn_ids"])}
        lines = paths[role].read_bytes().splitlines(keepends=True)
        lines[1] = b"\xff" + lines[1]
        bad = paths[role] = tmp_path / f"bad_{role}"
        bad.write_bytes(b"".join(lines))
        kb_args = ["--triples", MINI["triples"], "--templates", paths["templates"]]
        argv = {
            "build-vocab": ["build-vocab", "--corpus", paths["corpus"], "--target-size", "8"],
            "train-embeddings": ["train-embeddings", "--vocab", paths["vocab"],
                                 "--corpus", paths["corpus"], "--dim", "8"],
            "tokenize": ["tokenize", "--vocab", paths["vocab"], "--input", paths["input"]],
            "rank-oracle": ["rank", "oracle", *kb_args, "--subset", paths["subset"]],
            "rank-static": ["rank", "static", *kb_args, "--table", paths["table"],
                            "--vocab", paths["vocab"]],
        }[command]
        assert run_cli([*argv, "--output", tmp_path / "out"]) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert record["message"] == f"{bad}:2: not UTF-8 text"


class TestFailedWriteLeavesNoArtifact:
    """A JSONL artifact appears only once its last row is written."""

    def broken_manifest(self, tmp_path):
        manifest, _ = export_and_stub_score(tmp_path / "good")
        broken = tmp_path / "broken.jsonl"
        lines = manifest.read_text(encoding="utf-8").splitlines(keepends=True)
        broken.write_text(lines[0] + "{oops\n", encoding="utf-8")
        return broken

    def test_stub_score_on_bad_manifest_line(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli(["stub-score", "--manifest", self.broken_manifest(tmp_path),
                        "--output", out]) == 1
        assert ":2: malformed JSON line" in cli_error(capsys)["message"]
        assert not out.exists()

    def test_tokenize_on_bad_input_line(self, tmp_path, capsys):
        text = tmp_path / "text.txt"
        text.write_bytes(b"anna maria\n\xffkenji\n")
        out = tmp_path / "out"
        assert run_cli(["tokenize", "--vocab", MINI["vocab"], "--input", text,
                        "--output", out]) == 1
        assert cli_error(capsys)["message"] == f"{text}:2: not UTF-8 text"
        assert not out.exists()

    def test_failed_rerun_keeps_the_good_run(self, tmp_path, capsys):
        broken = self.broken_manifest(tmp_path)
        good = tmp_path / "good"
        before = {path.name: path.read_bytes() for path in good.iterdir()}
        assert run_cli(["stub-score", "--manifest", broken, "--output", good]) == 1
        assert cli_error(capsys)["error"] == "ValueError"
        assert {path.name: path.read_bytes() for path in good.iterdir()} == before


class TestManifestRecordsWhatRuns:
    """The manifest lists what the run read, and a rejected run writes nothing."""

    def test_stale_vocab_sidecar_is_ignored(self, tmp_path):
        """A vocab_N.txt.json that older builds wrote is neither read nor listed."""
        vocab = tmp_path / "vocab.txt"
        vocab.write_bytes(Path(MINI["vocab"]).read_bytes())
        outputs = []
        for sidecar in (None, '{"config": {"max_word_length": 4}}', "not json"):
            if sidecar is not None:
                (tmp_path / "vocab.txt.json").write_text(sidecar, encoding="utf-8")
            out = tmp_path / f"run_{len(outputs)}"
            assert run_cli(["rank", "static", "--triples", MINI["triples"],
                            "--templates", MINI["templates"], "--table", MINI["table"],
                            "--vocab", vocab, "--output", out]) == 0
            inputs = read_json(out / "rank_manifest.json")["inputs"]
            assert sorted(inputs) == sorted(map(str, (
                vocab, MINI["triples"], MINI["templates"], MINI["table"])))
            outputs.append((out / "predictions_static.jsonl").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    @pytest.mark.parametrize("command", ["target-size-repeated", "dim-zero", "workers-zero",
                                         "workers-two"])
    def test_rejected_setting_tokenizes_and_creates_nothing(self, tmp_path, capsys,
                                                            monkeypatch, command):
        vocab, corpus = write_tiny_training_setup(tmp_path)
        calls = []
        tokenize = wordpiece.tokenize
        monkeypatch.setattr(wordpiece, "tokenize",
                            lambda *args: calls.append(args) or tokenize(*args))
        out = tmp_path / "out"
        argv = {
            "target-size-repeated": ["build-vocab", "--corpus", corpus,
                                     "--target-size", "40", "40"],
            "dim-zero": ["train-embeddings", "--vocab", vocab, "--corpus", corpus,
                         "--dim", "0"],
            "workers-zero": ["train-embeddings", "--vocab", vocab, "--corpus", corpus,
                             "--workers", "0"],
            "workers-two": ["train-embeddings", "--vocab", vocab, "--corpus", corpus,
                            "--workers", "2"],
        }[command]
        assert run_cli([*argv, "--output", out]) == 1
        assert cli_error(capsys)["error"] == "ValueError"
        assert calls == []
        assert not out.exists()


class TestVocabularyFileLocations:
    """A bad vocabulary line names path:LINE; a missing special names the path."""

    @pytest.mark.parametrize("edit, problem", [
        (lambda lines: lines[:5] + [""] + lines[5:], ":6: empty token in vocabulary"),
        (lambda lines: lines + ["carla"], ":25: duplicate token 'carla'"),
        (lambda lines: lines + ["##"], ":25: continuation token '##' has no content"),
        (lambda lines: lines[:1] + lines[2:], ": missing special token '[MASK]'"),
        (lambda lines: lines[:2] + ["paris "] + lines[3:], ":3: token 'paris ' holds whitespace"),
        (lambda lines: lines[:2] + ["a\tb"] + lines[3:], ":3: token 'a\\tb' holds whitespace"),
    ], ids=["blank", "repeated", "bare-continuation", "no-mask", "trailing-space", "tab"])
    def test_rank_static_names_the_line(self, tmp_path, capsys, edit, problem):
        lines = Path(MINI["vocab"]).read_text(encoding="utf-8").splitlines()
        vocab = tmp_path / "vocab.txt"
        vocab.write_text("".join(line + "\n" for line in edit(lines)), encoding="utf-8")
        assert run_cli(["rank", "static", "--triples", MINI["triples"],
                        "--templates", MINI["templates"], "--table", MINI["table"],
                        "--vocab", vocab, "--output", tmp_path / "out"]) == 1
        record = cli_error(capsys)
        assert record["error"] == "ValueError"
        assert record["message"] == f"{vocab}{problem}"
