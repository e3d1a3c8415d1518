"""Commands load only what they run: numpy, and the clozerank modules a command needs.

Functions that use numpy import it, and each CLI command imports its own
library modules. The records are plain slotted classes, so no command loads
dataclasses. The test process has imported all of these long ago, so each
check runs its commands in a fresh interpreter that imports clozerank from
the same source tree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clozerank
from clozerank.cli import main

from conftest import FIXTURES

SRC = Path(clozerank.__file__).resolve().parents[1]
KB_ARGS = ["--triples", str(FIXTURES / "mini_triples.jsonl"),
           "--templates", str(FIXTURES / "mini_templates.jsonl")]

# Runs each argv list (JSON in argv[1]) through cli.main in order. Exits 4 if
# importing the CLI put numpy in sys.modules, 3 on the first failing command,
# and otherwise prints, as JSON, whether numpy and dataclasses are in
# sys.modules after the commands and which clozerank modules are.
SCRIPT = """
import json, sys
from clozerank.cli import main
if "numpy" in sys.modules:
    sys.exit(4)
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(3)
print(json.dumps({"numpy": "numpy" in sys.modules, "dataclasses": "dataclasses" in sys.modules,
                  "modules": [m for m in sys.modules if m.startswith("clozerank.")]}))
"""


def run_fresh(commands) -> dict:
    """Run commands in a new interpreter; return whether they loaded numpy
    ("numpy") and dataclasses ("dataclasses"), and the set of clozerank
    modules loaded ("modules")."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    loaded = json.loads(proc.stdout.splitlines()[-1])
    return {**loaded, "modules": set(loaded["modules"])}


def test_non_vector_pipeline_leaves_numpy_unloaded(tmp_path):
    out, mlm = str(tmp_path), str(tmp_path / "mlm")
    assert not run_fresh([
        ["build-candidates", *KB_ARGS, "--output", out],
        ["rank", "oracle", *KB_ARGS, "--output", out],
        ["evaluate", *KB_ARGS, "--predictions", f"{out}/predictions_oracle.jsonl",
         "--output", out],
        ["export-manifest", *KB_ARGS, "--vocab", str(FIXTURES / "mini_vocab.txt"),
         "--output", mlm],
        ["stub-score", "--manifest", f"{mlm}/mlm_manifest.jsonl", "--output", mlm],
        ["rank", "mlm", *KB_ARGS, "--scores", f"{mlm}/stub_scores.jsonl",
         "--manifest", f"{mlm}/mlm_manifest.jsonl", "--output", mlm],
        ["evaluate", *KB_ARGS, "--predictions", f"{mlm}/predictions_mlm.jsonl",
         "--output", mlm],
    ])["numpy"]
    assert (tmp_path / "metrics.json").exists()
    assert (tmp_path / "mlm" / "metrics.json").exists()


# Per command: a module it runs, and the modules it must not load.
COMMAND_MODULES = {
    "build-vocab": ("wordpiece", ("kb", "ranking", "metrics", "embeddings", "energy")),
    "tokenize": ("wordpiece", ("kb", "ranking", "metrics", "embeddings", "energy")),
    "build-candidates": ("kb", ("ranking", "metrics", "embeddings")),
    "rank oracle": ("ranking", ("metrics",)),
    "stub-score": ("ranking", ("metrics", "energy")),
    "evaluate": ("metrics", ("energy",)),
}


@pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
def test_command_loads_only_the_modules_it_runs(tmp_path, command):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("paris is big\nrome and paris\nberlin is old\n" * 5, encoding="utf-8")
    inputs = str(tmp_path / "inputs")
    assert main(["export-manifest", *KB_ARGS, "--vocab", str(FIXTURES / "mini_vocab.txt"),
                 "--output", inputs]) == 0
    assert main(["rank", "oracle", *KB_ARGS, "--output", inputs]) == 0
    argv = {
        "build-vocab": ["build-vocab", "--corpus", str(corpus), "--target-size", "40"],
        "tokenize": ["tokenize", "--vocab", str(FIXTURES / "mini_vocab.txt"),
                     "--input", str(corpus)],
        "build-candidates": ["build-candidates", *KB_ARGS],
        "rank oracle": ["rank", "oracle", *KB_ARGS],
        "stub-score": ["stub-score", "--manifest", f"{inputs}/mlm_manifest.jsonl"],
        "evaluate": ["evaluate", *KB_ARGS, "--predictions",
                     f"{inputs}/predictions_oracle.jsonl"],
    }[command]
    fresh = run_fresh([[*argv, "--output", str(tmp_path / "out")]])
    loaded = fresh["modules"]
    runs, unused = COMMAND_MODULES[command]
    assert f"clozerank.{runs}" in loaded
    assert not loaded & {f"clozerank.{name}" for name in unused}, sorted(loaded)
    assert not fresh["dataclasses"]


def test_rank_static_loads_numpy_and_matches_in_process_run(tmp_path):
    argv = ["rank", "static", *KB_ARGS, "--table", str(FIXTURES / "mini_table.vec"),
            "--vocab", str(FIXTURES / "mini_vocab.txt"), "--output"]
    assert run_fresh([[*argv, str(tmp_path / "fresh")]])["numpy"]
    assert main([*argv, str(tmp_path / "in_process")]) == 0
    name = "predictions_static.jsonl"
    assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "in_process" / name).read_bytes()
