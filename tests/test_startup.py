"""Functions that use numpy import it: commands that never touch a vector never load it.

The test process has imported numpy long ago, so each check runs its commands
in a fresh interpreter that imports clozerank from the same source tree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import clozerank
from clozerank.cli import main

from conftest import FIXTURES

SRC = Path(clozerank.__file__).resolve().parents[1]
KB_ARGS = ["--triples", str(FIXTURES / "mini_triples.jsonl"),
           "--templates", str(FIXTURES / "mini_templates.jsonl")]

# Runs each argv list (JSON in argv[1]) through cli.main in order. Exits 4 if
# importing the CLI put numpy in sys.modules, 3 on the first failing command,
# and otherwise prints whether numpy is in sys.modules after the commands.
SCRIPT = """
import json, sys
from clozerank.cli import main
if "numpy" in sys.modules:
    sys.exit(4)
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(3)
print("numpy" in sys.modules)
"""


def run_fresh(commands) -> bool:
    """Run commands in a new interpreter; return whether they loaded numpy."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, json.dumps(commands)],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    return proc.stdout.splitlines()[-1] == "True"


def test_non_vector_pipeline_leaves_numpy_unloaded(tmp_path):
    out = str(tmp_path)
    assert not run_fresh([
        ["build-candidates", *KB_ARGS, "--output", out],
        ["rank", "oracle", *KB_ARGS, "--output", out],
        ["evaluate", *KB_ARGS, "--predictions", f"{out}/predictions_oracle.jsonl",
         "--output", out],
    ])
    assert (tmp_path / "metrics.json").exists()


def test_rank_static_loads_numpy_and_matches_in_process_run(tmp_path):
    argv = ["rank", "static", *KB_ARGS, "--table", str(FIXTURES / "mini_table.vec"),
            "--vocab", str(FIXTURES / "mini_vocab.txt"), "--output"]
    assert run_fresh([[*argv, str(tmp_path / "fresh")]])
    assert main([*argv, str(tmp_path / "in_process")]) == 0
    name = "predictions_static.jsonl"
    assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "in_process" / name).read_bytes()
