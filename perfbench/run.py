"""Seeded end-to-end benchmark of the clozerank CLI pipeline.

Usage (from the repository root):

    python3 perfbench/run.py --workload {train,probe,mlm} --seed N \\
        --seconds S --trace {0,1}

One generator process writes the workload's inputs from the seed, then runs
the whole CLI pipeline, one ``python -m clozerank`` child per command, as
many times as fit in S seconds. Every run checks the outputs against
independent oracles and checks that repeated pipelines write byte-identical
artifacts. Before every other command it also times ``reference.py``, a fixed
program, to measure how fast the host is. With ``--trace 0`` it reports the
end-to-end metrics named in BENCHMARK.json (medians over the repeated
pipelines); with ``--trace 1`` it alternates untraced pipelines with
pipelines run through ``traced.py`` and reports the per-layer metrics. The
last line of stdout is one JSON object.
"""

import argparse
import gc
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
import checks  # noqa: E402
import inputs  # noqa: E402

# Set-up is regenerated this many times before every repetition, so its
# samples spread over the whole window like the pipeline's do.
SETUPS_PER_REP = 5
CHILD_LIMIT_S = 90.0
RUN_LIMIT_S = 150.0
# reference.py runs before every REFERENCE_EVERY-th command. setup_s and
# pipeline_ref_s scale wall times to a host on which it takes REFERENCE_HOST_S.
REFERENCE_EVERY = 2
REFERENCE_HOST_S = 0.2
# The gap between a command's wall time and the spans of its traced run is
# interpreter start-up and exit; more than this means the spans miss work.
UNACCOUNTED_LIMIT_S = 0.25


@dataclass(frozen=True)
class Step:
    name: str
    argv: tuple


def pipeline(workload: str, shape: dict, seed: int) -> list[Step]:
    """The command sequence every workload runs, with paths relative to the work dir."""
    vocab = f"out/vocab/vocab_{shape['vocab_size']}.txt"
    if workload == "probe":
        table, rank_vocab = "in/probe_table.vec", "in/probe_vocab.txt"
    else:
        table, rank_vocab = "out/embed/embeddings.vec", vocab
    kb = ("--triples", "in/triples.jsonl", "--templates", "in/templates.jsonl")
    subset = ("--subset", "in/mlm_ids.txt")
    manifest = "out/manifest/mlm_manifest.jsonl"
    steps = [
        ("build-vocab", ("build-vocab", "--corpus", "in/corpus.txt",
                         "--target-size", str(shape["vocab_size"])), "out/vocab"),
        ("tokenize", ("tokenize", "--vocab", vocab, "--input", "in/corpus.txt"), "out/tok"),
        ("train-embeddings", (
            "train-embeddings", "--vocab", vocab, "--corpus", "in/corpus.txt",
            "--dim", str(shape["dim"]), "--epochs", str(shape["epochs"]),
            "--min-count", str(shape["min_count"]),
            "--hash-buckets", str(shape["hash_buckets"]),
            "--seed", str(seed & 0x7FFFFFFF), "--workers", "1"), "out/embed"),
        ("build-candidates", ("build-candidates", *kb), "out/cand"),
        ("rank-static", ("rank", "static", "--table", table, "--vocab", rank_vocab, *kb),
         "out/static"),
        ("evaluate", ("evaluate", "--predictions", "out/static/predictions_static.jsonl",
                      *kb, "--vocab", rank_vocab), "out/eval_static"),
        ("rank-oracle", ("rank", "oracle", *kb), "out/oracle"),
        ("evaluate", ("evaluate", "--predictions", "out/oracle/predictions_oracle.jsonl",
                      *kb), "out/eval_oracle"),
        ("export-manifest", ("export-manifest", *kb, *subset, "--vocab", vocab),
         "out/manifest"),
        ("stub-score", ("stub-score", "--manifest", manifest), "out/scores"),
        ("rank-mlm", ("rank", "mlm", "--scores", "out/scores/stub_scores.jsonl",
                      "--manifest", manifest, *kb, *subset), "out/mlm"),
        ("evaluate", ("evaluate", "--predictions", "out/mlm/predictions_mlm.jsonl",
                      *kb, *subset), "out/eval_mlm"),
    ]
    return [Step(name, argv + ("--output", out)) for name, argv, out in steps]


def child_env(seed: int) -> dict:
    """Environment of every child: the repo's sources, one BLAS thread, a hash seed.

    The arrays are small, so a second BLAS thread adds only its start-up, which
    made importing clozerank 25 % slower and three times as variable. The hash
    seed follows the workload seed, so a seed always does the same work.
    """
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(seed & 0xFFFFFFFF)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, cwd: Path, env: dict, log: Path) -> tuple[float, int, float]:
    """Run one command to completion: (wall seconds, exit code, peak RSS MB)."""
    with open(log, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def tree_digest(root: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            digests[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


class Ledger:
    """Attempted and failed operations: commands, output checks, identity checks."""

    def __init__(self):
        self.attempted = defaultdict(int)
        self.failures: list[str] = []

    def record(self, kind: str, label: str, error: str | None) -> None:
        self.attempted[kind] += 1
        if error is not None:
            self.failures.append(f"{kind} {label}: {error}")

    @property
    def total(self) -> int:
        return sum(self.attempted.values())


def run_pipeline(steps, work: Path, env: dict, ledger: Ledger, rep: int,
                 traced: bool) -> dict:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    logs = work / "logs"
    logs.mkdir(exist_ok=True)
    commands, reference = [], []
    started = time.perf_counter()
    for i, step in enumerate(steps):
        spans = work / "trace" / f"{rep}-{i}.json"
        if traced:
            spans.parent.mkdir(exist_ok=True)
            argv = [sys.executable, str(HERE / "traced.py"), str(spans),
                    f"rep{rep}", step.name, "--", *step.argv]
        else:
            argv = [sys.executable, "-m", "clozerank", *step.argv]
        if i % REFERENCE_EVERY == 0:
            ref_wall, ref_code, _ = run_child([sys.executable, str(HERE / "reference.py")],
                                              work, env, logs / f"{rep}-{i}-reference.err")
            ledger.record("command", "reference", f"exit {ref_code}" if ref_code else None)
            reference.append(ref_wall)
        wall, code, rss = run_child(argv, work, env, logs / f"{rep}-{i}.err")
        error = None
        if code != 0:
            tail = (logs / f"{rep}-{i}.err").read_text(errors="replace").strip()[-300:]
            error = f"exit {code}: {tail}"
        ledger.record("command", step.name, error)
        commands.append({"name": step.name, "wall": wall, "rss": rss,
                         "spans": spans if traced and code == 0 else None})
    elapsed = time.perf_counter() - started
    return {"pipeline_s": elapsed - sum(reference), "elapsed_s": elapsed,
            "reference": reference, "commands": commands, "digests": tree_digest(out)}


def measure(setup, steps, work, env, ledger, window_s, trace, deadline) -> list[dict]:
    """Repeat set-up and pipeline while another repetition fits in window_s seconds.

    With trace, repetitions alternate untraced and traced, so both sides see
    the same host drift. There are always at least two repetitions.
    """
    reps = []
    started = time.perf_counter()
    while True:
        setup.run()
        traced = trace and len(reps) % 2 == 1
        reps.append(run_pipeline(steps, work, env, ledger, len(reps), traced))
        reps[-1]["traced"] = traced
        now = time.perf_counter()
        typical = statistics.median(r["elapsed_s"] for r in reps)
        if len(reps) >= 2 and (now - started + typical > window_s
                               or now + typical > deadline):
            return reps


class Setup:
    """Writes the workload's inputs, timing each pass; every pass must match the first."""

    def __init__(self, workload: str, seed: int, work: Path, ledger: Ledger):
        self.workload, self.seed, self.ledger = workload, seed, ledger
        self.in_dir = work / "in"
        self.times: list[float] = []
        self.digest = None

    def run(self) -> None:
        if not self.times:
            self._write()  # warm-up: the first pass also pays for first-time allocation
        for _ in range(SETUPS_PER_REP):
            self.times.append(self._write())
            digest = tree_digest(self.in_dir)
            if self.digest is None:
                self.digest = digest
            else:
                self.ledger.record("identity", f"setup {len(self.times)}",
                                   None if digest == self.digest else "generated inputs differ")

    def _write(self) -> float:
        shutil.rmtree(self.in_dir, ignore_errors=True)
        gc.collect()
        started = time.perf_counter()
        inputs.generate(self.workload, self.seed, self.in_dir)
        return time.perf_counter() - started


def rep_series(reps: list[dict]) -> dict[str, list[float]]:
    """Per-repetition pipeline time, peak RSS and wall time of each command."""
    series = defaultdict(list)
    for rep in reps:
        walls = defaultdict(float)
        for cmd in rep["commands"]:
            walls[cmd["name"]] += cmd["wall"]
        series["pipeline_s"].append(rep["pipeline_s"])
        series["peak_rss_mb"].append(max(cmd["rss"] for cmd in rep["commands"]))
        for name, wall in walls.items():
            series[f"cli.{name}.wall_s"].append(wall)
    return dict(series)


def check_identity(reps: list[dict], ledger: Ledger) -> None:
    reference = reps[0]["digests"]
    for i, rep in enumerate(reps[1:], start=1):
        differ = sorted(k for k in set(reference) | set(rep["digests"])
                        if reference.get(k) != rep["digests"].get(k))
        ledger.record("identity", f"pipeline {i}",
                      f"artifacts differ from the first run: {differ[:5]}" if differ else None)


def check_reference_vocab(work: Path, env: dict, ledger: Ledger) -> None:
    ref = work / "reference"
    shutil.rmtree(ref, ignore_errors=True)
    corpus = checks.write_reference_corpus(ref)
    argv = [sys.executable, "-m", "clozerank", "build-vocab", "--corpus", corpus.name,
            "--target-size", str(checks.REFERENCE_VOCAB_SIZE), "--output", "out"]
    _, code, _ = run_child(argv, ref, env, ref / "build-vocab.err")
    error = f"build-vocab exit {code}" if code else checks.reference_vocab_error(ref / "out")
    ledger.record("check", "vocab_reference", error)


def trace_metrics(reps: list[dict], ledger: Ledger) -> dict[str, float]:
    per_rep = [checks.layer_timings(rep["commands"]) for rep in reps]
    for rep in reps:
        for cmd in rep["commands"]:
            if cmd["spans"] is None:
                continue
            gap = checks.unaccounted_s(cmd)
            ledger.record("check", f"trace_accounting {cmd['name']}",
                          None if 0.0 <= gap <= UNACCOUNTED_LIMIT_S else
                          f"wall {cmd['wall']:.3f}s, spans miss {gap:.3f}s")
    keys = set().union(*per_rep)
    return {key: statistics.median(v.get(key, 0.0) for v in per_rep) for key in keys}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "clozerank" / "cli.py", ROOT / "tests" / "oracles.py",
                           ROOT / "BENCHMARK.json") if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(map(str, missing))}; run from a "
              "clozerank checkout", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as f:
        spec = json.load(f)
    deadline = time.perf_counter() + RUN_LIMIT_S

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(args.seed)
    ledger = Ledger()
    try:
        shape = inputs.SHAPES[args.workload]
        setup = Setup(args.workload, args.seed, work, ledger)
        steps = pipeline(args.workload, shape, args.seed)
        reps = measure(setup, steps, work, env, ledger, args.seconds, bool(args.trace),
                       deadline)
        plain = [r for r in reps if not r["traced"]]
        traced = [r for r in reps if r["traced"]]
        check_identity(reps, ledger)
        for name, error in checks.output_checks(args.workload, shape, work):
            ledger.record("check", name, error)
        check_reference_vocab(work, env, ledger)

        series = rep_series(plain)
        series["setup.wall_s"] = setup.times
        values = {key: statistics.median(v) for key, v in series.items()}
        values["pipeline.wall_s"] = values["pipeline_s"]
        values["host.reference_s"] = statistics.median(t for r in plain for t in r["reference"])
        host_scale = REFERENCE_HOST_S / values["host.reference_s"]
        values["pipeline_ref_s"] = values["pipeline_s"] * host_scale
        values["setup_s"] = values["setup.wall_s"] * host_scale
        if args.trace:
            values.update(trace_metrics(traced, ledger))
            values.update(checks.counters(args.workload, shape, work, ROOT))
            values["trace.overhead_s"] = (
                statistics.median(r["pipeline_s"] for r in traced)
                - statistics.median(r["pipeline_s"] for r in plain))
            checks.derive_rates(values)
            values["ops_failed_ratio"] = len(ledger.failures) / ledger.total
            wanted = spec["per_layer"]
        else:
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK.iterdir()):
            WORK.rmdir()

    for failure in ledger.failures:
        print(f"FAILED {failure}")
    base = ", ".join(f"{n} {kind}" for kind, n in sorted(ledger.attempted.items()))
    print(f"ops: {len(ledger.failures)} failed of {ledger.total} attempted ({base}); "
          f"{len(reps)} pipeline runs")
    if not args.trace:
        print("median wall per command: " + ", ".join(
            f"{key[4:-7]} {values[key]:.4g} s" for key in series if key.startswith("cli.")))
        print(f"reference program {values['host.reference_s']:.4g} s (median of "
              f"{sum(len(r['reference']) for r in plain)}); setup_s and pipeline_ref_s "
              f"are wall time x {REFERENCE_HOST_S:g} s / reference")
        for label, key in (("set-up", "setup.wall_s"), ("pipeline", "pipeline_s")):
            print(f"{label} wall {values[key]:.6g} s (median of "
                  f"{' '.join(f'{v:.4g}' for v in series[key])})")
    metrics = {}
    for entry in wanted:
        value = values[entry["name"]]
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        samples = series.get(entry["name"], ()) if not args.trace else ()
        print(f"{entry['name']} {value:.6g} {entry['unit']}" + (
            f" (median of {' '.join(f'{v:.4g}' for v in samples)})" if samples else ""))
    print(json.dumps({"correct": not ledger.failures, "attempted": ledger.total,
                      "failed": len(ledger.failures), "metrics": metrics}))
    return 0


def _terminated(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)
    sys.exit(main())
