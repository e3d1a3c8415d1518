"""Run one clozerank CLI command with span recording around each layer call.

Usage: python traced.py SPANS_JSON RUN_ID COMMAND -- <clozerank arguments>

Every public function defined in the layer modules the CLI reaches as
``module.function`` is replaced by a wrapper that records a span (name,
start, end, parent span, run id), then ``clozerank.cli.main`` runs as usual.
Calls made once per line or token are aggregated into a count plus total
time instead of one span each. Spans stay in memory and are written to
SPANS_JSON when the command ends, which must lie outside the command's
``--output`` directory.

Functions a module imported by name from another module (``compose`` and
``tokenize`` inside ``ranking``) keep their original binding, so their time
stays in the caller's span.
"""

import time

STARTED = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

# energy is arithmetic only and no workload runs it.
LAYERS = ("wordpiece", "embeddings", "kb", "ranking", "metrics")
AGGREGATED = {"wordpiece.tokenize", "wordpiece.corpus_checksum",
              "embeddings.char_ngram_buckets"}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """In-memory spans of one command; span 0 is the CLI command itself."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.aggregates: dict[str, dict] = {}
        self.child_s: dict[int, float] = {}
        self.stack: list[int] = []

    def open(self, name: str, start: float) -> int:
        span_id = len(self.spans)
        self.spans.append({"id": span_id, "name": name, "start": start,
                           "end": None, "parent": self.stack[-1] if self.stack else None,
                           "run": self.run_id})
        self.stack.append(span_id)
        return span_id

    def close(self, span_id: int, end: float) -> None:
        span = self.spans[span_id]
        span["end"] = end
        span["maxrss_mb"] = _maxrss_mb()
        self.stack.pop()
        if span["parent"] is not None:
            self.child_s[span["parent"]] = (self.child_s.get(span["parent"], 0.0)
                                            + end - span["start"])

    def add(self, name: str, seconds: float, items: int) -> None:
        agg = self.aggregates.setdefault(name, {"calls": 0, "s": 0.0, "items": 0})
        agg["calls"] += 1
        agg["s"] += seconds
        agg["items"] += items
        parent = self.stack[-1]
        self.child_s[parent] = self.child_s.get(parent, 0.0) + seconds

    def wrap(self, name: str, fn):
        if name in AGGREGATED:
            @functools.wraps(fn)
            def aggregated(*args, **kwargs):
                start = time.perf_counter()
                result = fn(*args, **kwargs)
                self.add(name, time.perf_counter() - start,
                         len(result) if isinstance(result, list) else 0)
                return result
            return aggregated

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span_id = self.open(name, time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span_id, time.perf_counter())
        return spanned

    def instrument(self, modules) -> None:
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(value)
                        or value.__module__ != module.__name__):
                    continue
                setattr(module, attr, self.wrap(f"{layer}.{attr}", value))

    def payload(self, import_s: float) -> dict:
        for span in self.spans:
            span["self_s"] = span["end"] - span["start"] - self.child_s.get(span["id"], 0.0)
        return {"run": self.run_id, "import_s": import_s, "spans": self.spans,
                "aggregates": self.aggregates}


def main(argv) -> int:
    spans_path, run_id, command, sep, *cli_argv = argv
    if sep != "--":
        raise SystemExit("usage: traced.py SPANS_JSON RUN_ID COMMAND -- <clozerank arguments>")
    from clozerank import cli
    modules = [importlib.import_module(f"clozerank.{name}") for name in LAYERS]
    import_s = time.perf_counter() - STARTED

    recorder = Recorder(run_id)
    recorder.instrument(modules)
    cli_span = recorder.open(f"cli.{command}", time.perf_counter())
    try:
        code = cli.main(cli_argv)
    finally:
        recorder.close(cli_span, time.perf_counter())
    with open(spans_path, "w", encoding="utf-8") as f:
        json.dump(recorder.payload(import_s), f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
