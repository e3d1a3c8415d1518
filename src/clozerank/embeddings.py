"""Subword-augmented skip-gram embeddings: training, composition, I/O."""

from __future__ import annotations

import importlib.util
import sys
from collections import Counter
from dataclasses import dataclass

from .jsonio import RowError, open_text
from .wordpiece import SubwordVocab


def _lazy_import(name: str):
    """Module name, whose import runs on its first attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ImportError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# The package's only numpy handle, so commands that touch no vector skip numpy's
# import. Private, so that walking the public attributes does not load it.
_np = _lazy_import("numpy")

SERIALIZATION_DECIMALS = 5


@dataclass(frozen=True)
class EmbedTrainConfig:
    """Hyperparameters for skip-gram training with negative sampling.

    char_ngram_min/max of 0 disable character n-grams entirely.
    """

    dim: int = 300
    window: int = 5
    negatives: int = 5
    epochs: int = 5
    learning_rate: float = 0.05
    min_count: int = 5
    char_ngram_min: int = 3
    char_ngram_max: int = 6
    ngram_buckets: int = 2_000_000
    seed: int = 1

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError(f"dim must be positive, got {self.dim}")
        for name in ("window", "negatives", "epochs", "min_count", "ngram_buckets"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.char_ngram_min < 0 or self.char_ngram_max < 0:
            raise ValueError("char n-gram bounds must be non-negative (0 disables)")
        if self.ngrams_enabled and self.char_ngram_min > self.char_ngram_max:
            raise ValueError("char_ngram_min must not exceed char_ngram_max")

    @property
    def ngrams_enabled(self) -> bool:
        return self.char_ngram_min > 0 and self.char_ngram_max > 0


class EmbeddingTable:
    """Token string -> d-dimensional vector store: row entries[token] of matrix."""

    def __init__(self, dim: int, tokens=(), matrix=None):
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.entries: dict[str, int] = {}
        for row, token in enumerate(tokens):
            if self.entries.setdefault(token, row) != row:
                raise RowError(row, f"duplicate token {token!r}")
        self.matrix = _np.ascontiguousarray(
            _np.zeros((0, dim)) if matrix is None else matrix, dtype=_np.float32)
        if self.matrix.shape != (len(self), dim):
            raise ValueError(f"matrix shape {self.matrix.shape} is not ({len(self)}, {dim})")
        bad = _np.flatnonzero(~_np.isfinite(self.matrix).all(axis=1))
        if bad.size:
            token = list(self.entries)[bad[0]]
            raise RowError(int(bad[0]), f"vector for {token!r} contains NaN/Inf")

    def __len__(self) -> int:
        return len(self.entries)

    def vector(self, token: str) -> _np.ndarray:
        return self.matrix[self.entries[token]]

    def scaled(self, factor: float) -> "EmbeddingTable":
        """New table with every vector multiplied by a positive scalar."""
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return EmbeddingTable(self.dim, self.entries, self.matrix * _np.float32(factor))


def compose(table: EmbeddingTable, tokens) -> tuple[_np.ndarray, tuple[str, ...]]:
    """(Arithmetic mean of the token vectors in float64, tokens absent from the table).

    Absent tokens contribute a zero vector and are returned instead of
    raising; candidate strings may contain rare pieces. The present rows are
    summed in token order, starting from +0.0.
    """
    tokens = list(tokens)
    if not tokens:
        raise ValueError("cannot compose an empty token sequence")
    rows = [table.entries.get(tok) for tok in tokens]
    total = _np.zeros(table.dim, dtype=_np.float64)
    for vec in table.matrix[[row for row in rows if row is not None]]:
        total += vec
    missing = tuple(tok for tok, row in zip(tokens, rows) if row is None)
    return total / len(tokens), missing


def _fnv1a(data: bytes) -> int:
    h = 2166136261
    for byte in data:
        h ^= byte
        h = (h * 16777619) & 0xFFFFFFFF
    return h


def char_ngram_buckets(token: str, nmin: int, nmax: int, buckets: int) -> list[int]:
    """Hashed bucket ids for the character n-grams of a boundary-wrapped token.

    The token string is used as-is, continuation marker included.
    """
    wrapped = "<" + token + ">"
    ids = []
    for n in range(nmin, nmax + 1):
        if n > len(wrapped):
            break
        for i in range(len(wrapped) - n + 1):
            ids.append(_fnv1a(wrapped[i:i + n].encode("utf-8")) % buckets)
    return ids


def _sigmoid(x):
    return 1.0 / (1.0 + _np.exp(-x, dtype=_np.float64))


def train_static_embeddings(tokenized_corpus, vocab: SubwordVocab,
                            cfg: EmbedTrainConfig, workers: int = 1) -> EmbeddingTable:
    """Train skip-gram embeddings with negative sampling over token-id sequences.

    Tokens occurring at least cfg.min_count times receive vectors. A center
    token's hidden vector is the mean of its input rows (its own row plus its
    hashed character n-gram rows). One batched step per center scores every
    context token in its window and cfg.negatives unigram^0.75 samples per
    context token. The stored vector for a token is the mean of its word row
    and its n-gram rows. Only n-gram buckets in use get a row, so memory
    scales with the kept tokens, not with cfg.ngram_buckets.

    Training is single-threaded and bitwise deterministic for a fixed seed;
    workers is accepted for compatibility, and any value but 1 is rejected.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1: training is single-threaded and "
                         f"deterministic, got {workers}")
    sentences = [list(s) for s in tokenized_corpus]
    counts: Counter[int] = Counter()
    for sent in sentences:
        counts.update(sent)
    if not counts:
        raise ValueError("tokenized corpus is empty")
    if max(counts) >= vocab.size or min(counts) < 0:
        raise ValueError("token id out of range for the given vocabulary")

    kept_ids = sorted(tid for tid, c in counts.items() if c >= cfg.min_count)
    if not kept_ids:
        raise ValueError(f"no token reaches min_count={cfg.min_count}")
    row_of = {tid: row for row, tid in enumerate(kept_ids)}
    n_tokens = len(kept_ids)

    # Input rows: one per kept token, then one per n-gram bucket in use,
    # numbered in order of first use. Tokens whose n-grams hash to the same
    # bucket share its row, exactly as in the full bucket table.
    bucket_row: dict[int, int] = {}
    subword_rows = []
    for row, tid in enumerate(kept_ids):
        grams = []
        if cfg.ngrams_enabled:
            grams = char_ngram_buckets(
                vocab.tokens[tid], cfg.char_ngram_min, cfg.char_ngram_max,
                cfg.ngram_buckets,
            )
        subword_rows.append(_np.array(
            [row] + [n_tokens + bucket_row.setdefault(g, len(bucket_row)) for g in grams]
        ))

    rng = _np.random.default_rng(cfg.seed)
    vec_in = rng.random((n_tokens + len(bucket_row), cfg.dim), dtype=_np.float32)
    vec_in -= _np.float32(0.5)
    vec_in *= _np.float32(2.0 / cfg.dim)
    vec_out = _np.zeros((n_tokens, cfg.dim), dtype=_np.float32)

    freq = _np.array([counts[tid] for tid in kept_ids], dtype=_np.float64)
    noise = freq ** 0.75
    noise_cdf = _np.cumsum(noise / noise.sum())
    noise_cdf[-1] = 1.0  # float cumsum can top out a hair below 1.0

    def draw(k):
        return _np.searchsorted(noise_cdf, rng.random(k))

    filtered = [[row_of[t] for t in sent if t in row_of] for sent in sentences]
    filtered = [sent for sent in filtered if sent]
    total_tokens = sum(len(s) for s in filtered) * cfg.epochs
    if total_tokens == 0:
        raise ValueError("corpus has no trainable tokens")

    processed = 0
    for _ in range(cfg.epochs):
        for sent in filtered:
            for pos, center in enumerate(sent):
                alpha = cfg.learning_rate * max(1e-4, 1.0 - processed / total_tokens)
                processed += 1
                b = int(rng.integers(1, cfg.window + 1))
                ctx = _np.array(sent[max(0, pos - b):pos] + sent[pos + 1:pos + b + 1])
                if ctx.size == 0:
                    continue
                negs = draw((len(ctx), cfg.negatives))
                while n_tokens > 1:
                    clash = negs == ctx[:, None]
                    if not clash.any():
                        break
                    negs[clash] = draw(int(clash.sum()))
                targets = _np.concatenate([ctx, negs.ravel()])
                rows = subword_rows[center]
                inv_rows = _np.float32(1.0 / len(rows))
                hidden = vec_in[rows].sum(axis=0) * inv_rows
                out = vec_out[targets]
                err = _sigmoid(out @ hidden)
                err[:len(ctx)] -= 1.0  # score minus label: 1 for contexts, 0 for negatives
                g = (-alpha * err).astype(_np.float32)
                grad_h = g @ out
                _np.add.at(vec_out, targets, g[:, None] * hidden)
                vec_in[rows] += grad_h * inv_rows  # a row listed twice is updated once

    means = _np.empty((n_tokens, cfg.dim), dtype=_np.float32)
    for row, rows in enumerate(subword_rows):
        means[row] = vec_in[rows].mean(axis=0, dtype=_np.float64)
    return EmbeddingTable(cfg.dim, [vocab.tokens[tid] for tid in kept_ids], means)


def save_table(table: EmbeddingTable, path) -> None:
    """Write the text format: header "count dim", then "token v1 .. vd" rows."""
    for token in table.entries:
        if not token or any(ch.isspace() for ch in token):
            raise ValueError(
                f"cannot save token {token!r}: tokens must be non-empty "
                "and contain no whitespace"
            )
    row_format = "%s" + f" %.{SERIALIZATION_DECIMALS}f" * table.dim + "\n"
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{len(table)} {table.dim}\n")
        for token, vec in zip(table.entries, table.matrix):
            f.write(row_format % (token, *vec.tolist()))


def load_table(path) -> EmbeddingTable:
    # A value that overflows float32 becomes inf and is rejected as non-finite.
    with open_text(path) as f, _np.errstate(over="ignore"):
        header = f.readline().split()
        if len(header) != 2:
            raise ValueError(f"{path}: malformed header {header!r}")
        try:
            count, dim = int(header[0]), int(header[1])
        except ValueError:
            raise ValueError(f"{path}: malformed header {header!r}") from None
        if dim <= 0 or count < 0:
            raise ValueError(f"{path}: invalid header values {count} {dim}")
        tokens, rows = [], []
        for lineno, line in enumerate(f, start=2):
            parts = line.rstrip("\n").split(" ")
            if len(parts) != dim + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} values, got {len(parts) - 1}"
                )
            try:
                rows.append(_np.array([float(x) for x in parts[1:]], dtype=_np.float32))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric vector value") from None
            tokens.append(parts[0])
    if len(tokens) != count:
        raise ValueError(f"{path}: header declares {count} rows, found {len(tokens)}")
    try:
        return EmbeddingTable(dim, tokens, _np.array(rows).reshape(count, dim))
    except RowError as exc:
        raise ValueError(f"{path}:{exc.row + 2}: {exc}") from None
