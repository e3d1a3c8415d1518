"""Subword-augmented skip-gram embeddings: training, composition, I/O.

Each function that touches an array imports numpy itself, so that commands
that touch no vector never load it.
"""

from __future__ import annotations

from .jsonio import RowError, open_text
from .wordpiece import SubwordVocab, is_token


SERIALIZATION_DECIMALS = 5


class EmbedTrainConfig:
    """Hyperparameters for skip-gram training with negative sampling.

    char_ngram_min/max of 0 disable character n-grams entirely.
    """

    __slots__ = ("dim", "window", "negatives", "epochs", "learning_rate", "min_count",
                 "char_ngram_min", "char_ngram_max", "ngram_buckets", "seed")

    def __init__(self, dim: int = 300, window: int = 5, negatives: int = 5, epochs: int = 5,
                 learning_rate: float = 0.05, min_count: int = 5, char_ngram_min: int = 3,
                 char_ngram_max: int = 6, ngram_buckets: int = 2_000_000, seed: int = 1):
        self.dim, self.window, self.negatives, self.epochs = dim, window, negatives, epochs
        self.learning_rate, self.min_count, self.seed = learning_rate, min_count, seed
        self.char_ngram_min, self.char_ngram_max = char_ngram_min, char_ngram_max
        self.ngram_buckets = ngram_buckets
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

    def to_dict(self) -> dict:
        """The settings under their names, as a train-embeddings manifest records them."""
        return {name: getattr(self, name) for name in self.__slots__}


class EmbeddingTable:
    """Token string -> d-dimensional vector store: row entries[token] of matrix."""

    def __init__(self, dim: int, tokens, matrix):
        import numpy as np
        if dim <= 0:
            raise ValueError(f"dim must be positive, got {dim}")
        self.dim = dim
        self.entries: dict[str, int] = {}
        for row, token in enumerate(tokens):
            if self.entries.setdefault(token, row) != row:
                raise RowError(row, f"duplicate token {token!r}")
        self.matrix = np.ascontiguousarray(matrix, dtype=np.float32)
        if self.matrix.shape != (len(self), dim):
            raise ValueError(f"matrix shape {self.matrix.shape} is not ({len(self)}, {dim})")
        bad = np.flatnonzero(~np.isfinite(self.matrix).all(axis=1))
        if bad.size:
            token = list(self.entries)[bad[0]]
            raise RowError(int(bad[0]), f"vector for {token!r} contains NaN/Inf")

    def __len__(self) -> int:
        return len(self.entries)


def compose(table: EmbeddingTable, tokens):
    """(Arithmetic mean of the token vectors in float64, tokens absent from the table).

    Absent tokens contribute a zero vector and are returned instead of
    raising; candidate strings may contain rare pieces. The present rows are
    summed in token order, starting from +0.0.
    """
    import numpy as np
    tokens = list(tokens)
    if not tokens:
        raise ValueError("cannot compose an empty token sequence")
    rows = [table.entries.get(tok) for tok in tokens]
    total = np.zeros(table.dim, dtype=np.float64)
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
    import numpy as np
    # The tanh form overflows nowhere and gives exactly 0 and 1 at the limits.
    return 0.5 + 0.5 * np.tanh(0.5 * x)


# The batch close rule of train_static_embeddings, set by measurement (the runs
# are in CHANGES.md): on criterion 7's four-token corpus, 24 to 48 appearances
# never diverged over 10 to 20 epochs, and on a vocab-300 Zipfian corpus (dim
# 100, 5 epochs) batches of 256 centers went to NaN while 64 stayed finite.
_BATCH_APPEARANCES = 44
_BATCH_CENTERS = 64


def _batch_bounds(corpus, row_limit: int, max_centers: int) -> list[int]:
    """Batch starts, then len(corpus): no batch holds a row more than row_limit times."""
    import numpy as np
    # back[p]: the position row_limit occurrences before p holding the same row, or -1.
    by_row = np.argsort(corpus, kind="stable")
    back = np.full(corpus.size, -1)
    same = corpus[by_row[row_limit:]] == corpus[by_row[:-row_limit]]
    back[by_row[row_limit:][same]] = by_row[:-row_limit][same]
    bounds = [0]
    while bounds[-1] < corpus.size:
        start = bounds[-1]
        over = np.flatnonzero(back[start:start + max_centers] >= start)
        bounds.append(start + int(over[0]) if over.size
                      else min(start + max_centers, corpus.size))
    return bounds


def _groups(rows):
    """(stable order sorting rows, each distinct row, where its run starts in that order).

    matrix[distinct] += np.add.reduceat(values[order], starts, axis=0) adds
    values to rows, summing a repeated row's values; np.add.at on 2-D values
    would add one element at a time.
    """
    import numpy as np
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    starts = np.flatnonzero(np.concatenate(([True], rows[1:] != rows[:-1])))
    return order, rows[starts], starts


def train_static_embeddings(tokenized_corpus, vocab: SubwordVocab,
                            cfg: EmbedTrainConfig) -> EmbeddingTable:
    """Train skip-gram embeddings with negative sampling over token-id sequences.

    Tokens occurring at least cfg.min_count times receive vectors. A center
    token's hidden vector is the mean of its input rows (its own row plus its
    hashed character n-gram rows). Each center scores every context token in a
    window of 1 to cfg.window tokens either side, cut at the ends of its line,
    and cfg.negatives unigram^0.75 samples per context token.

    Training takes one step per batch of consecutive center positions. A batch
    closes before any kept row would appear more than _BATCH_APPEARANCES times
    in it, a center position counting 1 + 2 * cfg.window appearances, or at
    _BATCH_CENTERS centers. Every read in a batch sees the rows as they stood
    before it, and the updates to a row listed more than once in a batch sum:
    the exact gradient of the batch's loss.

    The stored vector for a token is the mean of its word row and its n-gram
    rows. Only n-gram buckets in use get a row, so memory scales with the kept
    tokens, not with cfg.ngram_buckets.

    Training is single-threaded and bitwise deterministic for a fixed seed.
    """
    import numpy as np
    lengths: list[int] = []

    def token_ids():
        for sent in tokenized_corpus:
            lengths.append(len(sent))
            yield from sent

    ids = np.fromiter(token_ids(), dtype=np.int64)
    if not ids.size:
        raise ValueError("tokenized corpus is empty")
    if ids.max() >= vocab.size or ids.min() < 0:
        raise ValueError("token id out of range for the given vocabulary")

    counts = np.bincount(ids, minlength=vocab.size)
    kept_ids = np.flatnonzero(counts >= cfg.min_count)
    if not kept_ids.size:
        raise ValueError(f"no token reaches min_count={cfg.min_count}")
    n_tokens = kept_ids.size

    # The corpus as one flat array of kept rows; line i is corpus[offsets[i]:offsets[i + 1]].
    row_of = np.full(vocab.size, -1)
    row_of[kept_ids] = np.arange(n_tokens)
    corpus = row_of[ids]
    kept = corpus >= 0
    offsets = np.concatenate(([0], np.cumsum(kept)))[np.cumsum([0] + lengths)]
    corpus = corpus[kept]
    del ids, kept

    # Input rows: one per kept token, then one per n-gram bucket in use,
    # numbered in order of first use. Tokens whose n-grams hash to the same
    # bucket share its row, exactly as in the full bucket table. Token row r
    # reads in_rows[in_ptr[r]:in_ptr[r + 1]]: its own row, then its n-gram rows.
    bucket_row: dict[int, int] = {}
    in_rows, in_ptr = [], [0]
    for row, tid in enumerate(kept_ids):
        in_rows.append(row)
        if cfg.ngrams_enabled:
            grams = char_ngram_buckets(vocab.tokens[tid], cfg.char_ngram_min,
                                       cfg.char_ngram_max, cfg.ngram_buckets)
            in_rows.extend(n_tokens + bucket_row.setdefault(g, len(bucket_row))
                           for g in grams)
        in_ptr.append(len(in_rows))
    in_rows, in_ptr = np.array(in_rows), np.array(in_ptr)
    in_len = np.diff(in_ptr)

    rng = np.random.default_rng(cfg.seed)
    vec_in = rng.random((n_tokens + len(bucket_row), cfg.dim), dtype=np.float32)
    vec_in -= np.float32(0.5)
    vec_in *= np.float32(2.0 / cfg.dim)
    vec_out = np.zeros((n_tokens, cfg.dim), dtype=np.float32)

    noise = counts[kept_ids].astype(np.float64) ** 0.75
    noise_cdf = np.cumsum(noise / noise.sum())
    noise_cdf[-1] = 1.0  # float cumsum can top out a hair below 1.0

    def draw(k):
        return np.searchsorted(noise_cdf, rng.random(k))

    bounds = _batch_bounds(corpus, max(1, _BATCH_APPEARANCES // (1 + 2 * cfg.window)),
                           _BATCH_CENTERS)
    shifts = np.concatenate((np.arange(-cfg.window, 0), np.arange(1, cfg.window + 1)))
    targets_per_pair = 1 + cfg.negatives
    # The output rows of a batch's targets, then their updates: a step's largest array.
    step_buffer = np.empty(_BATCH_CENTERS * shifts.size * targets_per_pair * cfg.dim,
                           dtype=np.float32)
    total_tokens = corpus.size * cfg.epochs
    processed = 0
    for _ in range(cfg.epochs):
        for start, stop in zip(bounds, bounds[1:]):
            alpha = cfg.learning_rate * max(1e-4, 1.0 - processed / total_tokens)
            processed += stop - start
            centers = np.arange(start, stop)
            line = np.searchsorted(offsets, centers, side="right") - 1
            reach = rng.integers(1, cfg.window + 1, size=centers.size)
            pos = centers[:, None] + shifts
            in_window = ((np.abs(shifts) <= reach[:, None])
                         & (pos >= offsets[line, None]) & (pos < offsets[line + 1, None]))
            ctx = corpus[pos[in_window]]  # center-major, left to right
            if not ctx.size:
                continue
            negs = draw((ctx.size, cfg.negatives))
            while n_tokens > 1:
                clash = negs == ctx[:, None]
                if not clash.any():
                    break
                negs[clash] = draw(int(clash.sum()))
            targets = np.concatenate((ctx[:, None], negs), axis=1)

            # The centers with a pair, and their input rows through the CSR.
            pairs = in_window.sum(axis=1)
            tok = corpus[start:stop][pairs > 0]
            pairs = pairs[pairs > 0]
            lens = in_len[tok]
            seg = np.cumsum(lens) - lens
            rows = in_rows[np.repeat(in_ptr[tok] - seg, lens) + np.arange(lens.sum())]
            inv_len = (1.0 / lens).astype(np.float32)[:, None]
            hidden = np.add.reduceat(vec_in[rows], seg, axis=0) * inv_len
            hidden = hidden[np.repeat(np.arange(tok.size), pairs)]

            out = step_buffer[:targets.size * cfg.dim].reshape(*targets.shape, cfg.dim)
            np.take(vec_out, targets, axis=0, out=out)
            g = _sigmoid(np.einsum("ptd,pd->pt", out, hidden))
            g[:, 0] -= 1.0  # score minus label: 1 for contexts, 0 for negatives
            g *= -alpha
            grad_h = np.add.reduceat(np.einsum("pt,ptd->pd", g, out),
                                     np.cumsum(pairs) - pairs, axis=0) * inv_len
            # out is spent: its buffer takes the vec_out updates, in sorted order.
            order, distinct, starts = _groups(targets.ravel())
            updates = out.reshape(-1, cfg.dim)
            np.take(hidden, order // targets_per_pair, axis=0, out=updates)
            updates *= g.ravel()[order, None]
            vec_out[distinct] += np.add.reduceat(updates, starts, axis=0)
            order, distinct, starts = _groups(rows)
            row_center = np.repeat(np.arange(tok.size), lens)
            vec_in[distinct] += np.add.reduceat(grad_h[row_center[order]], starts, axis=0)

    # Each stored vector is the float64 mean of the token's input rows, summed
    # _BATCH_CENTERS tokens at a time so that the gather stays batch-sized.
    means = np.empty((n_tokens, cfg.dim), dtype=np.float32)
    for lo in range(0, n_tokens, _BATCH_CENTERS):
        block = slice(lo, min(lo + _BATCH_CENTERS, n_tokens))
        rows = in_rows[in_ptr[lo]:in_ptr[block.stop]]
        means[block] = np.add.reduceat(vec_in[rows], in_ptr[block] - in_ptr[lo], axis=0,
                                       dtype=np.float64) / in_len[block, None]
    return EmbeddingTable(cfg.dim, [vocab.tokens[tid] for tid in kept_ids], means)


def save_table(table: EmbeddingTable, path) -> None:
    """Write the text format: header "count dim", then "token v1 .. vd" rows."""
    for token in table.entries:
        if not is_token(token):
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
    import numpy as np
    # A value that overflows float32 becomes inf and is rejected as non-finite.
    with open_text(path) as f, np.errstate(over="ignore"):
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
            # fastText's .vec writer ends each row with a space after the last value.
            parts = line.rstrip("\n ").split(" ")
            if len(parts) != dim + 1:
                raise ValueError(
                    f"{path}:{lineno}: expected {dim} values, got {len(parts) - 1}"
                )
            try:
                rows.append(np.array([float(x) for x in parts[1:]], dtype=np.float32))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric vector value") from None
            if not is_token(parts[0]):
                raise ValueError(f"{path}:{lineno}: token {parts[0]!r} is empty or holds "
                                 "whitespace")
            tokens.append(parts[0])
    if len(tokens) != count:
        raise ValueError(f"{path}: header declares {count} rows, found {len(tokens)}")
    try:
        return EmbeddingTable(dim, tokens, np.array(rows).reshape(count, dim))
    except RowError as exc:
        raise ValueError(f"{path}:{exc.row + 2}: {exc}") from None
