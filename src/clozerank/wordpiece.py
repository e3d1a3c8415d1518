"""Wordpiece vocabulary training and greedy longest-match tokenization."""

import hashlib
import heapq
from collections import Counter
from pathlib import Path

from .jsonio import RowError, open_text

UNK_TOKEN = "[UNK]"
MASK_TOKEN = "[MASK]"
SPECIAL_TOKENS = (UNK_TOKEN, MASK_TOKEN)

CONTINUATION = "##"

# The longest word training keeps and tokenize splits; a longer one is [UNK].
# BERT's tokenizer fixes the same limit (max_input_chars_per_word).
MAX_WORD_LENGTH = 100


def is_token(text: str) -> bool:
    """Whether text is non-empty and holds no whitespace, as every vocabulary
    line and .vec row token must be; str.split() keeps only such text whole."""
    return text.split() == [text]


class SubwordVocab:
    """Token inventory with continuation-marked subwords and special tokens.

    Ids are dense 0..size-1 in the order tokens were added: specials first,
    then the character alphabet, then merged subwords.
    """

    def __init__(self, tokens):
        self.tokens: list[str] = list(tokens)
        self.token_to_id: dict[str, int] = {}
        # Piece -> id, one table per position: word-initial tokens, ## bodies.
        self._initial: dict[str, int] = {}
        self._continuation: dict[str, int] = {}
        for i, tok in enumerate(self.tokens):
            if not is_token(tok):
                raise RowError(i, f"token {tok!r} holds whitespace" if tok
                               else "empty token in vocabulary")
            if tok == CONTINUATION:
                raise RowError(i, f"continuation token {tok!r} has no content")
            if self.token_to_id.setdefault(tok, i) != i:
                raise RowError(i, f"duplicate token {tok!r}")
            if tok.startswith(CONTINUATION):
                self._continuation[tok[len(CONTINUATION):]] = i
            else:
                self._initial[tok] = i
        for special in SPECIAL_TOKENS:
            if special not in self.token_to_id:
                raise ValueError(f"missing special token {special!r}")
        self.unk_id = self.token_to_id[UNK_TOKEN]
        self._max_initial_len = max(map(len, self._initial))
        self._max_cont_len = max(map(len, self._continuation), default=1)

    @property
    def size(self) -> int:
        return len(self.tokens)

    def prefix(self, size: int) -> "SubwordVocab":
        """The first size tokens: the vocabulary that training on the same
        corpus to target_size=size gives, cut from one trained further.

        Every merged token is at least two characters long, so the tokens of
        one character (after the continuation marker) are the alphabet.
        """
        base_size = sum(tok in SPECIAL_TOKENS or len(tok.removeprefix(CONTINUATION)) == 1
                        for tok in self.tokens)
        _check_target_size(size, base_size)
        return SubwordVocab(self.tokens[:size])

    def ids_to_tokens(self, ids) -> list[str]:
        return [self.tokens[i] for i in ids]

    def save(self, path) -> None:
        """Write one token per line; the line number is the token id."""
        Path(path).write_text("".join(t + "\n" for t in self.tokens), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "SubwordVocab":
        """Read one token per line; errors name path:LINE, or path for a missing special.

        Lines end at LF, CRLF or CR only, so that the line number is the token
        id; any other separator that str.splitlines knows stays in its line.
        """
        with open_text(path) as f:
            lines = [line.removesuffix("\n") for line in f]
        try:
            return cls(lines)
        except ValueError as exc:
            where = f"{path}:{exc.row + 1}" if isinstance(exc, RowError) else path
            raise ValueError(f"{where}: {exc}") from None


def _word_symbols(word: str) -> list[str]:
    return [word[0]] + [CONTINUATION + ch for ch in word[1:]]


def _check_target_size(target_size: int, base_size: int) -> None:
    if target_size < base_size:
        raise ValueError(f"target_size {target_size} below alphabet+specials ({base_size})")


def train_wordpiece(corpus, target_size: int) -> SubwordVocab:
    """Train a wordpiece vocabulary from an iterable of text lines.

    Words are whitespace-split, no normalization or lowercasing, and every
    word of up to MAX_WORD_LENGTH characters is kept. The merge loop
    repeatedly joins the adjacent symbol pair maximizing
    freq(ab) / (freq(a) * freq(b)) over the current segmentations, with ties
    broken by the lexicographically smaller merged string, then by the pair
    that entered the pair counts first, until the vocabulary reaches
    target_size or no pairs remain. The target only decides when to stop,
    so a smaller vocabulary is a prefix of a larger one.
    """
    word_freq: Counter[str] = Counter()
    for line in corpus:
        word_freq.update(line.split())
    if not word_freq:
        raise ValueError("corpus is empty")

    retained = {w: f for w, f in word_freq.items() if len(w) <= MAX_WORD_LENGTH}
    if not retained:
        raise ValueError(f"no words retained: every word is over {MAX_WORD_LENGTH} characters")

    segmentations = []
    freqs = []
    for word in sorted(retained):
        segmentations.append(_word_symbols(word))
        freqs.append(retained[word])

    alphabet = sorted({sym for seg in segmentations for sym in seg})
    base_size = len(SPECIAL_TOKENS) + len(alphabet)
    _check_target_size(target_size, base_size)

    tokens = list(SPECIAL_TOKENS) + alphabet
    vocab_set = set(tokens)

    token_freq: Counter[str] = Counter()
    pair_freq: dict[tuple[str, str], int] = {}
    pair_words: dict[tuple[str, str], set[int]] = {}
    for idx, (seg, f) in enumerate(zip(segmentations, freqs)):
        for sym in seg:
            token_freq[sym] += f
        for pair in zip(seg, seg[1:]):
            pair_freq[pair] = pair_freq.get(pair, 0) + f
            pair_words.setdefault(pair, set()).add(idx)

    # The best pair sits on a lazy max-heap of (-score, merged, seq, pair).
    # seq numbers the pairs in the order they (re-)entered pair_freq, which
    # breaks ties between pairs with one score and one merged string. A
    # fresh entry is pushed whenever a pair's score or seq changes, so an
    # entry is stale, and dropped on pop, unless it equals its pair's entry now.
    pair_seq = {pair: seq for seq, pair in enumerate(pair_freq)}
    next_seq = len(pair_seq)
    # Symbol -> pairs holding it; dead pairs are dropped when a set is read.
    sym_pairs: dict[str, set[tuple[str, str]]] = {}

    def index(pairs):
        for pair in pairs:
            sym_pairs.setdefault(pair[0], set()).add(pair)
            sym_pairs.setdefault(pair[1], set()).add(pair)

    def live_pairs(sym):
        live = sym_pairs.pop(sym, set()) & pair_freq.keys()
        if live:
            sym_pairs[sym] = live
        return live

    def entries(pairs):
        return [(-(pair_freq[p] / (token_freq[p[0]] * token_freq[p[1]])),
                 p[0] + p[1][len(CONTINUATION):], pair_seq[p], p) for p in pairs]

    index(pair_freq)
    heap = entries(pair_freq)
    heapq.heapify(heap)

    while len(tokens) < target_size and heap:
        top = heapq.heappop(heap)
        best_merged, best_pair = top[1], top[3]
        if best_pair not in pair_freq or entries((best_pair,))[0] != top:
            continue
        left, right = best_pair
        # Word-initial merges that would collide with the continuation marker
        # (e.g. "#" + "###") are never eligible.
        if not left.startswith(CONTINUATION) and best_merged.startswith(CONTINUATION):
            continue

        if best_merged not in vocab_set:
            tokens.append(best_merged)
            vocab_set.add(best_merged)

        entered = []
        for idx in sorted(pair_words[best_pair]):
            seg = segmentations[idx]
            f = freqs[idx]
            for sym in seg:
                token_freq[sym] -= f
            for pair in zip(seg, seg[1:]):
                pair_freq[pair] -= f
                if pair_freq[pair] <= 0:
                    del pair_freq[pair]
                    del pair_seq[pair]
                words = pair_words.get(pair)
                if words is not None:
                    words.discard(idx)
                    if not words:
                        del pair_words[pair]
            new_seg = []
            i = 0
            while i < len(seg):
                if i + 1 < len(seg) and seg[i] == left and seg[i + 1] == right:
                    new_seg.append(best_merged)
                    i += 2
                else:
                    new_seg.append(seg[i])
                    i += 1
            segmentations[idx] = new_seg
            for sym in new_seg:
                token_freq[sym] += f
            for pair in zip(new_seg, new_seg[1:]):
                if pair in pair_freq:
                    pair_freq[pair] += f
                else:
                    pair_freq[pair] = f
                    pair_seq[pair] = next_seq
                    next_seq += 1
                    entered.append(pair)
                pair_words.setdefault(pair, set()).add(idx)

        # Only the counts of left, right and best_merged changed, so only
        # pairs holding one of them, or with a new seq, need a fresh entry.
        index(entered)
        touched = set(entered).union(*map(live_pairs, (left, right, best_merged)))
        for item in entries(touched & pair_freq.keys()):
            heapq.heappush(heap, item)
        # Stale entries and dead pairs would otherwise pile up: keep the heap
        # and the symbol index O(live pairs).
        if len(heap) > 2 * len(pair_freq) + 1024:
            heap.clear()
            heap.extend(entries(pair_freq))
            heapq.heapify(heap)
            for sym in list(sym_pairs):
                live_pairs(sym)

    return SubwordVocab(tokens)


def tokenize(vocab: SubwordVocab, text: str) -> list[int]:
    """Tokenize text to ids: whitespace split, then greedy longest match.

    A word's first piece is its longest prefix among the tokens without ##
    (specials included), each later piece the longest ## token that follows.
    A word that cannot be segmented so, or is longer than MAX_WORD_LENGTH,
    becomes a single [UNK]. Total over all strings.
    """
    ids: list[int] = []
    for word in text.split():
        ids.extend(_tokenize_word(vocab, word))
    return ids


def _tokenize_word(vocab: SubwordVocab, word: str) -> list[int]:
    if len(word) > MAX_WORD_LENGTH:
        return [vocab.unk_id]
    table = vocab._initial
    if word in table:  # the loop's first probe, without its set-up
        return [table[word]]
    pieces, pos, n, max_len = [], 0, len(word), vocab._max_initial_len
    while pos < n:
        end = min(n, pos + max_len)
        piece = word[pos:end]
        while piece not in table:
            end -= 1
            if end == pos:
                return [vocab.unk_id]
            piece = word[pos:end]
        pieces.append(table[piece])
        pos = end
        table, max_len = vocab._continuation, vocab._max_cont_len
    return pieces


def corpus_checksum(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
