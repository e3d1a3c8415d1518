"""Wordpiece vocabulary training and greedy longest-match tokenization."""

import hashlib
from collections import Counter
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .jsonio import read_json, write_json

UNK_TOKEN = "[UNK]"
MASK_TOKEN = "[MASK]"
SPECIAL_TOKENS = (UNK_TOKEN, MASK_TOKEN)

CONTINUATION = "##"


@dataclass(frozen=True)
class VocabTrainConfig:
    """Settings for training a wordpiece vocabulary."""

    target_size: int
    min_frequency: int = 1
    max_word_length: int = 100

    def __post_init__(self):
        if self.target_size <= 0:
            raise ValueError(f"target_size must be positive, got {self.target_size}")
        if self.min_frequency <= 0:
            raise ValueError(f"min_frequency must be positive, got {self.min_frequency}")
        if self.max_word_length <= 0:
            raise ValueError(f"max_word_length must be positive, got {self.max_word_length}")

    def to_dict(self) -> dict:
        return asdict(self)


class SubwordVocab:
    """Token inventory with continuation-marked subwords and special tokens.

    Ids are dense 0..size-1 in the order tokens were added: specials first,
    then the character alphabet, then merged subwords.
    """

    def __init__(self, tokens, max_word_length: int = 100):
        self.tokens: list[str] = list(tokens)
        self.token_to_id: dict[str, int] = {}
        self.max_word_length = max_word_length
        for i, tok in enumerate(self.tokens):
            if tok in self.token_to_id:
                raise ValueError(f"duplicate token {tok!r}")
            self.token_to_id[tok] = i
        for special in SPECIAL_TOKENS:
            if special not in self.token_to_id:
                raise ValueError(f"missing special token {special!r}")
        for tok in self.tokens:
            if tok in SPECIAL_TOKENS:
                continue
            if not tok:
                raise ValueError("empty token in vocabulary")
            if tok.startswith(CONTINUATION) and len(tok) <= len(CONTINUATION):
                raise ValueError(f"continuation token {tok!r} has no content")
        self.unk_id = self.token_to_id[UNK_TOKEN]
        self.mask_id = self.token_to_id[MASK_TOKEN]
        # Longest-match search only needs tokens bucketed by surface form.
        self._initial: set[str] = set()
        self._continuation: set[str] = set()
        self._max_initial_len = 1
        self._max_cont_len = 1
        for tok in self.tokens:
            if tok in SPECIAL_TOKENS:
                continue
            if tok.startswith(CONTINUATION):
                body = tok[len(CONTINUATION):]
                self._continuation.add(body)
                self._max_cont_len = max(self._max_cont_len, len(body))
            else:
                self._initial.add(tok)
                self._max_initial_len = max(self._max_initial_len, len(tok))

    @property
    def size(self) -> int:
        return len(self.tokens)

    def __len__(self) -> int:
        return len(self.tokens)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id_for(self, token: str) -> int:
        return self.token_to_id[token]

    def ids_to_tokens(self, ids) -> list[str]:
        return [self.tokens[i] for i in ids]

    def save(self, path) -> None:
        """Write one token per line; the line number is the token id."""
        Path(path).write_text("".join(t + "\n" for t in self.tokens), encoding="utf-8")

    @classmethod
    def load(cls, path, max_word_length: int | None = None) -> "SubwordVocab":
        """Read one token per line.

        max_word_length defaults to the config.max_word_length recorded in
        the <path>.json sidecar that build-vocab writes, else to 100.
        """
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        sidecar = Path(f"{path}.json")
        if max_word_length is None and sidecar.is_file():
            config = read_json(sidecar).get("config")
            max_word_length = config.get("max_word_length") if isinstance(config, dict) else None
            if type(max_word_length) is not int or max_word_length <= 0:
                raise ValueError(f"{sidecar}: key 'config.max_word_length' must be a "
                                 f"positive integer, got {max_word_length!r}")
        return cls(lines, max_word_length=100 if max_word_length is None else max_word_length)


def _word_symbols(word: str) -> list[str]:
    return [word[0]] + [CONTINUATION + ch for ch in word[1:]]


def _merge_string(left: str, right: str) -> str:
    return left + right[len(CONTINUATION):]


def train_wordpiece(corpus, cfg: VocabTrainConfig) -> SubwordVocab:
    """Train a wordpiece vocabulary from an iterable of text lines.

    Words are whitespace-split, no normalization or lowercasing. The merge
    loop repeatedly joins the adjacent symbol pair maximizing
    freq(ab) / (freq(a) * freq(b)) over the current segmentations, with ties
    broken by the lexicographically smaller merged string, until the
    vocabulary reaches cfg.target_size or no pairs remain.
    """
    word_freq: Counter[str] = Counter()
    for line in corpus:
        word_freq.update(line.split())
    if not word_freq:
        raise ValueError("corpus is empty")

    retained = {
        w: f
        for w, f in word_freq.items()
        if f >= cfg.min_frequency and len(w) <= cfg.max_word_length
    }
    if not retained:
        raise ValueError(
            "no words retained; lower min_frequency or raise max_word_length"
        )

    segmentations = []
    freqs = []
    for word in sorted(retained):
        segmentations.append(_word_symbols(word))
        freqs.append(retained[word])

    alphabet = sorted({sym for seg in segmentations for sym in seg})
    base_size = len(SPECIAL_TOKENS) + len(alphabet)
    if cfg.target_size < base_size:
        raise ValueError(
            f"target_size {cfg.target_size} below alphabet+specials ({base_size})"
        )

    tokens = list(SPECIAL_TOKENS) + alphabet
    vocab_set = set(tokens)

    token_freq: Counter[str] = Counter()
    pair_freq: Counter[tuple[str, str]] = Counter()
    pair_words: dict[tuple[str, str], set[int]] = {}
    for idx, (seg, f) in enumerate(zip(segmentations, freqs)):
        for sym in seg:
            token_freq[sym] += f
        for pair in zip(seg, seg[1:]):
            pair_freq[pair] += f
            pair_words.setdefault(pair, set()).add(idx)

    # Word-initial merges that would collide with the continuation marker
    # (e.g. "#" + "###") are never eligible.
    blocked: set[tuple[str, str]] = set()

    while len(tokens) < cfg.target_size and pair_freq:
        best_pair = None
        best_score = -1.0
        best_merged = None
        for pair, count in pair_freq.items():
            if pair in blocked:
                continue
            score = count / (token_freq[pair[0]] * token_freq[pair[1]])
            if score < best_score:
                continue
            merged = _merge_string(*pair)
            if score > best_score or merged < best_merged:
                best_pair, best_score, best_merged = pair, score, merged
        if best_pair is None:
            break
        if not best_pair[0].startswith(CONTINUATION) and best_merged.startswith(
            CONTINUATION
        ):
            blocked.add(best_pair)
            continue

        if best_merged not in vocab_set:
            tokens.append(best_merged)
            vocab_set.add(best_merged)

        left, right = best_pair
        for idx in sorted(pair_words[best_pair]):
            seg = segmentations[idx]
            f = freqs[idx]
            for sym in seg:
                token_freq[sym] -= f
            for pair in zip(seg, seg[1:]):
                pair_freq[pair] -= f
                if pair_freq[pair] <= 0:
                    del pair_freq[pair]
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
                pair_freq[pair] += f
                pair_words.setdefault(pair, set()).add(idx)

    return SubwordVocab(tokens, max_word_length=cfg.max_word_length)


def tokenize(vocab: SubwordVocab, text: str) -> list[int]:
    """Tokenize text to ids: whitespace split, then greedy longest match.

    A word that cannot be fully segmented, or that exceeds the vocabulary's
    max_word_length, becomes a single [UNK]. Total over all strings.
    """
    ids: list[int] = []
    for word in text.split():
        ids.extend(_tokenize_word(vocab, word))
    return ids


def _tokenize_word(vocab: SubwordVocab, word: str) -> list[int]:
    if len(word) > vocab.max_word_length:
        return [vocab.unk_id]
    # Whole-word fast path; continuation-form entries never match word-initially.
    if word in vocab.token_to_id and not word.startswith(CONTINUATION):
        return [vocab.token_to_id[word]]
    pieces: list[int] = []
    pos = 0
    n = len(word)
    while pos < n:
        if pos == 0:
            table, max_len, prefix = vocab._initial, vocab._max_initial_len, ""
        else:
            table, max_len, prefix = vocab._continuation, vocab._max_cont_len, CONTINUATION
        end = min(n, pos + max_len)
        match = None
        while end > pos:
            piece = word[pos:end]
            if piece in table:
                match = piece
                break
            end -= 1
        if match is None:
            return [vocab.unk_id]
        pieces.append(vocab.token_to_id[prefix + match])
        pos += len(match)
    return pieces


def corpus_checksum(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def save_vocab_with_sidecar(vocab: SubwordVocab, cfg: VocabTrainConfig,
                            vocab_path, corpus_path=None, extra: dict = None) -> None:
    """Write vocab.txt plus a JSON sidecar with config and corpus checksum."""
    vocab.save(vocab_path)
    sidecar = {
        "config": cfg.to_dict(),
        "size": vocab.size,
        "specials": list(SPECIAL_TOKENS),
        "normalization": "none",
        "corpus_sha256": corpus_checksum(corpus_path) if corpus_path else None,
    }
    if extra:
        sidecar.update(extra)
    write_json(f"{vocab_path}.json", sidecar, ensure_ascii=True)
