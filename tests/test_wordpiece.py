import random
import tracemalloc
from collections import Counter

import pytest

from clozerank.wordpiece import (
    CONTINUATION,
    MASK_TOKEN,
    MAX_WORD_LENGTH,
    SPECIAL_TOKENS,
    UNK_TOKEN,
    SubwordVocab,
    tokenize,
    train_wordpiece,
)
from wordpiece_scan import scan_train_wordpiece

N_SPECIALS = len(SPECIAL_TOKENS)


def brute_force_best_merge(word_freq):
    """Enumerate every adjacent symbol pair and score it from scratch."""
    segs = {w: [w[0]] + [CONTINUATION + ch for ch in w[1:]] for w in word_freq}
    sym_freq = Counter()
    pair_freq = Counter()
    for word, n in word_freq.items():
        for sym in segs[word]:
            sym_freq[sym] += n
        for a, b in zip(segs[word], segs[word][1:]):
            pair_freq[(a, b)] += n

    def merged(pair):
        return pair[0] + pair[1][len(CONTINUATION):]

    best = None
    for pair, n in pair_freq.items():
        score = n / (sym_freq[pair[0]] * sym_freq[pair[1]])
        key = (-score, merged(pair))
        if best is None or key < best[0]:
            best = (key, pair)
    return merged(best[1])


class TestTraining:
    def test_best_pair_is_merged(self):
        corpus = ["ab ab ab b"]
        vocab = train_wordpiece(corpus, 50)
        for tok in ("a", "##b", "b"):
            assert tok in vocab.token_to_id
        expected = brute_force_best_merge({"ab": 3, "b": 1})
        assert expected == "ab"
        assert "ab" in vocab.token_to_id
        assert vocab.ids_to_tokens(tokenize(vocab, "ab")) == ["ab"]

    def test_single_char_corpus_has_no_merges(self):
        vocab = train_wordpiece(["x"], N_SPECIALS + 1)
        assert vocab.tokens == list(SPECIAL_TOKENS) + ["x"]

    def test_published_target_sizes_are_valid_configs(self):
        for size in (30000, 120000, 250000, 500000, 1000000):
            assert train_wordpiece(["ab ab b"], size).tokens[-1] == "ab"

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_wordpiece([], 10)
        with pytest.raises(ValueError):
            train_wordpiece(["   ", ""], 10)

    def test_target_below_alphabet_rejected(self):
        # alphabet of "abc" is {a, ##b, ##c}: 3 symbols + specials
        with pytest.raises(ValueError):
            train_wordpiece(["abc"], N_SPECIALS + 2)

    @pytest.mark.parametrize("corpus", [
        ["a" * (MAX_WORD_LENGTH + 1), "b" * (MAX_WORD_LENGTH + 2)],
    ], ids=["word-over-100"])
    def test_no_word_retained_rejected(self, corpus):
        with pytest.raises(ValueError, match="no words retained: every word is over 100"):
            train_wordpiece(corpus, 10)

    def test_merge_order_matches_brute_force(self):
        # replay training one merge at a time against the enumeration oracle
        words = {"abab": 4, "abc": 3, "bc": 5, "cab": 2}
        corpus = [" ".join(w for w, n in words.items() for _ in range(n))]
        # alphabet is {a, b, c, ##a, ##b, ##c}; leave room for exactly one merge
        base = train_wordpiece(corpus, N_SPECIALS + 7)
        first_merge = base.tokens[-1]
        assert first_merge == brute_force_best_merge(words)


class TestTokenize:
    def make_vocab(self, extra):
        alphabet = sorted({"p", "a", "r", "i", "s", "n"})
        tokens = list(SPECIAL_TOKENS) + alphabet \
            + [CONTINUATION + c for c in alphabet] + extra
        return SubwordVocab(tokens)

    def test_whole_word(self):
        vocab = self.make_vocab(["paris"])
        assert vocab.ids_to_tokens(tokenize(vocab, "paris")) == ["paris"]

    def test_greedy_longest_match(self):
        vocab = self.make_vocab(["paris", "##ian", "par"])
        assert vocab.ids_to_tokens(tokenize(vocab, "parisian")) == ["paris", "##ian"]

    def test_unsegmentable_word_is_unk(self):
        vocab = self.make_vocab([])
        assert tokenize(vocab, "qat") == [vocab.unk_id]

    def test_word_over_length_limit_is_unk(self):
        vocab = SubwordVocab(list(SPECIAL_TOKENS) + ["a", "##a"])
        assert MAX_WORD_LENGTH == 100  # BERT's max_input_chars_per_word
        assert tokenize(vocab, "a" * 100) == [vocab.token_to_id["a"]] + [
            vocab.token_to_id["##a"]] * 99
        assert tokenize(vocab, "a" * 101) == [vocab.unk_id]

    def test_empty_text_gives_no_tokens(self):
        vocab = self.make_vocab([])
        assert tokenize(vocab, "") == []
        assert tokenize(vocab, "   \t\n") == []

    def test_special_word_gives_its_own_id(self):
        vocab = self.make_vocab(["paris"])
        for special in SPECIAL_TOKENS:
            assert tokenize(vocab, special) == [vocab.token_to_id[special]]

    def test_word_starting_with_special_continues_after_it(self):
        # A special is an ordinary word-initial piece, so the longest match
        # takes it whole and the rest of the word follows as ## pieces.
        vocab = self.make_vocab(["##b"])
        assert vocab.ids_to_tokens(tokenize(vocab, MASK_TOKEN + "ab")) == [
            MASK_TOKEN, "##a", "##b"]

    def test_word_starting_with_continuation_marker_is_unk(self):
        vocab = self.make_vocab(["paris"])
        assert tokenize(vocab, "##paris") == [vocab.unk_id]
        assert tokenize(vocab, "##a") == [vocab.unk_id]


def random_corpus(rng, n_lines=40, letters="abcde"):
    lines = []
    for _ in range(n_lines):
        words = []
        for _ in range(rng.randint(3, 10)):
            length = rng.randint(1, 8)
            words.append("".join(rng.choice(letters) for _ in range(length)))
        lines.append(" ".join(words))
    return lines


def check_greedy_maximality(vocab, word, pieces):
    """No vocab entry longer than the emitted piece matches at its position."""
    pos = 0
    for i, piece in enumerate(pieces):
        surface = piece if i == 0 else piece[len(CONTINUATION):]
        assert word[pos:pos + len(surface)] == surface
        for other in vocab.tokens:
            if other in SPECIAL_TOKENS:
                continue
            if i == 0 and not other.startswith(CONTINUATION):
                cand = other
            elif i > 0 and other.startswith(CONTINUATION):
                cand = other[len(CONTINUATION):]
            else:
                continue
            if len(cand) > len(surface) and word.startswith(cand, pos):
                pytest.fail(f"{word!r}: {other!r} beats {piece!r} at {pos}")
        pos += len(surface)
    assert pos == len(word)


class TestProperties:
    def test_training_is_deterministic(self, tmp_path):
        corpus = random_corpus(random.Random(7))
        a = train_wordpiece(corpus, 60)
        b = train_wordpiece(list(corpus), 60)
        assert a.tokens == b.tokens
        pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
        a.save(pa)
        b.save(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_segmentation_soundness(self):
        rng = random.Random(11)
        corpus = random_corpus(rng)
        vocab = train_wordpiece(corpus, 40)
        for line in corpus + random_corpus(rng, n_lines=10):
            for word in line.split():
                ids = tokenize(vocab, word)
                if ids == [vocab.unk_id]:
                    continue
                pieces = vocab.ids_to_tokens(ids)
                rebuilt = pieces[0] + "".join(p[len(CONTINUATION):] for p in pieces[1:])
                assert rebuilt == word

    def test_greedy_maximality(self):
        rng = random.Random(13)
        corpus = random_corpus(rng)
        vocab = train_wordpiece(corpus, 55)
        for line in corpus:
            for word in line.split():
                ids = tokenize(vocab, word)
                if ids == [vocab.unk_id]:
                    continue
                check_greedy_maximality(vocab, word, vocab.ids_to_tokens(ids))

    def test_unk_count_never_grows_with_vocab_size(self):
        rng = random.Random(17)
        corpus = random_corpus(rng)
        # held-out text includes letters the training corpus never saw
        held_out = random_corpus(rng, n_lines=15, letters="abcdefgh")
        # alphabet over "abcde" is 10 symbols; smallest size allows no merges
        sizes = [N_SPECIALS + 10, N_SPECIALS + 25, N_SPECIALS + 60]
        unk_counts = []
        for size in sizes:
            vocab = train_wordpiece(corpus, size)
            n_unk = sum(tok == vocab.unk_id
                        for line in held_out for tok in tokenize(vocab, line))
            unk_counts.append(n_unk)
        assert unk_counts == sorted(unk_counts, reverse=True)
        assert unk_counts[-1] > 0  # the unseen letters actually exercised [UNK]

    def test_vocab_size_never_exceeds_target(self):
        corpus = random_corpus(random.Random(19))
        for size in (N_SPECIALS + 10, N_SPECIALS + 30):
            vocab = train_wordpiece(corpus, size)
            assert vocab.size <= size


class TestVocabIO:
    def test_save_load_roundtrip(self, tmp_path):
        vocab = train_wordpiece(["ab ab b"], 20)
        path = tmp_path / "vocab.txt"
        vocab.save(path)
        again = SubwordVocab.load(path)
        assert again.tokens == vocab.tokens
        # one token per line, line number = id
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == vocab.tokens
        assert lines[vocab.unk_id] == UNK_TOKEN
        assert lines[vocab.token_to_id[MASK_TOKEN]] == MASK_TOKEN

    def test_duplicate_token_rejected(self):
        with pytest.raises(ValueError):
            SubwordVocab(list(SPECIAL_TOKENS) + ["a", "a"])

    def test_missing_special_rejected(self):
        with pytest.raises(ValueError):
            SubwordVocab(["a", "b"])

    def test_bare_continuation_marker_rejected(self):
        with pytest.raises(ValueError):
            SubwordVocab(list(SPECIAL_TOKENS) + ["##"])

    def test_config_validation(self):
        with pytest.raises(ValueError, match=r"target_size 0 below alphabet\+specials"):
            train_wordpiece(["ab"], 0)


def zipf_corpus(seed, n_words=800, n_lines=120, letters="abcdefghijklmnoprstuvwxyz"):
    """Zipfian lines over a random lexicon, shaped like the benchmark corpora."""
    rng = random.Random(seed)
    lexicon = sorted({"".join(rng.choice(letters) for _ in range(rng.randint(3, 9)))
                      for _ in range(n_words)})
    rng.shuffle(lexicon)
    weights = [1.0 / (rank + 1) for rank in range(len(lexicon))]
    return [" ".join(rng.choices(lexicon, weights, k=rng.randint(8, 14)))
            for _ in range(n_lines)]


def hash_corpus(seed):
    """Words over {#, a, b}: word-initial "#" + "###" style merges get blocked."""
    rng = random.Random(seed)
    return [" ".join("".join(rng.choice("#ab") for _ in range(rng.randint(1, 6)))
                     for _ in range(8)) for _ in range(60)]


# "aaaa baaa bcaaa": merging "bc" + "##a" takes ("##a", "##a") to zero in
# bcaaa and back, so the pair re-enters the counts within one merge.
REPEATED_LETTERS = ["aaaa baaa bcaaa", "aaaa baaa bcaaa aaaa aa a aaaaaaa ab ba"]

# ("##a", "##aa#") and the blocked ("#", "###aaa#") both merge to "##aaa#"
# and tie on score: the blocked pair must lose its turn, not the merge.
BLOCKED_TIE = ("#a#aa #a#aa #a#aa #a# #a# #a# a### #aa#a#a #aa#a#a aaaaaa# aaaaaa# "
               "aa aa aa ##a ##a #a### #a### aa#a#a ##a ##a ##a ## ##aaa# ##aaa# "
               "##aaa# ##aa ##aa ##aa")

# A 100-character word, which training keeps, and a 101-character one with
# letters the Zipfian lexicon lacks, which it drops.
LONG_WORDS = " ".join(["ab" * 50] * 3 + ["q" + "xq" * 50] * 3)


class TestHeapTrainerMatchesScan:
    """The heap trainer gives exactly the tokens of the full-scan reference."""

    @pytest.mark.parametrize("corpus, target_size", [
        *[(zipf_corpus(seed), 900) for seed in (1, 7, 11)],
        (hash_corpus(3), 10**6),
        (hash_corpus(4), 10**6),
        ([BLOCKED_TIE], 10**6),
        (zipf_corpus(5) + [LONG_WORDS], 600),
        (zipf_corpus(6, n_words=150, n_lines=30), 10**6),
        *[([line], 10**6) for line in REPEATED_LETTERS],
    ], ids=["zipf-1", "zipf-7", "zipf-11", "hash-3", "hash-4", "blocked-tie", "word-over-100",
            "past-exhaustion", "repeated-letters", "repeated-letters-mixed"])
    def test_same_tokens_as_scan_reference(self, corpus, target_size):
        expected, _ = scan_train_wordpiece(corpus, target_size)
        assert train_wordpiece(corpus, target_size).tokens == expected

    def test_hash_corpora_exercise_the_blocked_rule(self):
        for corpus in (hash_corpus(3), hash_corpus(4), [BLOCKED_TIE]):
            _, blocked = scan_train_wordpiece(corpus, 10**6)
            assert blocked

    def test_past_exhaustion_merges_everything(self):
        corpus = zipf_corpus(6, n_words=150, n_lines=30)
        vocab = train_wordpiece(corpus, 10**6)
        assert vocab.size < 10**6
        for word in {w for line in corpus for w in line.split()}:
            assert vocab.ids_to_tokens(tokenize(vocab, word)) == [word]

    def test_peak_memory_within_reference(self):
        # The heap holds at most 2 x live pairs + 1024 entries, about 0.7 MB
        # over the scan's peak here. That grows with the live pairs and the
        # scan's own peak with the words, so on much smaller corpora the
        # ratio exceeds the bound (2.4x on 80 lines). Without the rebuild
        # the heap grows by about 60 entries a merge, and 200 merges cross it.
        corpus = zipf_corpus(11, n_words=5000, n_lines=1000)
        target_size = 2 + 49 + 200
        peaks = []
        for train in (lambda: scan_train_wordpiece(corpus, target_size),
                      lambda: train_wordpiece(corpus, target_size)):
            tracemalloc.start()
            try:
                train()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        scan_peak, heap_peak = peaks
        assert heap_peak <= 1.5 * scan_peak, (heap_peak, scan_peak)


def brute_force_merge_order(word_freq):
    """Every merge to exhaustion, each chosen by re-scoring all pairs from scratch.

    The key is brute_force_best_merge's (-score, merged). Two distinct pairs
    sharing the best key fail the test: the key alone cannot order them.
    """
    segs = {w: [w[0]] + [CONTINUATION + ch for ch in w[1:]] for w in word_freq}
    merges = []
    while True:
        sym_freq = Counter()
        pair_freq = Counter()
        for word, n in word_freq.items():
            for sym in segs[word]:
                sym_freq[sym] += n
            for a, b in zip(segs[word], segs[word][1:]):
                pair_freq[(a, b)] += n
        by_key = {}
        for (a, b), n in pair_freq.items():
            merged = a + b[len(CONTINUATION):]
            if not a.startswith(CONTINUATION) and merged.startswith(CONTINUATION):
                continue
            score = n / (sym_freq[a] * sym_freq[b])
            by_key.setdefault((-score, merged), []).append((a, b))
        if not by_key:
            return merges
        key = min(by_key)
        if len(by_key[key]) > 1:
            pytest.fail(f"pairs {by_key[key]} tie on key {key}")
        (left, right), = by_key[key]
        merges.append(key[1])
        for word, seg in segs.items():
            new_seg, i = [], 0
            while i < len(seg):
                if i + 1 < len(seg) and seg[i] == left and seg[i + 1] == right:
                    new_seg.append(key[1])
                    i += 2
                else:
                    new_seg.append(seg[i])
                    i += 1
            segs[word] = new_seg


class TestFullMergeOrder:
    @pytest.mark.parametrize("corpus", [
        random_corpus(random.Random(23)),
        random_corpus(random.Random(29), n_lines=25, letters="abc"),
        hash_corpus(3),
        REPEATED_LETTERS[:1],
        [" ".join(w for w, n in {"abab": 4, "abc": 3, "bc": 5, "cab": 2}.items()
                  for _ in range(n))],
    ], ids=["abcde", "abc", "hash", "repeated-letters", "first-merge-corpus"])
    def test_every_merge_matches_brute_force(self, corpus):
        word_freq = Counter(w for line in corpus for w in line.split())
        alphabet = sorted({sym for w in word_freq
                           for sym in [w[0]] + [CONTINUATION + ch for ch in w[1:]]})
        expected = list(SPECIAL_TOKENS) + alphabet
        for merged in brute_force_merge_order(word_freq):
            if merged not in expected:
                expected.append(merged)
        vocab = train_wordpiece(corpus, 10**6)
        assert vocab.tokens == expected


class TestPrefix:
    def test_smaller_target_is_a_prefix(self):
        corpus = zipf_corpus(7)
        full = train_wordpiece(corpus, 10**6)
        for size in (60, 300, 600, full.size, 10**6):
            trained = train_wordpiece(corpus, size)
            assert full.prefix(size).tokens == trained.tokens

    def test_prefix_below_alphabet_rejected(self):
        vocab = train_wordpiece(["abc"], 50)
        with pytest.raises(ValueError, match=r"target_size 4 below alphabet\+specials \(5\)"):
            vocab.prefix(4)
