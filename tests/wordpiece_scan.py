"""The full-scan wordpiece trainer, kept as the reference for the heap trainer.

This is ``clozerank.wordpiece.train_wordpiece`` as it was before best-pair
selection moved to a lazy heap: every merge rescans all pair counts. It
returns the token list and the pairs the ``#`` rule blocked, so tests can
require identical tokens and check that a corpus exercises the rule.
"""

from collections import Counter

from clozerank.wordpiece import CONTINUATION, MAX_WORD_LENGTH, SPECIAL_TOKENS


def _word_symbols(word):
    return [word[0]] + [CONTINUATION + ch for ch in word[1:]]


def _merge_string(left, right):
    return left + right[len(CONTINUATION):]


def scan_train_wordpiece(corpus, target_size):
    word_freq = Counter()
    for line in corpus:
        word_freq.update(line.split())
    if not word_freq:
        raise ValueError("corpus is empty")

    retained = {w: f for w, f in word_freq.items() if len(w) <= MAX_WORD_LENGTH}
    if not retained:
        raise ValueError("no words retained")

    segmentations = []
    freqs = []
    for word in sorted(retained):
        segmentations.append(_word_symbols(word))
        freqs.append(retained[word])

    alphabet = sorted({sym for seg in segmentations for sym in seg})
    base_size = len(SPECIAL_TOKENS) + len(alphabet)
    if target_size < base_size:
        raise ValueError(
            f"target_size {target_size} below alphabet+specials ({base_size})"
        )

    tokens = list(SPECIAL_TOKENS) + alphabet
    vocab_set = set(tokens)

    token_freq = Counter()
    pair_freq = Counter()
    pair_words = {}
    for idx, (seg, f) in enumerate(zip(segmentations, freqs)):
        for sym in seg:
            token_freq[sym] += f
        for pair in zip(seg, seg[1:]):
            pair_freq[pair] += f
            pair_words.setdefault(pair, set()).add(idx)

    blocked = set()

    while len(tokens) < target_size and pair_freq:
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

    return tokens, blocked
