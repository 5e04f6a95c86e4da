"""Reference semantics for checking phonofold's outputs, written apart from it.

Nothing here imports ``phonofold``. The functions restate the documented
behaviour of the rule file (pre/map/post), the fold map, the corpus CSV and
the ``stats``/``info``/``validate``/``match`` commands, so that the benchmark
can tell a fast wrong answer from a fast right one.
"""

from __future__ import annotations

import math
import unicodedata
from collections import Counter

DELETE = "∅"
WORD_BOUNDARY = "WORD_BOUNDARY"
MONTH_DAYS = 30.44

# IPA chart vowel letters and Chao tone letters / tone digits: a segment's
# class is read off its base glyphs.
VOWELS = frozenset("iyɨʉɯuɪʏʊeøɘɵɤoəɚɝɛœɜɞʌɔæɐaɶɑɒᵻᵿ")
TONES = frozenset("˥˦˧˨˩ꜛꜜ↗↘⁰¹²³⁴⁵⁶⁷⁸⁹")


def nfd(text: str) -> str:
    return unicodedata.normalize("NFD", text)


def is_punctuation(word: str) -> bool:
    return all(unicodedata.category(ch).startswith("P") for ch in word)


def segment_class(segment: str) -> str:
    if all(ch in TONES for ch in segment):
        return "tone"
    return "vowel" if any(ch in VOWELS for ch in segment) else "consonant"


# --- rewrite rules ----------------------------------------------------------


class Rule:
    """``target -> replacement / left _ right`` over a symbol sequence.

    One left-to-right pass; matches never overlap; contexts are read from the
    pass's input; ``#`` pins a context to the word edge.
    """

    def __init__(self, target, replacement, left=(), right=(), at_start=False, at_end=False):
        self.target, self.replacement = tuple(target), tuple(replacement)
        self.left, self.right = tuple(left), tuple(right)
        self.at_start, self.at_end = at_start, at_end

    def _fits(self, seq, i, j) -> bool:
        k = i - len(self.left)
        if k < 0 or seq[k:i] != self.left or (self.at_start and k != 0):
            return False
        m = j + len(self.right)
        return seq[j:m] == self.right and not (self.at_end and m != len(seq))

    def apply(self, seq: tuple) -> tuple:
        out, i, w = [], 0, len(self.target)
        while i < len(seq):
            if seq[i : i + w] == self.target and self._fits(seq, i, i + w):
                out += self.replacement
                i += w
            else:
                out.append(seq[i])
                i += 1
        return tuple(out)


def _rule_from_line(line: str, as_chars: bool) -> Rule:
    lhs, rhs = line.split("->", 1)
    left = right = ""
    if "/" in rhs:
        rhs, context = rhs.split("/", 1)
        left, right = context.split("_", 1)
    left_tokens, right_tokens = left.split(), right.split()
    at_start = bool(left_tokens) and left_tokens[0] == "#"
    at_end = bool(right_tokens) and right_tokens[-1] == "#"
    left_tokens = left_tokens[1:] if at_start else left_tokens
    right_tokens = right_tokens[:-1] if at_end else right_tokens
    rhs_tokens = [] if rhs.split() == [DELETE] else rhs.split()

    def symbols(tokens):
        return tuple(nfd("".join(tokens))) if as_chars else tuple(nfd(t) for t in tokens)

    return Rule(
        symbols(lhs.split()),
        symbols(rhs_tokens),
        symbols(left_tokens),
        symbols(right_tokens),
        at_start,
        at_end,
    )


class Grammar:
    """A parsed rule file: pre rules, grapheme map, post rules."""

    def __init__(self, text: str):
        self.pre: list[Rule] = []
        self.post: list[Rule] = []
        self.graphemes: dict[str, tuple[str, ...]] = {}
        section = None
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line in ("pre:", "map:", "post:"):
                section = line[:-1]
            elif section == "map":
                lhs, rhs = line.split("->", 1)
                segments = [] if rhs.split() == [DELETE] else rhs.split()
                self.graphemes.setdefault(nfd("".join(lhs.split())), tuple(map(nfd, segments)))
            else:
                (self.pre if section == "pre" else self.post).append(
                    _rule_from_line(line, as_chars=section == "pre")
                )
        self.longest = max(map(len, self.graphemes), default=0)

    def convert(self, word: str) -> tuple[tuple[str, ...], set[str]]:
        """Segments of one word plus the characters the map did not cover."""
        chars = tuple(nfd(word))
        for rule in self.pre:
            chars = rule.apply(chars)
        text = "".join(chars)
        segments: list[str] = []
        unmapped: set[str] = set()
        pos = 0
        while pos < len(text):
            for width in range(min(self.longest, len(text) - pos), 0, -1):
                hit = self.graphemes.get(text[pos : pos + width])
                if hit is not None:
                    segments += hit
                    pos += width
                    break
            else:
                segments.append(text[pos])
                unmapped.add(text[pos])
                pos += 1
        seq = tuple(segments)
        for rule in self.post:
            seq = rule.apply(seq)
        return seq, unmapped


def parse_fold(text: str) -> list[Rule]:
    """Fold rules: context-free token rewrites applied in file order."""
    rules = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            lhs, rhs = line.split("->", 1)
            rhs_tokens = [] if rhs.split() == [DELETE] else rhs.split()
            rules.append(Rule(map(nfd, lhs.split()), map(nfd, rhs_tokens)))
    return rules


def fold_word(rules: list[Rule], segments: tuple) -> tuple:
    # Folding never spans a word boundary, so it can run one word at a time.
    for rule in rules:
        segments = rule.apply(segments)
    return segments


def emit(words: list[tuple], keep_word_boundaries: bool) -> str:
    """The ``phonemized`` cell for an utterance given its folded words."""
    words = [w for w in words if w]
    glue = f" {WORD_BOUNDARY} " if keep_word_boundaries else " "
    return glue.join(" ".join(w) for w in words)


def convert_rows(glosses, grammar: Grammar, fold: list[Rule]):
    """Expected ``phonemized`` cells, converting each distinct word once.

    Returns the cells, the set of unmapped characters, and the number of
    distinct non-punctuation words.
    """
    memo: dict[str, tuple] = {}
    unmapped: set[str] = set()
    cells = []
    for gloss in glosses:
        words = []
        for word in gloss.split():
            if is_punctuation(word):
                continue
            folded = memo.get(word)
            if folded is None:
                segments, missing = grammar.convert(word)
                unmapped |= missing
                folded = memo[word] = fold_word(fold, segments) if segments else ()
            words.append(folded)
        cells.append(emit(words, keep_word_boundaries=False))
    return cells, unmapped, len(memo)


# --- corpus-level expectations ----------------------------------------------


def age_months(cell: str):
    """``Y;MM.DD`` to months, ``None`` for an empty cell."""
    if not cell:
        return None
    years, rest = cell.split(";")
    months, days = rest.split(".")
    return int(years) * 12 + int(months) + int(days) / MONTH_DAYS


def age_order(ages: list) -> list[int]:
    """Row indices in stable age order, rows without an age last."""
    return sorted(range(len(ages)), key=lambda i: (ages[i] is None, ages[i] or 0.0))


def segments_of(cell: str) -> list[str]:
    return [t for t in cell.split() if t != WORD_BOUNDARY]


def segment_counts(cells) -> Counter:
    counts: Counter = Counter()
    for cell in cells:
        counts.update(segments_of(cell))
    return counts


def info_curve(cells, ages, is_child) -> list[tuple[int, float, int]]:
    """Pooled unigram information per year-of-age bucket, adults only.

    Each point is ``(bucket, mean bits per utterance, utterances)``.
    """
    buckets: dict[int, list[list[str]]] = {}
    for cell, age, child in zip(cells, ages, is_child):
        segments = segments_of(cell)
        if child or age is None or not segments:
            continue
        buckets.setdefault(int(age // 12), []).append(segments)
    counts = Counter(s for utts in buckets.values() for u in utts for s in u)
    total = sum(counts.values())
    bits = {s: -math.log2(c / total) for s, c in counts.items()}
    return [
        (bucket, sum(sum(bits[s] for s in u) for u in utts) / len(utts), len(utts))
        for bucket, utts in sorted(buckets.items())
    ]
