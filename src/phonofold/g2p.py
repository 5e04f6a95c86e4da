"""Grapheme-to-phoneme conversion backends.

Four backends produce uncorrected phoneme streams from orthographic text:

* rules      -- pre-processor rewrite rules, a greedy longest-match grapheme
                map, and post-processor rewrite rules over phoneme tokens;
* lexicon    -- pronunciation dictionary lookup with optional rule fallback;
* syllabary  -- greedy syllable segmentation of romanized text, a
                syllable-to-IPA table, and tone merging;
* passthrough -- ingests text that is already in phoneme-stream form.

Word-level converters return ``(segments, unmapped)`` where ``unmapped`` is
the set of characters that had no mapping and passed through verbatim.
"""

from __future__ import annotations

import re
import unicodedata
from functools import cached_property
from itertools import compress, repeat
from operator import eq
from typing import Iterable, Sequence

from .chars import count_vowel_glyphs, is_punctuation_word, is_syllabic_marked
from .errors import (
    ConversionError,
    FormatError,
    OutOfVocabularyError,
    PhonofoldError,
    SegmentationError,
    ToneAttachmentError,
    UnknownSegmentError,
)
from .stream import Boundary, IpaSegment, PhonemeStream, _Record, as_segments, coerce_token
from .stream import content_lines, read_text, repair_tokens

DELETION_MARK = "∅"


def _nfd(text: str) -> str:
    return unicodedata.normalize("NFD", text)


class RewriteRule(_Record):
    """Replace a symbol sequence, optionally restricted by literal context.

    Symbols are single characters for pre-processor rules and whole phoneme
    tokens for post-processor and fold rules. Contexts are literal sequences;
    a ``#`` anchor pins the match to the word edge. ``apply`` makes one
    left-to-right pass with non-overlapping matches, contexts checked against
    the input. It takes a tuple and returns a tuple: the input itself where
    the rule matches nowhere. Given a string, one character per symbol, it
    returns the string rewritten by one precompiled regular expression.
    """

    _fields = ("target", "replacement", "left", "right", "left_anchor", "right_anchor")

    def __init__(
        self, target: tuple[str, ...], replacement: tuple[str, ...], left: tuple[str, ...] = (),
        right: tuple[str, ...] = (), left_anchor: bool = False, right_anchor: bool = False,
    ):
        if not target:
            raise ValueError("rewrite target must be non-empty")
        vars(self).update(
            target=target, replacement=replacement, left=left, right=right,
            left_anchor=left_anchor, right_anchor=right_anchor, _window=left + target + right,
        )

    @cached_property
    def _text_rule(self) -> tuple[re.Pattern, str]:
        """This rule over text: a pattern with contexts as lookarounds and ``#`` as
        ``\\A``/``\\Z``, and a replacement that ``re.sub`` reads literally."""
        left = (r"\A" if self.left_anchor else "") + re.escape("".join(self.left))
        right = re.escape("".join(self.right)) + (r"\Z" if self.right_anchor else "")
        pattern = re.escape("".join(self.target))
        pattern = (f"(?<={left})" if left else "") + pattern + (f"(?={right})" if right else "")
        return re.compile(pattern), "".join(self.replacement).replace("\\", r"\\")

    def apply(self, seq: tuple | str) -> tuple | str:
        if seq.__class__ is str:
            pattern, replacement = self._text_rule
            return pattern.sub(replacement, seq)
        window = self._window
        if self.left_anchor or self.right_anchor:  # one window, at the word edge
            start = len(seq) - len(window) if self.right_anchor else 0
            end = start + len(window)
            if start < 0 or (self.left_anchor and start) or seq[start:end] != window:
                return seq
            i = start + len(self.left)
            return seq[:i] + self.replacement + seq[i + len(self.target) :]
        first, n = self.target[0], len(seq)
        if first not in seq:
            return seq
        out: list = []
        done = 0  # seq[:done] is in out or was consumed by a match
        for i in compress(range(n), map(eq, seq, repeat(first))):  # where a match can start
            start = i - len(self.left)
            end = start + len(window)
            if i < done or start < 0 or seq[start:end] != window:
                continue
            out += seq[done:i]
            out += self.replacement
            done = i + len(self.target)
        if not done:
            return seq
        return tuple(out) + seq[done:]


def _longest_first(keys: Iterable[str], *tail: str) -> re.Pattern:
    """A pattern matching the longest key at a position, else the first tail pattern that does."""
    alternatives = [*map(re.escape, sorted(keys, key=len, reverse=True)), *tail]
    return re.compile("|".join(alternatives) or "(?!)", re.S)  # (?!) never matches


class GraphemeMap:
    """Ordered grapheme-to-segments entries, matched longest-first.

    Ties between equal grapheme strings go to the earlier entry. One regex
    alternation holds every key, longest first, then ``.`` for passthrough.
    """

    def __init__(self, entries: Iterable[tuple[str, Sequence[IpaSegment]]] = ()):
        self.entries: list[tuple[str, tuple[IpaSegment, ...]]] = []
        self._table: dict[str, tuple[IpaSegment, ...]] = {}
        for grapheme, segments in entries:
            grapheme = _nfd(grapheme)
            if not grapheme:
                raise ValueError("grapheme strings must be non-empty")
            segments = tuple(IpaSegment(s) for s in segments)
            self.entries.append((grapheme, segments))
            self._table.setdefault(grapheme, segments)
        self._pattern = _longest_first(self._table, ".")

    def __len__(self) -> int:
        return len(self.entries)


class RuleSet(_Record):
    """Conversion stages applied strictly in order pre -> map -> post."""

    _fields = ("pre_rules", "grapheme_map", "post_rules")

    def __init__(
        self, pre_rules: tuple[RewriteRule, ...] = (), grapheme_map: GraphemeMap | None = None,
        post_rules: tuple[RewriteRule, ...] = (),
    ):
        grapheme_map = GraphemeMap() if grapheme_map is None else grapheme_map
        vars(self).update(pre_rules=pre_rules, grapheme_map=grapheme_map, post_rules=post_rules)


class Lexicon(_Record):
    """Case-folded word -> pronunciation map."""

    _fields = ("entries",)

    def __init__(self, entries: dict):
        vars(self)["entries"] = entries

    def lookup(self, word: str):
        return self.entries.get(_nfd(word).casefold())


class SyllableTable(_Record):
    """Romanized syllable -> (segments, optional tone glyphs).

    ``syllabic_segments`` hosts per-language nucleus exceptions (for
    example syllabic nasals); the default nucleus is the first vowel.
    """

    _fields = ("entries", "syllabic_segments")

    def __init__(self, entries: dict, syllabic_segments: frozenset = frozenset()):
        if "" in entries:
            raise ValueError("syllable keys must be non-empty")
        vars(self).update(
            entries=entries, syllabic_segments=syllabic_segments, _pattern=_longest_first(entries)
        )


def convert_rules(rules: RuleSet, word: str) -> tuple[list[IpaSegment], set[str]]:
    """Run the pre/map/post pipeline on one whitespace-free word.

    Characters with no grapheme mapping pass through as single-character
    segments and are reported in the returned unmapped set; conversion never
    fails on unknown characters.
    """
    text = _nfd(word)
    for rule in rules.pre_rules:
        text = rule.apply(text)

    grapheme_map = rules.grapheme_map
    segments: list[IpaSegment] = []
    unmapped: set[str] = set()
    for piece in grapheme_map._pattern.findall(text):
        mapped = grapheme_map._table.get(piece)
        if mapped is None:
            unmapped.add(piece)
            segments.append(coerce_token(piece))
        else:
            segments.extend(mapped)

    if rules.post_rules:
        seq: Sequence[str] = tuple(segments)
        for rule in rules.post_rules:
            seq = rule.apply(seq)
        segments = [IpaSegment(s) for s in seq]
    return segments, unmapped


def convert_lexicon(
    lexicon: Lexicon, word: str, rules: RuleSet | None = None
) -> tuple[list[IpaSegment], set[str]]:
    """Dictionary lookup, falling back to the rule engine on a miss."""
    pronunciation = lexicon.lookup(word)
    if pronunciation is not None:
        return list(pronunciation), set()
    if rules is not None:
        return convert_rules(rules, word)
    raise OutOfVocabularyError(word)


def syllabify(table: SyllableTable, text: str) -> list[str]:
    """Greedy longest-match split of romanized text into table syllables.

    The whole input must be consumed; a position where no key matches raises
    a SegmentationError carrying the failure offset.
    """
    text = _nfd(text)
    syllables: list[str] = []
    pos = 0
    while pos < len(text):
        match = table._pattern.match(text, pos)
        if match is None:
            raise SegmentationError(text, pos)
        syllables.append(match[0])
        pos = match.end()
    return syllables


def syllable_to_ipa(table: SyllableTable, syllable: str) -> tuple[list[IpaSegment], str | None]:
    """Segments for one syllable plus its pending tone mark, if any."""
    entry = table.entries.get(_nfd(syllable))
    if entry is None:
        raise UnknownSegmentError(syllable, "syllable table")
    segments, tone = entry
    return list(segments), tone


def _nucleus_index(segments: Sequence[IpaSegment], syllabic: frozenset) -> int | None:
    for i, seg in enumerate(segments):
        if count_vowel_glyphs(seg) > 0:
            return i
    for i, seg in enumerate(segments):
        if seg in syllabic or is_syllabic_marked(seg):
            return i
    return None


def merge_tones(
    segments: Sequence[IpaSegment],
    tone: str | None,
    split_tones: bool = False,
    syllabic: frozenset = frozenset(),
) -> list[IpaSegment]:
    """Attach a tone mark to the syllable nucleus.

    Merged (default), the tone glyphs join the nucleus segment into one
    token; with ``split_tones`` the tone becomes its own token directly
    after the nucleus.
    """
    out = list(segments)
    if not tone:
        return out
    nucleus = _nucleus_index(out, syllabic)
    if nucleus is None:
        raise ToneAttachmentError(f"no nucleus for tone {tone!r} in {out!r}")
    if split_tones:
        out.insert(nucleus + 1, IpaSegment(tone))
    else:
        out[nucleus] = IpaSegment(out[nucleus] + tone)
    return out


class RulesBackend(_Record):
    """The rule engine, run once per distinct word and remembered after."""

    _NONE_UNMAPPED = frozenset()  # shared by every word with no unmapped characters
    _fields = ("rules",)

    def __init__(self, rules: RuleSet):
        vars(self).update(rules=rules, _memo={})

    def convert_word(self, word: str) -> tuple[list[IpaSegment], frozenset[str]]:
        known = self._memo.get(word)
        if known is None:
            segments, unmapped = convert_rules(self.rules, word)
            known = self._memo[word] = (tuple(segments), frozenset(unmapped) or self._NONE_UNMAPPED)
        return list(known[0]), known[1]

    def __reduce__(self):  # the memo stays behind: every pool chunk pickles the backend
        return type(self), (self.rules,)


class LexiconBackend(_Record):
    _fields = ("lexicon", "fallback")

    def __init__(self, lexicon: Lexicon, fallback: RuleSet | None = None):
        vars(self).update(lexicon=lexicon, fallback=fallback)

    def convert_word(self, word: str) -> tuple[list[IpaSegment], set[str]]:
        return convert_lexicon(self.lexicon, word, rules=self.fallback)


class SyllabaryBackend(_Record):
    _fields = ("table", "split_tones")

    def __init__(self, table: SyllableTable, split_tones: bool = False):
        vars(self).update(table=table, split_tones=split_tones)

    def convert_word(self, word: str) -> tuple[list[IpaSegment], set[str]]:
        segments: list[IpaSegment] = []
        for syllable in syllabify(self.table, word):
            base, tone = syllable_to_ipa(self.table, syllable)
            segments.extend(
                merge_tones(
                    base,
                    tone,
                    split_tones=self.split_tones,
                    syllabic=self.table.syllabic_segments,
                )
            )
        return segments, set()


class PassthroughBackend(_Record):
    """Accepts text some external tool already phonemized."""

    def convert_line(self, text: str) -> tuple[list, set[str]]:
        return list(map(coerce_token, text.split())), set()


def convert_utterance(
    backend, text: str, keep_word_boundaries: bool = False
) -> tuple[PhonemeStream, set[str]]:
    """Convert one utterance to a phoneme stream.

    The utterance is split on whitespace; punctuation-only words are dropped;
    a WordBoundary goes between words when the flag is set; a single
    UttBoundary is appended to any non-empty result. Backend failures are
    re-raised as ConversionError carrying the word and its index.
    """
    unmapped: set[str] = set()
    tokens: list = []

    if hasattr(backend, "convert_line"):
        tokens, unmapped = backend.convert_line(text)
    else:
        for index, word in enumerate(text.split()):
            if is_punctuation_word(word):
                continue
            try:
                segments, word_unmapped = backend.convert_word(word)
            except PhonofoldError as exc:
                raise ConversionError(word, index, exc) from exc
            unmapped |= word_unmapped
            if keep_word_boundaries:
                tokens.append(Boundary.WORD)  # repair_tokens drops leading and repeated ones
            tokens.extend(segments)

    # One UttBoundary ends the stream, unless it holds only word boundaries.
    if any(t is not Boundary.WORD for t in tokens):
        tokens.append(Boundary.UTT)
    return repair_tokens(tokens), unmapped


# --- file formats -----------------------------------------------------------
#
# Rule file: sections "pre:", "map:", "post:"; one rule per line in the form
# "lhs -> rhs" ("∅" or an empty rhs deletes) with an optional "/ left _ right"
# context suffix, "_" standing as its own token; "#" inside a context is a
# word-edge anchor, so comments are whole lines starting with #. A fold map
# uses the same line grammar with no context and no sections.
# Lexicon: word TAB space-separated segments. Syllable table: romanization
# TAB segments TAB tone glyphs (third column optional).


def _split_rule_line(line: str, source: str, line_num: int):
    if "->" not in line:
        raise FormatError("expected 'lhs -> rhs'", source=source, line=line_num)
    lhs_text, rhs_text = line.split("->", 1)
    context = None
    if "/" in rhs_text:
        rhs_text, context_text = rhs_text.split("/", 1)
        tokens = context_text.split()
        if tokens.count("_") != 1:
            raise FormatError("context needs 'left _ right'", source=source, line=line_num)
        at = tokens.index("_")
        context = (tokens[:at], tokens[at + 1 :])
    lhs = lhs_text.split()
    rhs = rhs_text.split()
    if rhs == [DELETION_MARK]:
        rhs = []
    if not lhs:
        raise FormatError("empty lhs", source=source, line=line_num)
    return lhs, rhs, context


def _build_rewrite(lhs, rhs, context, as_chars: bool, source: str, line_num: int) -> RewriteRule:
    def expand(tokens):
        if as_chars:
            return tuple(_nfd("".join(tokens)))
        return as_segments(tokens, source, line_num)

    left, right = context or ([], [])
    left_anchor = bool(left) and left[0] == "#"
    if left_anchor:
        left = left[1:]
    right_anchor = bool(right) and right[-1] == "#"
    if right_anchor:
        right = right[:-1]
    if "#" in left + right:
        raise FormatError(
            "word-edge anchor only allowed at the outer context edge", source=source, line=line_num
        )
    return RewriteRule(
        expand(lhs), expand(rhs), expand(left), expand(right), left_anchor, right_anchor
    )


def parse_rule_file(text: str, source: str = "<string>") -> RuleSet:
    """Parse the pre/map/post rule file format into a RuleSet."""
    pre: list[RewriteRule] = []
    post: list[RewriteRule] = []
    map_entries: list[tuple[str, tuple[IpaSegment, ...]]] = []
    section = None
    for line_num, raw in content_lines(text):
        line = raw.strip()
        if line in ("pre:", "map:", "post:"):
            section = line[:-1]
            continue
        if section is None:
            raise FormatError("rule line before any section header", source=source, line=line_num)
        lhs, rhs, context = _split_rule_line(line, source, line_num)
        if section == "pre":
            pre.append(_build_rewrite(lhs, rhs, context, True, source, line_num))
        elif section == "post":
            post.append(_build_rewrite(lhs, rhs, context, False, source, line_num))
        else:
            if context is not None:
                raise FormatError("map entries take no context", source=source, line=line_num)
            map_entries.append((_nfd("".join(lhs)), as_segments(rhs, source, line_num)))
    return RuleSet(tuple(pre), GraphemeMap(map_entries), tuple(post))


def load_rule_file(path) -> RuleSet:
    return parse_rule_file(read_text(path), source=str(path))


def parse_lexicon(text: str, source: str = "<string>") -> Lexicon:
    """Parse the two-column tab-separated lexicon format.

    The first entry for a word wins, matching the primary-pronunciation
    convention of pronunciation dictionaries.
    """
    entries: dict = {}
    for line_num, raw in content_lines(text):
        parts = raw.split("\t")
        if len(parts) != 2:
            raise FormatError("expected 'word<TAB>segments'", source=source, line=line_num)
        word = _nfd(parts[0].strip()).casefold()
        if not word or " " in word:
            raise FormatError(f"bad lexicon word {parts[0]!r}", source=source, line=line_num)
        segments = as_segments(parts[1].split(), source, line_num)
        if not segments:
            raise FormatError("entry needs at least one segment", source=source, line=line_num)
        entries.setdefault(word, segments)
    return Lexicon(entries)


def load_lexicon(path) -> Lexicon:
    return parse_lexicon(read_text(path), source=str(path))


def parse_syllable_table(
    text: str, source: str = "<string>", syllabic_segments: Iterable[str] = ()
) -> SyllableTable:
    """Parse the three-column tab-separated syllable table format."""
    entries: dict = {}
    first_line: dict = {}
    for line_num, raw in content_lines(text):
        parts = raw.split("\t")
        if len(parts) not in (2, 3):
            raise FormatError(
                "expected 'romanization<TAB>segments[<TAB>tone]'", source=source, line=line_num
            )
        key = _nfd(parts[0].strip())
        if not key:
            raise FormatError("empty romanization", source=source, line=line_num)
        if key in entries:
            raise FormatError(
                f"duplicate romanization {key!r} (lines {first_line[key]} and {line_num})",
                source=source,
                line=line_num,
            )
        segments = as_segments(parts[1].split(), source, line_num)
        if not segments:
            raise FormatError("entry needs at least one segment", source=source, line=line_num)
        tone_text = parts[2].strip() if len(parts) == 3 else ""
        tone = as_segments([tone_text], source, line_num)[0] if tone_text else None
        entries[key] = (segments, tone)
        first_line[key] = line_num
    return SyllableTable(entries, frozenset(IpaSegment(s) for s in syllabic_segments))


def load_syllable_table(path, syllabic_segments: Iterable[str] = ()) -> SyllableTable:
    return parse_syllable_table(
        read_text(path), source=str(path), syllabic_segments=syllabic_segments
    )
