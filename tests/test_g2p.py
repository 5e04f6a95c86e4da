import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonofold.chars import is_punctuation_word
from phonofold.errors import (
    ConversionError,
    FormatError,
    OutOfVocabularyError,
    SegmentationError,
    ToneAttachmentError,
    UnknownSegmentError,
)
from phonofold.g2p import (
    GraphemeMap,
    Lexicon,
    LexiconBackend,
    PassthroughBackend,
    RewriteRule,
    RuleSet,
    RulesBackend,
    SyllabaryBackend,
    SyllableTable,
    convert_lexicon,
    convert_rules,
    convert_utterance,
    load_syllable_table,
    merge_tones,
    parse_lexicon,
    parse_rule_file,
    parse_syllable_table,
    syllabify,
    syllable_to_ipa,
)
from phonofold.stream import Boundary, IpaSegment, coerce_token, emit_stream, repair_tokens


def rules_from_map(*entries):
    return RuleSet(grapheme_map=GraphemeMap([(g, segs.split()) for g, segs in entries]))


CHA_RULES = rules_from_map(("ch", "tʃ"), ("c", "k"), ("a", "a"))


def oracle_greedy(entries, word):
    """Brute-force leftmost-longest segmentation over raw entries."""
    out, unmapped, i = [], set(), 0
    while i < len(word):
        best = None
        for index, (grapheme, segments) in enumerate(entries):
            if word.startswith(grapheme, i) and (best is None or len(grapheme) > best[0]):
                best = (len(grapheme), index, segments)
        if best is not None:
            out.extend(best[2])
            i += best[0]
        else:
            out.append(word[i])
            unmapped.add(word[i])
            i += 1
    return out, unmapped


class TestConvertRules:
    def test_longest_match_beats_single_char(self):
        segments, unmapped = convert_rules(CHA_RULES, "cha")
        assert segments == ["tʃ", "a"]
        assert unmapped == set()

    def test_unmapped_passthrough(self):
        segments, unmapped = convert_rules(RuleSet(), "x")
        assert segments == ["x"]
        assert unmapped == {"x"}

    def test_post_rule_merges_consonant_pair(self):
        ruleset = RuleSet(
            grapheme_map=GraphemeMap([("d", ["d"]), ("ž", ["ʒ"]), ("a", ["a"])]),
            post_rules=(RewriteRule(("d", "ʒ"), ("dʒ",)),),
        )
        segments, _ = convert_rules(ruleset, "dža")
        assert segments == ["dʒ", "a"]

    def test_pre_rule_rewrites_graphemes(self):
        ruleset = RuleSet(
            pre_rules=(RewriteRule(("x",), ("c", "h")),),
            grapheme_map=CHA_RULES.grapheme_map,
        )
        segments, _ = convert_rules(ruleset, "xa")
        assert segments == ["tʃ", "a"]

    def test_pre_rule_context_with_anchor(self):
        # c -> s only before e, and only word-initially
        rule = RewriteRule(("c",), ("s",), right=("e",), left_anchor=True)
        ruleset = RuleSet(
            pre_rules=(rule,),
            grapheme_map=GraphemeMap([(g, [g]) for g in "sec"]),
        )
        assert convert_rules(ruleset, "cec")[0] == ["s", "e", "c"]
        assert convert_rules(ruleset, "cc")[0] == ["c", "c"]

    def test_map_deletion_drops_silent_letter(self):
        ruleset = parse_rule_file("map:\nh -> ∅\na -> a\n")
        assert convert_rules(ruleset, "ha")[0] == ["a"]

    def test_single_pass_non_overlapping(self):
        rule = RewriteRule(("a", "a"), ("b",))
        assert rule.apply(tuple("aaa")) == ("b", "a")

    def test_rewrite_checks_context_against_input(self):
        # replacement output must not create new left contexts mid-pass
        rule = RewriteRule(("b",), ("a",), left=("a",))
        assert rule.apply(tuple("abb")) == ("a", "a", "b")



def oracle_context_ok(rule, seq, start, end):
    """The scan-every-position engine's context test, kept as the reference."""
    if rule.left:
        if start < len(rule.left) or tuple(seq[start - len(rule.left) : start]) != rule.left:
            return False
    if rule.left_anchor and start - len(rule.left) != 0:
        return False
    if rule.right:
        if tuple(seq[end : end + len(rule.right)]) != rule.right:
            return False
    if rule.right_anchor and end + len(rule.right) != len(seq):
        return False
    return True


def oracle_matches_at(rule, seq, i):
    width = len(rule.target)
    return tuple(seq[i : i + width]) == rule.target and oracle_context_ok(rule, seq, i, i + width)


def oracle_apply(rule, seq):
    """One left-to-right pass that tries every position, as the reference engine."""
    out, i = [], 0
    while i < len(seq):
        if oracle_matches_at(rule, seq, i):
            out.extend(rule.replacement)
            i += len(rule.target)
        else:
            out.append(seq[i])
            i += 1
    return tuple(out)


# Plain letters, a lone NFD combining mark, a decomposed letter, regex
# metacharacters and the boundary tokens: anything a regex-built engine
# would have to escape or a token-level rule can meet.
REWRITE_SYMBOLS = ["a", "b", "\u0301", "e\u0301", ".", "*", "(", "\\", "$", "^", "#"]
REWRITE_SYMBOLS += [Boundary.WORD, Boundary.UTT]
_symbol = st.sampled_from(REWRITE_SYMBOLS)


def _symbols(low, high):
    return st.lists(_symbol, min_size=low, max_size=high).map(tuple)


_rewrite_rules = st.builds(
    RewriteRule,
    _symbols(1, 3),
    _symbols(0, 3),
    _symbols(0, 2),
    _symbols(0, 2),
    st.booleans(),
    st.booleans(),
)


@st.composite
def rule_and_input(draw):
    """A rule and a tuple or stream built of single symbols, runs of the
    target's first symbol and whole copies of the rule's match window."""
    rule = draw(_rewrite_rules)
    window = rule.left + rule.target + rule.right
    piece = st.one_of(
        _symbol.map(lambda s: (s,)),
        st.integers(2, 5).map(lambda k: rule.target[:1] * k),
        st.just(window),
    )
    tokens = [s for p in draw(st.lists(piece, max_size=8)) for s in p]
    if draw(st.booleans()):
        return rule, repair_tokens(tokens)
    return rule, tuple(tokens)


@settings(max_examples=500)
@given(rule_and_input())
@example((RewriteRule(("a", "a"), ("b",)), tuple("aaaa")))
@example((RewriteRule(("a",), ("b",), left=("a",), left_anchor=True), tuple("aaa")))
@example((RewriteRule(("a",), (), right=("$",), right_anchor=True), tuple("aa$")))
def test_apply_matches_the_every_position_oracle(case):
    rule, seq = case
    got = rule.apply(seq)
    assert got == oracle_apply(rule, seq)
    assert type(got) is tuple or got is seq
    if not any(oracle_matches_at(rule, seq, i) for i in range(len(seq))):
        assert got is seq


# Pre rules rewrite text one character per symbol: plain letters, a lone NFD
# combining mark, regex metacharacters, the replacement-string escape and a
# newline, before which ``$`` would match where ``\Z`` does not.
TEXT_SYMBOLS = ["a", "b", "e", "\u0301", "\u00e9", "\\", "$", "^", ".", "*", "(", "#", "\n"]
_char = st.sampled_from(TEXT_SYMBOLS)


def _chars(low, high):
    return st.lists(_char, min_size=low, max_size=high).map(tuple)


@st.composite
def text_rule_and_word(draw):
    """A single-character rule with contexts and anchors, and a word built of
    characters, decomposed letters, runs of the target and copies of its window."""
    rule = draw(
        st.builds(
            RewriteRule,
            _chars(1, 2),
            _chars(0, 3),
            _chars(0, 2),
            _chars(0, 2),
            st.booleans(),
            st.booleans(),
        )
    )
    piece = st.one_of(
        _char,
        st.just("e\u0301"),
        st.integers(2, 4).map(lambda k: rule.target[0] * k),
        st.just("".join(rule.left + rule.target + rule.right)),
    )
    return rule, "".join(draw(st.lists(piece, max_size=8)))


@settings(max_examples=500)
@given(text_rule_and_word())
@example((RewriteRule(("a",), ("\\", "1"), left=("$",), left_anchor=True), "$aa"))
@example((RewriteRule(("(",), ("\\", "g", "<", "0", ">"), right=(".",), right_anchor=True), "((."))
@example((RewriteRule(("\u0301",), (), left=("e",)), "e\u0301e\u0301\u0301"))
@example((RewriteRule(("a",), ("b",), right=("$",), right_anchor=True), "a$\n"))
def test_text_path_matches_the_tuple_path_and_the_oracle(case):
    rule, word = case
    expected = "".join(oracle_apply(rule, tuple(word)))
    assert "".join(rule.apply(tuple(word))) == expected
    assert rule.apply(word) == expected


POOL_RULES = """\
pre:
h -> ∅ / # _
c -> s / _ e
e -> ∅ / _ s #
s -> z / a _ a
x -> k s / # _
map:
ch -> ʃ
a -> a
c -> k
e -> ə
h -> h
k -> k
s -> s
x -> k s
post:
ə -> ∅ / _ #
s -> ∅ / _ #
ʃ -> s / # _ a
k s -> ks / a _
"""


def test_a_parsed_rule_set_converts_the_same_after_a_pickle_round_trip():
    # The worker pool pickles the backend, rule patterns included, into every chunk.
    words = ["hache", "caches", "case", "xase", "axes", "cha", "hex", "chase", "ace"]
    fresh = parse_rule_file(POOL_RULES)
    used = parse_rule_file(POOL_RULES)
    expected = [convert_rules(used, word) for word in words]
    for rules in (pickle.loads(pickle.dumps(fresh)), pickle.loads(pickle.dumps(used))):
        assert [convert_rules(rules, word) for word in words] == expected
    backend = pickle.loads(pickle.dumps(RulesBackend(used)))
    assert [backend.convert_word(word) for word in words] == expected


def test_a_rules_backend_pickles_without_its_memo():
    # Every pool chunk carries the backend; the words it has converted stay behind.
    # A pre rule caches its pattern on first use, so the rules are used before sizing.
    words = ["hache", "caches", "case", "xase", "axes", "cha", "hex", "chase", "ace"]
    rules = parse_rule_file(POOL_RULES)
    convert_rules(rules, "hache")
    backend = RulesBackend(rules)
    size = len(pickle.dumps(backend))
    expected = [backend.convert_word(word) for word in words]
    assert len(pickle.dumps(backend)) == size
    copy = pickle.loads(pickle.dumps(backend))
    assert not copy._memo
    assert [copy.convert_word(word) for word in words] == expected


class TestRuleFileParsing:
    def test_sections_and_comments(self, fixtures):
        ruleset = parse_rule_file((fixtures / "cha.rules").read_text(encoding="utf-8"))
        assert len(ruleset.pre_rules) == 1
        assert len(ruleset.grapheme_map) == 3
        assert len(ruleset.post_rules) == 1

    def test_rule_before_section_rejected(self):
        with pytest.raises(FormatError, match="section"):
            parse_rule_file("a -> b\n")

    def test_context_suffix(self):
        ruleset = parse_rule_file("pre:\nc -> s / # _ e\n")
        rule = ruleset.pre_rules[0]
        assert rule.left_anchor and not rule.right_anchor
        assert rule.right == ("e",)

    def test_missing_arrow_rejected(self):
        with pytest.raises(FormatError, match="lhs -> rhs"):
            parse_rule_file("map:\nch tʃ\n")

    def test_empty_lhs_rejected(self):
        with pytest.raises(FormatError, match="empty lhs"):
            parse_rule_file("map:\n-> a\n")

    @pytest.mark.parametrize(
        "rule",
        [
            "b -> WORD_BOUNDARY",
            "UTT_BOUNDARY -> b",
            "b -> a / a _ WORD_BOUNDARY",
            "b -> a / _ UTT_BOUNDARY #",
            "b -> a / WORD_BOUNDARY _",
        ],
    )
    def test_post_rule_tokens_must_be_segments(self, rule):
        # caught at load time, not by the first word the rule rewrites
        with pytest.raises(FormatError, match=r"^x\.rules: line 4: .*reserved boundary"):
            parse_rule_file(f"map:\nb -> b\npost:\n{rule}\n", source="x.rules")

    @pytest.mark.parametrize("context", ["a_b", "a _ b _", "a b", "_a b"])
    def test_context_needs_one_standalone_underscore(self, context):
        with pytest.raises(FormatError, match=r"^x\.rules: line 2: context needs 'left _ right'"):
            parse_rule_file(f"post:\nb -> a / {context}\n", source="x.rules")

    def test_context_splits_at_the_standalone_underscore(self):
        rule = parse_rule_file("pre:\nc -> s / x_y _ z_\n").pre_rules[0]
        assert rule.left == ("x", "_", "y") and rule.right == ("z", "_")

    def test_post_rule_tokens_loaded_as_segments(self):
        rule = parse_rule_file("post:\nk h -> kʰ / a _ #\n").post_rules[0]
        for token in rule.target + rule.replacement + rule.left:
            assert isinstance(token, IpaSegment)


class TestLexicon:
    def test_direct_hit(self):
        lex = Lexicon({"cat": (IpaSegment("k"), IpaSegment("æ"), IpaSegment("t"))})
        assert convert_lexicon(lex, "cat")[0] == ["k", "æ", "t"]

    def test_lookup_is_case_folded(self, fixtures):
        lex = parse_lexicon((fixtures / "cat.lex").read_text(encoding="utf-8"))
        assert convert_lexicon(lex, "CAT")[0] == ["k", "æ", "t"]

    def test_fallback_to_rules(self):
        segments, _ = convert_lexicon(Lexicon({}), "a", rules=rules_from_map(("a", "a")))
        assert segments == ["a"]

    def test_oov_without_fallback(self):
        with pytest.raises(OutOfVocabularyError, match="zzz"):
            convert_lexicon(Lexicon({}), "zzz")

    def test_first_entry_wins(self):
        lex = parse_lexicon("a\tx\na\ty\n")
        assert lex.lookup("a") == ("x",)


@pytest.fixture
def pinyin(fixtures):
    return load_syllable_table(fixtures / "pinyin.tsv")


class TestSyllabary:
    def test_longest_match_segmentation(self):
        table = parse_syllable_table("ni\tn i\nhao\th a ʊ\nha\th a\n")
        assert syllabify(table, "nihao") == ["ni", "hao"]

    def test_single_syllable(self, pinyin):
        assert syllabify(pinyin, "ma1") == ["ma1"]

    def test_unsegmentable_reports_offset(self):
        table = parse_syllable_table("ni\tn i\nhao\th a ʊ\nha\th a\n")
        with pytest.raises(SegmentationError) as info:
            syllabify(table, "niq")
        assert info.value.offset == 2

    def test_unsegmentable_with_tone_digit_keys(self, pinyin):
        with pytest.raises(SegmentationError) as info:
            syllabify(pinyin, "ni3q")
        assert info.value.offset == 3

    def test_syllable_to_ipa_with_tone(self, pinyin):
        assert syllable_to_ipa(pinyin, "ma1") == (["m", "a"], "˥")

    def test_toneless_entry(self, pinyin):
        assert syllable_to_ipa(pinyin, "de") == (["d", "ə"], None)

    def test_missing_syllable(self, pinyin):
        with pytest.raises(UnknownSegmentError):
            syllable_to_ipa(pinyin, "xx")

    def test_concatenated_syllables_recover_input(self, pinyin):
        text = "ni3hao3ma1de"
        assert "".join(syllabify(pinyin, text)) == text


    def test_an_empty_key_is_refused(self):
        with pytest.raises(ValueError, match="non-empty"):
            SyllableTable({"": (("a",), None), "a": (("a",), None)})


def syllabify_by_length(table, text):
    """Oracle: at each position, try every key length, longest first."""
    lengths = sorted({len(key) for key in table.entries}, reverse=True)
    syllables, pos = [], 0
    while pos < len(text):
        for width in lengths:
            candidate = text[pos : pos + width]
            if len(candidate) == width and candidate in table.entries:
                syllables.append(candidate)
                pos += width
                break
        else:
            raise SegmentationError(text, pos)
    return syllables


# Few letters, so keys are prefixes of one another; regex metacharacters among them.
SYLLABLE_TEXT = st.text(alphabet="ab.*|(?\\", min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.sets(SYLLABLE_TEXT, max_size=8), st.text(alphabet="ab.*|(?\\x", max_size=12))
@example({"a", "ab", "a.b", "."}, "a.bab.a")
@example({"a|", "a", "("}, "a|(a")
@example({"*", "**"}, "***x")
@example(set(), "a")
def test_syllabify_matches_the_longest_key_length_by_length(keys, text):
    table = SyllableTable({key: ((IpaSegment("a"),), None) for key in keys})
    try:
        expected = syllabify_by_length(table, text)
    except SegmentationError as exc:
        with pytest.raises(SegmentationError) as info:
            syllabify(table, text)
        assert (info.value.text, info.value.offset) == (exc.text, exc.offset)
    else:
        assert syllabify(table, text) == expected


class TestMergeTones:
    def test_merge_attaches_to_nucleus(self):
        assert merge_tones([IpaSegment("m"), IpaSegment("a")], "˥") == ["m", "a˥"]

    def test_split_emits_own_token(self):
        merged = merge_tones([IpaSegment("m"), IpaSegment("a")], "˥", split_tones=True)
        assert merged == ["m", "a", "˥"]

    def test_no_nucleus_is_error(self):
        with pytest.raises(ToneAttachmentError):
            merge_tones([IpaSegment("s")], "˥")

    def test_syllabic_consonant_as_nucleus(self):
        syllabic = frozenset({IpaSegment("m̩")})
        assert merge_tones([IpaSegment("m̩")], "˨˩", syllabic=syllabic) == ["m̩˨˩"]

    def test_no_tone_is_identity(self):
        assert merge_tones([IpaSegment("d"), IpaSegment("ə")], None) == ["d", "ə"]

    def test_split_inserts_after_nucleus_not_at_end(self):
        segments = [IpaSegment(s) for s in ["m", "a", "n"]]
        assert merge_tones(segments, "˥", split_tones=True) == ["m", "a", "˥", "n"]

    def test_split_recovers_from_merged(self):
        # splitting the nucleus token at the first tone glyph inverts merging
        segments = [IpaSegment(s) for s in ["m", "a", "n"]]
        merged = merge_tones(segments, "˥˩")
        nucleus = merged[1]
        cut = min(i for i, ch in enumerate(nucleus) if ch in "˥˦˧˨˩")
        recovered = merged[:1] + [nucleus[:cut], nucleus[cut:]] + merged[2:]
        assert recovered == merge_tones(segments, "˥˩", split_tones=True)


class TestConvertUtterance:
    def test_rules_backend_two_words(self):
        stream, _ = convert_utterance(RulesBackend(CHA_RULES), "cha cha", keep_word_boundaries=True)
        assert emit_stream(stream, keep_word_boundaries=True) == "tʃ a WORD_BOUNDARY tʃ a"

    def test_empty_utterance(self):
        stream, _ = convert_utterance(RulesBackend(CHA_RULES), "")
        assert len(stream) == 0

    def test_passthrough_identity(self):
        stream, _ = convert_utterance(PassthroughBackend(), "ɛ n dʒ ɔɪ")
        assert emit_stream(stream) == "ɛ n dʒ ɔɪ"

    def test_utt_boundary_appended(self):
        stream, _ = convert_utterance(RulesBackend(CHA_RULES), "cha")
        assert str(stream.tokens[-1]) == "UTT_BOUNDARY"

    def test_punctuation_only_words_dropped(self):
        stream, _ = convert_utterance(RulesBackend(CHA_RULES), "cha . cha !?", keep_word_boundaries=True)
        assert emit_stream(stream, keep_word_boundaries=True) == "tʃ a WORD_BOUNDARY tʃ a"

    def test_backend_errors_annotated_with_word_and_index(self):
        backend = LexiconBackend(Lexicon({}))
        with pytest.raises(ConversionError) as info:
            convert_utterance(backend, "zzz")
        assert info.value.word == "zzz"
        assert info.value.index == 0

    def test_unmapped_characters_accumulate(self):
        stream, unmapped = convert_utterance(RulesBackend(CHA_RULES), "chaq chaz")
        assert unmapped == {"q", "z"}

    def test_syllabary_backend_end_to_end(self, pinyin):
        backend = SyllabaryBackend(pinyin)
        stream, _ = convert_utterance(backend, "ni3hao3")
        assert emit_stream(stream) == "n i˨˩˦ h a˨˩˦ ʊ"


class StubWordBackend:
    """Each word is its segments joined by "+"; "~" converts to no segments."""

    def convert_word(self, word):
        texts = [] if word == "~" else word.split("+")
        return [coerce_token(text) for text in texts], {word[0]}


def first_flag_oracle(backend, text, keep_word_boundaries):
    """The word loop that put a boundary only between two non-empty words."""
    unmapped, tokens, first = set(), [], True
    for word in text.split():
        if is_punctuation_word(word):
            continue
        segments, word_unmapped = backend.convert_word(word)
        unmapped |= word_unmapped
        if not segments:
            continue
        if keep_word_boundaries and not first:
            tokens.append(Boundary.WORD)
        tokens.extend(segments)
        first = False
    last = next((t for t in reversed(tokens) if t is not Boundary.WORD), None)
    if last is not None and last is not Boundary.UTT:
        tokens.append(Boundary.UTT)
    return repair_tokens(tokens), unmapped


STUB_WORDS = st.sampled_from(
    ["a", "b+c", "~", ".", "?!", ",", "a+WORD_BOUNDARY", "UTT_BOUNDARY+b", "WORD_BOUNDARY"]
)


@given(st.lists(STUB_WORDS, max_size=8), st.booleans())
@example(["~", "a", "~"], True)
@example(["~", ".", "b+c", "~", "~", "a", "?!", "~"], True)
@example(["~", "~"], True)
def test_convert_utterance_equals_first_flag_oracle(words, keep_word_boundaries):
    text = " ".join(words)
    backend = StubWordBackend()
    got = convert_utterance(backend, text, keep_word_boundaries=keep_word_boundaries)
    assert got == first_flag_oracle(backend, text, keep_word_boundaries)


class TestGreedyOracle:
    def test_matches_brute_force_on_random_maps(self):
        rng = random.Random(20240101)
        # The second alphabet holds regex metacharacters, which the compiled
        # matcher must treat as literal graphemes.
        for alphabet in ["abcd"] * 50 + ["a.*|(\\"] * 50:
            entries = []
            for _ in range(6):
                size = rng.choice([1, 1, 2, 3])
                grapheme = "".join(rng.choice(alphabet) for _ in range(size))
                segments = [rng.choice("xyzw") for _ in range(rng.randint(1, 2))]
                entries.append((grapheme, segments))
            ruleset = rules_from_map(*((g, " ".join(s)) for g, s in entries))
            for _ in range(40):
                word = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
                expected_segments, expected_unmapped = oracle_greedy(entries, word)
                got_segments, got_unmapped = convert_rules(ruleset, word)
                assert got_segments == expected_segments, (entries, word)
                assert got_unmapped == expected_unmapped

    def test_deterministic_across_runs(self):
        first = convert_rules(CHA_RULES, "chacha")
        second = convert_rules(CHA_RULES, "chacha")
        assert first == second


def random_context(rng, symbols):
    """An empty context, or '/ left _ right' with optional '#' anchors."""
    if rng.random() < 0.5:
        return ""
    left = rng.sample(symbols, rng.randint(0, 1))
    right = rng.sample(symbols, rng.randint(0, 1))
    if rng.random() < 0.3:
        left.insert(0, "#")
    if rng.random() < 0.3:
        right.append("#")
    return f" / {' '.join(left)} _ {' '.join(right)}"


def random_rule_file(rng):
    """Rule-file text with pre, map and post sections, some rules in context."""
    letters, phones = list("abcd"), ["p", "t", "k", "a", "i", "ʃ"]
    lines = ["pre:"]
    for _ in range(rng.randint(0, 3)):
        lhs = "".join(rng.choices(letters, k=rng.randint(1, 2)))
        rhs = "".join(rng.choices(letters, k=rng.randint(0, 2))) or "∅"
        lines.append(f"{lhs} -> {rhs}{random_context(rng, letters)}")
    lines.append("map:")
    for _ in range(rng.randint(1, 5)):  # letters left out pass through unmapped
        grapheme = "".join(rng.choices(letters, k=rng.randint(1, 2)))
        lines.append(f"{grapheme} -> {' '.join(rng.choices(phones, k=rng.randint(0, 2))) or '∅'}")
    lines.append("post:")
    for _ in range(rng.randint(0, 3)):
        lhs = " ".join(rng.choices(phones, k=rng.randint(1, 2)))
        rhs = " ".join(rng.choices(phones, k=rng.randint(0, 2))) or "∅"
        lines.append(f"{lhs} -> {rhs}{random_context(rng, phones)}")
    return "\n".join(lines) + "\n"


class TestRulesBackendMemo:
    def test_hits_and_misses_equal_the_engine(self):
        rng = random.Random(4)
        for _ in range(200):
            ruleset = parse_rule_file(random_rule_file(rng))
            backend = RulesBackend(ruleset)
            for _ in range(30):
                word = "".join(rng.choices("abcde", k=rng.randint(1, 6)))
                expected = convert_rules(ruleset, word)
                for _ in range(2):  # a miss or a hit, then certainly a hit
                    segments, unmapped = backend.convert_word(word)
                    assert (segments, unmapped) == expected, word
                    segments.append(IpaSegment("junk"))  # must not reach the memo

    def test_memo_is_per_instance_and_not_compared(self):
        first, second = RulesBackend(CHA_RULES), RulesBackend(CHA_RULES)
        first.convert_word("cha")
        assert first == second and "_memo" not in repr(first)
        assert second.convert_word("chaq") == (["tʃ", "a", "q"], {"q"})
