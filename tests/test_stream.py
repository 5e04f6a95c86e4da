import io

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from phonofold import stream as stream_module
from phonofold.errors import FormatError
from phonofold.folding import parse_fold_map
from phonofold.g2p import PassthroughBackend, convert_utterance
from phonofold.g2p import parse_lexicon, parse_rule_file, parse_syllable_table
from phonofold.inventory import load_inventories
from phonofold.stream import (
    UTT_BOUNDARY,
    WORD_BOUNDARY,
    Boundary,
    IpaSegment,
    PhonemeStream,
    as_segments,
    coerce_token,
    emit_stream,
    open_text,
    parse_stream,
    read_text,
    repair_tokens,
    segment_types,
)

W = Boundary.WORD
U = Boundary.UTT


def seg(text):
    return IpaSegment(text)


class TestIpaSegment:
    def test_multi_character_segment_is_atomic(self):
        assert seg("dʒ") == "dʒ"
        assert len(seg("dʒ")) == 2

    def test_rejects_whitespace(self):
        with pytest.raises(ValueError):
            seg("a b")
        with pytest.raises(ValueError):
            seg("a\tb")

    def test_rejects_boundary_literals(self):
        with pytest.raises(ValueError):
            seg("WORD_BOUNDARY")
        with pytest.raises(ValueError):
            seg("UTT_BOUNDARY")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            seg("")

    @pytest.mark.parametrize("text", ["\ud800", "a\udfff", "\udc80b"])
    def test_rejects_surrogate_code_points(self, text):
        with pytest.raises(ValueError, match="surrogate"):
            seg(text)
        with pytest.raises(FormatError, match="^x.json: .*surrogate"):
            as_segments(["a", text], "x.json", None)

    @pytest.mark.parametrize("text", ["\u200b", "a\ufeff", "\u200dx", "t\u00ad", "\u2060"])
    def test_rejects_format_characters(self, text):
        with pytest.raises(ValueError, match="format character"):
            seg(text)
        with pytest.raises(FormatError, match="^x.json: .*format character"):
            as_segments(["a", text], "x.json", None)

    def test_normalization_is_idempotent(self):
        once = seg("ô")
        assert seg(str(once)) == once
        assert IpaSegment(once) is once

    def test_canonically_equivalent_forms_compare_equal(self):
        composed = "ô"  # o with circumflex, one codepoint
        decomposed = "ô"
        assert seg(composed) == seg(decomposed)


class TestParseStream:
    def test_multi_character_segments_parse_atomically(self):
        stream = parse_stream("ɛ n dʒ ɔɪ WORD_BOUNDARY")
        assert stream == PhonemeStream(["ɛ", "n", "dʒ", "ɔɪ", W])

    def test_empty_line(self):
        assert parse_stream("") == PhonemeStream([])

    def test_adjacent_word_boundaries_repaired(self):
        stream = parse_stream("a  WORD_BOUNDARY WORD_BOUNDARY b")
        assert stream == PhonemeStream(["a", W, "b"])

    def test_leading_word_boundary_dropped(self):
        assert parse_stream("WORD_BOUNDARY a") == PhonemeStream(["a"])

    def test_word_boundary_next_to_utt_boundary_dropped(self):
        assert parse_stream("a WORD_BOUNDARY UTT_BOUNDARY b") == PhonemeStream(["a", U, "b"])
        assert parse_stream("a UTT_BOUNDARY WORD_BOUNDARY b") == PhonemeStream(["a", U, "b"])

    def test_adjacent_utt_boundaries_repaired(self):
        stream = parse_stream("a UTT_BOUNDARY UTT_BOUNDARY b")
        assert stream.tokens == (seg("a"), U, seg("b"))
        stream = parse_stream("UTT_BOUNDARY UTT_BOUNDARY WORD_BOUNDARY UTT_BOUNDARY a")
        assert stream.tokens == (U, seg("a"))

    def test_whitespace_runs_collapse(self):
        assert parse_stream("  a   b  ") == PhonemeStream(["a", "b"])

    def test_stream_invariants_enforced_by_constructor(self):
        with pytest.raises(ValueError):
            PhonemeStream(["a", W, W, "b"])
        with pytest.raises(ValueError):
            PhonemeStream(["a", W, U])

    @pytest.mark.parametrize("tokens", [["a", U, U], [U, U, "a"], ["a", U, U, "b"]])
    def test_constructor_rejects_a_run_of_utt_boundaries(self, tokens):
        """Emission drops one trailing boundary, so a second would not round-trip."""
        with pytest.raises(ValueError, match="UTT_BOUNDARY twice"):
            PhonemeStream(tokens)


class TestEmitStream:
    def test_word_boundary_literal_emitted(self):
        stream = PhonemeStream(["ɛ", "n", "dʒ", "ɔɪ", W])
        assert emit_stream(stream, keep_word_boundaries=True) == "ɛ n dʒ ɔɪ WORD_BOUNDARY"

    def test_empty_stream(self):
        assert emit_stream(PhonemeStream([])) == ""

    def test_flag_off_drops_word_boundaries(self):
        stream = PhonemeStream(["a", W, "b"])
        assert emit_stream(stream, keep_word_boundaries=False) == "a b"

    def test_interior_utt_boundary_always_emitted(self):
        stream = PhonemeStream(["a", U, "b"])
        assert emit_stream(stream, keep_word_boundaries=False) == "a UTT_BOUNDARY b"

    def test_trailing_utt_boundary_normalized_away(self):
        stream = PhonemeStream(["a", "b", U])
        assert emit_stream(stream) == "a b"


class TestSegmentTypes:
    def test_distinct_segments(self):
        assert segment_types(parse_stream("a b a WORD_BOUNDARY")) == {"a", "b"}

    def test_empty(self):
        assert segment_types(PhonemeStream([])) == set()

    def test_multi_char_segment_kept_atomic(self):
        assert segment_types(parse_stream("dʒ d ʒ")) == {"dʒ", "d", "ʒ"}


def _inventory(text, source):
    handle = io.StringIO("InventoryID,LanguageName,ISO6393,Phoneme,SegmentClass\n" + text)
    handle.name = source
    return load_inventories(handle)


# Every loader turns a bad segment into one FormatError naming file and line once.
@pytest.mark.parametrize(
    "load, text",
    [
        (parse_rule_file, "map:\nb -> b\npost:\nb -> WORD_BOUNDARY\n"),
        (parse_rule_file, "map:\nb -> b\n\nb -> UTT_BOUNDARY\n"),
        (parse_fold_map, "a -> b\n# c\n\nb -> WORD_BOUNDARY\n"),
        (parse_lexicon, "a\ta\nb\tb\n\nc\tUTT_BOUNDARY\n"),
        (parse_syllable_table, "a\ta\nb\tb\n\nc\tWORD_BOUNDARY\t˥\n"),
        (parse_syllable_table, "a\ta\nb\tb\n\nc\tc\tWORD_BOUNDARY\n"),
        (_inventory, "1,L,xxx,a,vowel\n\n1,L,xxx,WORD_BOUNDARY,consonant\n"),
    ],
    ids=[
        "post-rule",
        "map-entry",
        "fold-rule",
        "lexicon-row",
        "syllable-row",
        "syllable-tone",
        "inventory-row",
    ],
)
def test_reserved_literal_named_once_with_file_and_line(load, text):
    with pytest.raises(FormatError) as info:
        load(text, source="x.src")
    message = str(info.value)
    assert message.startswith("x.src: line 4: ") and message.count("x.src: line 4: ") == 1
    assert "reserved boundary literal" in message


def test_syllable_tone_with_whitespace_is_named_with_file_and_line():
    with pytest.raises(FormatError, match=r"^x\.tsv: line 2: segment '˥ ˩' contains whitespace"):
        parse_syllable_table("a\ta\nma\tm a\t˥ ˩\n", source="x.tsv")


class TestOpenText:
    def test_handle_passes_through_open(self):
        handle = io.StringIO("a")
        with open_text(handle) as same:
            assert same is handle
        assert not handle.closed

    def test_path_that_is_not_utf8_is_a_format_error_naming_it(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"a \xe9\n")
        with pytest.raises(FormatError, match="latin1.txt: not UTF-8 text \\(byte 0xe9\\)"):
            read_text(path)
        with pytest.raises(FormatError, match="latin1.txt"), open_text(str(path)) as handle:
            list(handle)
        assert handle.closed

    def test_decode_error_passes_a_write_handle_unchanged(self, tmp_path):
        with pytest.raises(UnicodeDecodeError), open_text(tmp_path / "out.txt", "w"):
            b"\xe9".decode("utf-8")

    def test_path_opened_as_utf8_and_closed(self, tmp_path):
        path = tmp_path / "t.txt"
        with open_text(path, "w") as handle:
            handle.write("ɛ\r\n")
        assert handle.closed
        with open_text(str(path)) as handle:
            assert handle.read() == "ɛ\r\n"  # newline="" keeps line endings as written


# --- properties ---------------------------------------------------------

SEGMENT_ALPHA = "abdtuʒʃɔɪɛŋø˥ʰ"

segments = st.text(alphabet=SEGMENT_ALPHA, min_size=1, max_size=3).map(IpaSegment)
words = st.lists(segments, min_size=1, max_size=4)


@st.composite
def canonical_streams(draw):
    """Valid streams in canonical form: no trailing utterance boundary."""
    utterances = draw(st.lists(st.lists(words, min_size=1, max_size=3), min_size=0, max_size=3))
    tokens = []
    for u_index, utterance in enumerate(utterances):
        if u_index:
            tokens.append(U)
        for w_index, word in enumerate(utterance):
            if w_index:
                tokens.append(W)
            tokens.extend(word)
    # occasionally decorate with edge word boundaries, which are valid
    if tokens and draw(st.booleans()):
        tokens.append(W)
    return PhonemeStream(tokens)


@given(canonical_streams())
def test_round_trip(stream):
    assert parse_stream(emit_stream(stream, keep_word_boundaries=True)) == stream


@given(canonical_streams())
def test_emission_without_flag_never_contains_word_boundary_literal(stream):
    assert "WORD_BOUNDARY" not in emit_stream(stream, keep_word_boundaries=False).split()


@given(st.text(alphabet=SEGMENT_ALPHA + " ", max_size=40))
def test_parse_is_total_and_reparse_stable(text):
    stream = parse_stream(text)
    assert parse_stream(emit_stream(stream, keep_word_boundaries=True)) == stream


# --- the one-pass builder against a two-pass oracle ---------------------


def uncached(text):
    """The token for a text, built afresh: a boundary literal, else a checked segment."""
    return {WORD_BOUNDARY: W, UTT_BOUNDARY: U}.get(text) or IpaSegment(text)


def repair_oracle(tokens):
    """Coerce every token, then drop redundant boundaries: two passes, not one."""
    coerced = [t if isinstance(t, (IpaSegment, Boundary)) else uncached(t) for t in tokens]
    out = []
    for token in coerced:
        if token is W:
            if not out or isinstance(out[-1], Boundary):
                continue
            out.append(token)
        elif token is U:
            if out and out[-1] is U:
                continue
            if out and out[-1] is W:
                out.pop()
            out.append(token)
        else:
            out.append(token)
    return tuple(out)


segment_texts = st.text(alphabet=SEGMENT_ALPHA + "ô", min_size=1, max_size=3)
boundary_tokens = st.sampled_from([W, U, WORD_BOUNDARY, UTT_BOUNDARY])
boundary_runs = st.lists(boundary_tokens, min_size=1, max_size=4)


@st.composite
def raw_token_lists(draw):
    """Segments as str or IpaSegment, with boundary runs at the edges and between them."""
    one_segment = st.one_of(segment_texts, segments).map(lambda t: [t])
    pieces = draw(st.lists(st.one_of(one_segment, boundary_runs), max_size=10))
    edges = st.lists(boundary_tokens, max_size=3)
    return draw(edges) + [t for piece in pieces for t in piece] + draw(edges)


@given(raw_token_lists())
def test_builder_equals_checked_constructor_over_oracle(tokens):
    built = repair_tokens(tokens)
    assert type(built) is PhonemeStream
    assert built == PhonemeStream(repair_oracle(tokens))
    PhonemeStream(list(built))  # the public checks accept what the builder made
    assert PhonemeStream(built) == built


@pytest.mark.parametrize("token", ["", "a b", "a\tb", " "])
def test_builder_still_coerces_every_token(token):
    with pytest.raises(ValueError):
        repair_tokens(["a", W, token])
    with pytest.raises(ValueError):
        PhonemeStream(["a", W, token])


def test_parse_stream_normalizes_every_token():
    stream = parse_stream("ô WORD_BOUNDARY o")
    assert stream.tokens == (IpaSegment("ô"), W, IpaSegment("o"))
    assert str(stream[0]) == "o\u0302"


# --- a passthrough line is coerced and repaired once --------------------


def two_pass_passthrough(text):
    """Parse the line into a stream, then add the UttBoundary and repair it again."""
    tokens = list(parse_stream(text))
    if tokens and tokens[-1] is not U:
        tokens.append(U)
    return repair_tokens(tokens)


passthrough_lines = st.builds(
    lambda tokens, separator: separator.join(map(str, tokens)),
    raw_token_lists(),
    st.sampled_from([" ", "  ", " \t "]),
)


@given(passthrough_lines)
@example("")
@example("a UTT_BOUNDARY")
@example("UTT_BOUNDARY")
@example("WORD_BOUNDARY")
@example("a UTT_BOUNDARY WORD_BOUNDARY")
def test_passthrough_line_equals_the_two_pass_path(text):
    stream, unmapped = convert_utterance(PassthroughBackend(), text)
    assert stream == two_pass_passthrough(text) and unmapped == set()


# --- the intern table ----------------------------------------------------


@pytest.fixture
def fresh_table(monkeypatch):
    """The intern table as at import, restored after the test."""
    table = {WORD_BOUNDARY: W, UTT_BOUNDARY: U}
    monkeypatch.setattr(stream_module, "_INTERNED", table)
    return table


# The same letters composed (NFC) and decomposed (NFD), bare combining marks,
# the boundary literals, and texts that are no token at all.
token_texts = st.one_of(
    st.text(alphabet="o\u00f4o\u0302e\u00e9e\u0301\u0302\u0301\u0303\u02b0", max_size=3),
    st.sampled_from([WORD_BOUNDARY, UTT_BOUNDARY, "", " ", "\t", "a b", "\u0302"]),
)


def same_tokens(got, expected):
    return len(got) == len(expected) and all(
        type(g) is type(e) and g == e for g, e in zip(got, expected)
    )


@given(st.lists(token_texts, max_size=8))
def test_interned_tokens_equal_uncached_coercion(texts):
    for text in texts * 2:  # the second sight of each text comes from the table
        try:
            expected = uncached(text)
        except ValueError:
            with pytest.raises(ValueError):
                coerce_token(text)
            continue
        assert same_tokens([coerce_token(text)], [expected])
    line = " ".join(texts)
    assert same_tokens(parse_stream(line).tokens, repair_oracle(line.split()))
    try:
        expected = repair_oracle(texts)
    except ValueError:
        with pytest.raises(ValueError):
            repair_tokens(texts)
    else:
        assert same_tokens(repair_tokens(texts).tokens, expected)


@pytest.mark.parametrize("text", ["", " ", "\t", "a b", "a\u00a0b"])
def test_invalid_text_raises_every_time_and_is_never_stored(text):
    for _ in range(3):
        with pytest.raises(ValueError):
            coerce_token(text)
        with pytest.raises(FormatError, match="^x.src: line 3: "):
            as_segments(["a", text], "x.src", 3)
    assert text not in stream_module._INTERNED


def test_repeated_text_is_one_object(fresh_table):
    first, second = parse_stream("a a")
    assert first is second
    assert coerce_token("a") is first and fresh_table["a"] is first


def test_table_stops_growing_at_its_limit(fresh_table):
    limit = stream_module._INTERN_LIMIT
    texts = [f"s{i}" for i in range(limit + 100)]
    assert [coerce_token(text) for text in texts] == texts
    assert len(fresh_table) == limit
    assert "s0" in fresh_table and texts[-1] not in fresh_table
    later = coerce_token("\u00f4")
    assert type(later) is IpaSegment and later == "o\u0302"
    assert "\u00f4" not in fresh_table and len(fresh_table) == limit
    with pytest.raises(ValueError):
        coerce_token("a b")


def test_parsed_stream_is_a_checked_tuple():
    stream = parse_stream("a b")
    assert isinstance(stream, PhonemeStream) and isinstance(stream, tuple)
    assert stream == (seg("a"), seg("b")) and hash(stream) == hash((seg("a"), seg("b")))


def test_constructor_rejects_a_leading_word_boundary():
    with pytest.raises(ValueError):
        PhonemeStream([W, "a"])
    with pytest.raises(ValueError):
        PhonemeStream(["WORD_BOUNDARY", U, "a"])


@given(st.one_of(raw_token_lists(), raw_token_lists().map(lambda t: list(repair_tokens(t)))))
@example([W, "a"])
@example(["a", U])
def test_every_stream_the_constructor_accepts_round_trips(tokens):
    """Emission drops a trailing utterance boundary, as one utterance is one line."""
    try:
        stream = PhonemeStream(tokens)
    except ValueError:
        assert len(repair_tokens(tokens)) < len(tokens)  # the repair would drop a boundary
        return
    assert stream == repair_tokens(tokens)
    expected = stream[:-1] if stream[-1:] == (U,) else stream
    assert parse_stream(emit_stream(stream, keep_word_boundaries=True)) == expected
