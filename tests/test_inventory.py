import csv
import io
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonofold import inventory
from phonofold.analysis import eligible_features
from phonofold.errors import FormatError, UnknownFeatureError, UnknownSegmentError
from phonofold.inventory import (
    REQUIRED_COLUMNS,
    SEGMENT_CLASSES,
    CountProfile,
    Inventory,
    InventorySegment,
    TernaryValue,
    best_match,
    count_profile,
    feature_of,
    is_diphthong,
    load_inventories,
)
from phonofold.stream import IpaSegment

HEADER = "InventoryID,LanguageName,ISO6393,Phoneme,SegmentClass,syllabic,voiced\n"


def load_csv(text):
    return load_inventories(io.StringIO(text))


@pytest.fixture
def french(fixtures):
    (inv,) = load_inventories(fixtures / "french_inventory.csv")
    return inv


class TestLoad:
    def test_three_row_fixture(self):
        invs = load_csv(
            HEADER
            + "1,Toy,qaa,a,vowel,+,+\n"
            + "1,Toy,qaa,b,consonant,-,+\n"
            + "1,Toy,qaa,ʒ,consonant,-,+\n"
        )
        assert len(invs) == 1
        inv = invs[0]
        assert inv.id == 1
        assert inv.language_name == "Toy"
        assert inv.iso_code == "qaa"
        assert len(inv.segments) == 3
        assert inv.segment_texts() == {"a", "b", "ʒ"}

    def test_multivalued_feature_cell_maps_to_unspecified(self):
        invs = load_csv(HEADER + '1,Toy,qaa,a,vowel,"+,-",+\n')
        assert feature_of(invs[0], "a", "syllabic") is TernaryValue.UNSPECIFIED

    def test_missing_phoneme_column_is_format_error(self):
        bad = "InventoryID,LanguageName,ISO6393,SegmentClass\n1,Toy,qaa,vowel\n"
        with pytest.raises(FormatError, match="Phoneme"):
            load_csv(bad)

    def test_duplicate_segment_reports_row_number(self):
        text = HEADER + "1,Toy,qaa,a,vowel,+,+\n1,Toy,qaa,a,vowel,+,+\n"
        with pytest.raises(FormatError, match="line 3"):
            load_csv(text)

    def test_feature_schema_comes_from_header(self):
        invs = load_csv(HEADER + "1,Toy,qaa,a,vowel,+,-\n")
        assert set(invs[0].segments[0].features) == {"syllabic", "voiced"}

    def test_blank_and_unknown_cells_unspecified(self):
        invs = load_csv(HEADER + "1,Toy,qaa,a,vowel,,x\n")
        assert feature_of(invs[0], "a", "syllabic") is TernaryValue.UNSPECIFIED
        assert feature_of(invs[0], "a", "voiced") is TernaryValue.UNSPECIFIED

    @pytest.mark.parametrize(
        "header, row",
        [
            (
                "InventoryID,LanguageName,ISO6393,Phoneme,SegmentClass,tone,tone\n",
                "{id},Toy,qaa,a,vowel,+,-\n",
            ),
            (
                "tone,Phoneme,SegmentClass,tone,InventoryID,LanguageName,ISO6393\n",
                "+,a,vowel,-,{id},Toy,qaa\n",
            ),
        ],
        ids=["leading", "trailing"],
    )
    def test_of_two_columns_with_one_name_the_last_is_read(self, header, row):
        invs = load_csv(header + row.format(id=1) + row.format(id=2))  # the second repeats a tail
        assert [feature_of(inv, "a", "tone") for inv in invs] == [TernaryValue.MINUS] * 2
        assert list(invs[0].segments[0].features) == ["tone"]


class TestInventoryIndex:
    def test_direct_construction_names_the_first_segment_seen_twice(self):
        a, b = (InventorySegment(IpaSegment(s), "vowel", {}) for s in "ab")
        with pytest.raises(ValueError, match="^duplicate segment 'b' in inventory 7$"):
            Inventory(7, "Toy", "qaa", (a, b, b, a))
        assert Inventory(7, "Toy", "qaa", (a, b)).lookup("b") is b


class TestCsvErrorLine:
    """The csv module's errors name the inventory file and the record's line."""

    LEADING = (HEADER, "{id},{name},qaa,a,vowel,+,+\n")
    TRAILING = (
        "Phoneme,SegmentClass,syllabic,voiced,InventoryID,LanguageName,ISO6393\n",
        "a,vowel,+,+,{id},{name},qaa\n",
    )

    @pytest.mark.parametrize("layout", [LEADING, TRAILING], ids=["leading", "trailing"])
    def test_a_field_over_the_limit(self, layout):
        header, row = layout
        text = header + row.format(id=1, name="Toy") + row.format(id=2, name="L" * 60)
        limit = csv.field_size_limit(40)
        try:
            message = r"^<file>: line 3: field larger than field limit \(40\)$"
            with pytest.raises(FormatError, match=message):
                load_csv(text)
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("layout", [LEADING, TRAILING], ids=["leading", "trailing"])
    def test_a_carriage_return_inside_an_unquoted_cell(self, layout):
        header, row = layout
        text = header + row.format(id=1, name="Toy") + row.format(id=2, name="To\ry")
        with pytest.raises(FormatError, match="^<file>: line 3: new-line character seen"):
            load_csv(text)

    def test_in_the_header(self):
        with pytest.raises(FormatError, match="^<file>: line 1: new-line character seen"):
            load_csv("InventoryID,Language\rName\n")

    def test_in_a_header_cell_that_spans_lines(self):
        """The quoted last cell runs over lines 1-3 and passes the limit on line 3."""
        text = HEADER.rstrip("\n") + ',"notes\n' + "n" * 10 + "\n" + "n" * 40 + '"\n'
        limit = csv.field_size_limit(40)
        try:
            message = r"^<file>: line 3: field larger than field limit \(40\)$"
            with pytest.raises(FormatError, match=message):
                load_csv(text + "1,Toy,qaa,a,vowel,+,+,x\n")
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize("layout", [LEADING, TRAILING], ids=["leading", "trailing"])
    def test_a_record_after_a_two_line_header(self, layout):
        header, row = layout
        header = header.replace("voiced", '"voi\nced"')
        with pytest.raises(FormatError, match="^<file>: line 3: bad InventoryID 'x1'$"):
            load_csv(header + row.format(id="x1", name="Toy"))

    @pytest.mark.parametrize("layout", [LEADING, TRAILING], ids=["leading", "trailing"])
    @pytest.mark.parametrize(
        "last, message",
        [
            ({"id": "x1", "name": "Toy"}, "bad InventoryID 'x1'$"),
            ({"id": 3, "name": "To\ry"}, "new-line character seen"),
        ],
        ids=["bad-id", "csv-error"],
    )
    def test_the_line_after_two_two_line_records(self, layout, last, message):
        header, row = layout
        records = row.format(id=1, name='"To\ny"') + row.format(id=2, name='"To\ny"')
        with pytest.raises(FormatError, match="^<file>: line 6: " + message):
            load_csv(header + records + row.format(**last))


class TestRepeatedRowTail:
    """A row that repeats an earlier row's text after its third comma keeps its own checks."""

    ROW = "1,Toy,qaa,a,vowel,+,+\n"

    def test_bad_inventory_id_at_its_line(self):
        text = HEADER + self.ROW + "x1,Toy,qaa,a,vowel,+,+\n"
        with pytest.raises(FormatError, match="^<file>: line 3: bad InventoryID 'x1'$"):
            load_csv(text)

    def test_second_repeat_in_one_inventory_is_a_duplicate(self):
        text = HEADER + self.ROW + "2,Other,qab,a,vowel,+,+\n" * 2
        message = "^<file>: line 4: duplicate segment 'a' in inventory 2$"
        with pytest.raises(FormatError, match=message):
            load_csv(text)

    def test_names_and_codes_are_stripped(self):
        (_, inv) = load_csv(HEADER + self.ROW + "2, Other , qab ,a,vowel,+,+\n")
        assert (inv.language_name, inv.iso_code) == ("Other", "qab")
        assert feature_of(inv, "a", "voiced") is TernaryValue.PLUS

    @pytest.mark.parametrize("over", [0, 1])
    def test_language_name_at_and_over_the_field_limit(self, over):
        limit = csv.field_size_limit(40)
        try:
            text = HEADER + self.ROW + f"2,{'L' * (40 + over)},qaa,a,vowel,+,+\n"
            if over:
                with pytest.raises(FormatError, match="field larger than field limit"):
                    load_csv(text)
            else:
                assert load_csv(text)[1].language_name == "L" * 40
        finally:
            csv.field_size_limit(limit)

    @pytest.mark.parametrize(
        "head", ['2,"Toy",qaa', '2,"To,y",qaa', '2,To"y,qaa', "2,To\0y,qaa", "2\r,Toy,qaa"]
    )
    def test_a_head_the_split_may_misread_is_read_by_the_csv_module(self, head):
        def outcome(load, text):
            try:
                return load(text)
            except (FormatError, csv.Error) as exc:
                return re.sub("^<(file|oracle)>: ", "", str(exc))

        text = HEADER + self.ROW + head + ",a,vowel,+,+\n"
        assert outcome(load_csv, text) == outcome(eager_load_oracle, text)

    def test_a_segment_first_read_from_a_quoted_row_is_shared_with_its_plain_repeats(self):
        header = "InventoryID,LanguageName,ISO6393,Phoneme,SegmentClass,syllabic\n"
        rows = '1,"Chinese, Mandarin",cmn,a,vowel,+\n2,Toy,qaa,a,vowel,+\n3,Toy,qab,a,vowel,+\n'
        first, second, third = (inv.segments[0] for inv in load_csv(header + rows))
        assert first is second is third

    def test_a_layout_without_the_three_columns_first_reads_every_cell(self):
        header = "Phoneme,LanguageName,ISO6393,InventoryID,SegmentClass,syllabic\n"
        (inv,) = load_csv(header + "a,Toy,qaa,1,vowel,+\n" + "b,Toy,qaa,1,vowel,+\n")
        assert inv.segment_texts() == {"a", "b"}

    def test_a_record_over_two_lines_is_read_whole_and_counted_once(self):
        record = '{},Toy,qaa,a,vowel,"+\n",+\n'
        text = HEADER + record.format(1) + record.format(2) + "x1,Toy,qaa,b,vowel,+,+\n"
        with pytest.raises(FormatError, match="^<file>: line 6: bad InventoryID 'x1'$"):
            load_csv(text)
        invs = load_csv(HEADER + record.format(1) + record.format(2))
        assert [feature_of(inv, "a", "syllabic") for inv in invs] == [TernaryValue.PLUS] * 2


class TestDiphthong:
    def vowel(self, text):
        return InventorySegment(IpaSegment(text), "vowel", {})

    def test_oi_is_diphthong(self):
        assert is_diphthong(self.vowel("ɔɪ"))

    def test_plain_vowel_is_not(self):
        assert not is_diphthong(self.vowel("a"))

    def test_length_mark_is_not_a_vowel_glyph(self):
        assert not is_diphthong(self.vowel("aː"))

    def test_consonant_never_diphthong(self):
        assert not is_diphthong(InventorySegment(IpaSegment("ɔɪ"), "consonant", {}))


class TestCountProfile:
    def test_mixed_set(self):
        profile = count_profile({IpaSegment(s) for s in ["a", "ɔɪ", "b", "dʒ"]})
        assert profile == CountProfile(4, 2, 2, 1)

    def test_empty(self):
        assert count_profile(set()) == CountProfile(0, 0, 0, 0)

    def test_tone_tokens_counted_separately(self):
        profile = count_profile({IpaSegment(s) for s in ["˥", "a", "b"]})
        assert profile.n_tones == 1
        assert profile == CountProfile(3, 1, 1, 0)

    def test_tone_bearing_vowel_counts_as_vowel(self):
        profile = count_profile({IpaSegment("a˥")})
        assert profile == CountProfile(1, 0, 1, 0)

    def test_french_fixture_first_ten_segments_hand_count(self, french):
        subset = [seg.segment for seg in french.segments[:10]]
        # hand count: b d ʒ ʁ m n ɧ consonants, a e i vowels, no diphthongs
        assert count_profile(subset) == CountProfile(10, 7, 3, 0)

    def test_inventory_profile_matches_size(self, french):
        assert count_profile(french).n_types == len(french.segments)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ((3, -1, 1, 0), "counts must be non-negative"),
            ((3, 2, 2, 0), "consonants \\+ vowels exceed total types"),
            ((3, 1, 1, 2), "more diphthongs than vowels"),
        ],
        ids=["negative", "over-total", "diphthongs-over-vowels"],
    )
    def test_inconsistent_counts_are_refused(self, counts, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            CountProfile(*counts)


class TestBestMatch:
    def test_l1_ranking(self, fixtures):
        invs = load_inventories(fixtures / "toy_inventories.csv")
        observed = {IpaSegment(s) for s in ["a", "ɔɪ", "b", "dʒ"]}
        ranking = best_match(observed, invs)
        assert [(inv.id, score) for inv, score in ranking] == [(9002, 0), (9001, 5)]

    def test_tie_breaks_on_smaller_id(self):
        rows = "".join(
            f"{inv_id},Toy,qaa,{seg},consonant,-,-\n" for inv_id in (9, 7) for seg in "bd"
        )
        invs = load_csv(HEADER + rows)
        ranking = best_match({IpaSegment("b"), IpaSegment("d")}, invs)
        assert [inv.id for inv, _ in ranking] == [7, 9]

    def test_identical_sets_score_zero(self, french):
        ranking = best_match(french.segment_texts(), [french])
        assert ranking[0][1] == 0

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            best_match({IpaSegment("a")}, [])

    def test_permutation_invariant(self, fixtures):
        invs = load_inventories(fixtures / "toy_inventories.csv")
        observed = {IpaSegment("a"), IpaSegment("b")}
        forward = best_match(observed, invs)
        backward = best_match(observed, list(reversed(invs)))
        assert [inv.id for inv, _ in forward] == [inv.id for inv, _ in backward]


class TestFeatureOf:
    def test_plus(self, french):
        assert feature_of(french, "a", "syllabic") is TernaryValue.PLUS

    def test_minus(self, french):
        assert feature_of(french, "b", "syllabic") is TernaryValue.MINUS

    def test_unknown_segment(self, french):
        with pytest.raises(UnknownSegmentError):
            feature_of(french, "q", "syllabic")

    def test_unknown_feature(self, french):
        with pytest.raises(UnknownFeatureError):
            feature_of(french, "a", "nasalized")


segment_texts = st.text(alphabet="abdtuʒʃɔɪɛø˥", min_size=1, max_size=3)


@given(st.sets(segment_texts, max_size=12))
def test_profile_counts_partition_types(texts):
    profile = count_profile({IpaSegment(t) for t in texts})
    assert profile.n_consonants + profile.n_vowels + profile.n_tones == profile.n_types
    assert profile.n_diphthongs <= profile.n_vowels


@given(st.lists(segment_texts, max_size=10))
def test_profile_stable_under_stream_round_trip(texts):
    from phonofold.stream import emit_stream, parse_stream, segment_types

    stream = parse_stream(" ".join(texts))
    round_tripped = parse_stream(emit_stream(stream, keep_word_boundaries=True))
    assert count_profile(segment_types(round_tripped)) == count_profile(segment_types(stream))


def eager_load_oracle(text):
    """The one-dict-per-row loader, kept as the reference for ``load_inventories``.

    Every row builds its own IpaSegment and its own feature dict, each cell
    decoded with the plain if-chain. A record, and a csv.Error raised reading
    one, is numbered by ``reader.line_num``: the record's last line.
    """

    def from_cell(cell):
        cell = cell.strip()
        if cell == "+":
            return TernaryValue.PLUS
        if cell == "-":
            return TernaryValue.MINUS
        return TernaryValue.UNSPECIFIED

    name = "<oracle>"
    reader = csv.reader(io.StringIO(text))

    def read_records():
        while True:
            try:
                row = next(reader)
            except StopIteration:
                return
            except csv.Error as exc:
                raise FormatError(str(exc), source=name, line=reader.line_num) from None
            yield reader.line_num, row

    records = read_records()
    header = [col.strip() for col in next(records)[1]]
    positions = {col: header.index(col) for col in REQUIRED_COLUMNS}
    feature_names = [col for col in header if col not in REQUIRED_COLUMNS]
    feature_positions = [header.index(col) for col in feature_names]
    grouped = {}
    for line_num, row in records:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) < len(header):
            raise FormatError("row has fewer cells than the header", source=name, line=line_num)
        try:
            inv_id = int(row[positions["InventoryID"]])
        except ValueError:
            raise FormatError(
                f"bad InventoryID {row[positions['InventoryID']]!r}", source=name, line=line_num
            ) from None
        seg_text = row[positions["Phoneme"]].strip()
        seg_class = row[positions["SegmentClass"]].strip().lower()
        if seg_class not in SEGMENT_CLASSES:
            raise FormatError(f"unknown SegmentClass {seg_class!r}", source=name, line=line_num)
        try:
            segment = IpaSegment(seg_text)
        except ValueError as exc:
            raise FormatError(str(exc), source=name, line=line_num) from None
        features = {
            fname: from_cell(row[pos]) for fname, pos in zip(feature_names, feature_positions)
        }
        entry = grouped.setdefault(
            inv_id,
            {
                "language": row[positions["LanguageName"]].strip(),
                "iso": row[positions["ISO6393"]].strip(),
                "segments": [],
                "seen": set(),
            },
        )
        if segment in entry["seen"]:
            raise FormatError(
                f"duplicate segment {segment!r} in inventory {inv_id}", source=name, line=line_num
            )
        entry["seen"].add(segment)
        entry["segments"].append(InventorySegment(segment, seg_class, features))
    return [
        Inventory(inv_id, data["language"], data["iso"], tuple(data["segments"]))
        for inv_id, data in grouped.items()
    ]


FEATURE_CELLS = ["+", "-", " + ", " -", "+,-", "", "0", "junk", " +\n", "-\n+"]
# "é" precomposed and decomposed are one segment, so they can collide as duplicates.
PHONEMES = ["a", "b", "ʒ", "tʃ", "aː", "\u00e9", "e\u0301", "ɔɪ", "˥"]
LANGUAGE_NAMES = ["Lang{}", " Lang{} ", "Lang, {}", 'Lang "{}"']
BAD_CELLS = {"InventoryID": "x1", "SegmentClass": "glide", "Phoneme": "WORD_BOUNDARY"}


@st.composite
def inventory_csvs(draw):
    """The text of a PHOIBLE-shaped CSV.

    Columns come in any order, but at least half the time the three
    per-inventory columns come first; one feature name may appear twice.
    Every inventory draws its rows from one pool of up to eight (phoneme,
    class, cell row) entries, and every cell row from a pool of up to three,
    so row tails repeat across inventories and within one a first sight may
    come before a repeat; one phoneme can carry different features in
    different inventories. An inventory's rows may come in two runs, the
    second after every other inventory's first run and at times under
    another spelling of its id (" 1" for "1") or another language name.
    Language names may hold a comma or a quote and feature cells a newline;
    lines end in LF or CRLF, and the last may have no line ending. Blank rows
    are mixed in, and at times one row is made bad.
    """
    features = draw(st.lists(st.sampled_from("abcdefgh"), min_size=0, max_size=5, unique=True))
    if features and draw(st.booleans()):
        features.append(draw(st.sampled_from(features)))
    columns = list(REQUIRED_COLUMNS) + [f"feat_{f}" for f in features]
    if draw(st.booleans()):
        header = draw(st.permutations(columns[:3])) + draw(st.permutations(columns[3:]))
    else:
        header = draw(st.permutations(columns))
    cell_row = st.fixed_dictionaries(
        {f"feat_{f}": st.sampled_from(FEATURE_CELLS) for f in features}
    )
    cell_rows = draw(st.lists(cell_row, min_size=1, max_size=3))
    classes = st.sampled_from(["vowel", "consonant", "tone", " Vowel "])
    entry = st.tuples(st.sampled_from(PHONEMES), classes, st.sampled_from(cell_rows))
    pool = draw(st.lists(entry, min_size=1, max_size=8))
    runs, later_runs = [], []
    for inv_id in draw(st.lists(st.integers(1, 6), min_size=1, max_size=5, unique=True)):
        language = draw(st.sampled_from(LANGUAGE_NAMES)).format(inv_id)
        entries = draw(st.lists(st.sampled_from(pool), max_size=6, unique_by=lambda e: e[0]))
        split = draw(st.integers(0, len(entries)))
        runs.append((str(inv_id), language, entries[:split]))
        id_cell = draw(st.sampled_from([str(inv_id), f" {inv_id}"]))
        later_runs.append((id_cell, draw(st.sampled_from([language, "Other"])), entries[split:]))
    rows = []
    for id_cell, language, entries in runs + later_runs:
        for phoneme, segment_class, cells in entries:
            fixed = {
                "InventoryID": id_cell,
                "LanguageName": language,
                "ISO6393": "qaa",
                "Phoneme": phoneme,
                "SegmentClass": segment_class,
            }
            rows.append([fixed.get(col, cells.get(col)) for col in header])
    defect = draw(st.sampled_from([None, None, None, "short", *BAD_CELLS]))
    if defect and rows:
        row = rows[draw(st.integers(0, len(rows) - 1))]
        if defect == "short":
            row.pop()
        else:
            row[header.index(defect)] = BAD_CELLS[defect]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from([[], [" "] * 3])))
    out = io.StringIO()
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    csv.writer(out, lineterminator=line_end).writerows([header, *rows])
    text = out.getvalue()
    return text[: -len(line_end)] if draw(st.booleans()) else text


@settings(max_examples=200, deadline=None)
@given(inventory_csvs(), st.sets(st.sampled_from(PHONEMES), max_size=5))
def test_loader_agrees_with_eager_oracle(text, observed):
    try:
        expected = eager_load_oracle(text)
    except FormatError as exc:
        with pytest.raises(FormatError) as raised:
            load_csv(text)
        assert str(raised.value) == str(exc).replace("<oracle>", "<file>")
        return
    got = load_csv(text)
    assert got == expected
    header = next(csv.reader(io.StringIO(text)))
    names = [col.strip() for col in header if col.strip() not in REQUIRED_COLUMNS]
    for inv, want in zip(got, expected):
        assert eligible_features(inv) == eligible_features(want)
        assert eligible_features(inv, min_each=1) == eligible_features(want, min_each=1)
        for seg in inv.segments:
            for feature in names:
                assert feature_of(inv, seg.segment, feature) is feature_of(
                    want, seg.segment, feature
                )
    if expected:
        ranked = [(inv.id, score) for inv, score in best_match(observed, got)]
        assert ranked == [(inv.id, score) for inv, score in best_match(observed, expected)]


def test_a_line_repeating_a_known_head_and_tail_is_not_parsed_again(monkeypatch):
    """200 inventories of 30 rows drawn from 40 distinct tails: the csv module reads the header
    and each tail's first sight, and an id is read once per head or first-sight tail."""
    rng = random.Random(27)
    phonemes = [chr(code) for code in range(0x250, 0x250 + 40)]  # ɐ ɑ ɒ ɓ ɔ …
    tails = [f"{p},consonant,{rng.choice('+-0')},{rng.choice('+-0')}\n" for p in phonemes]
    lines = [HEADER]
    for inv_id in range(1, 201):
        lines += [f"{inv_id},Lang{inv_id},qaa,{tail}" for tail in rng.sample(tails, 30)]
    text = "".join(lines)
    expected = eager_load_oracle(text)
    readers, ids_read = [], []
    reader = csv.reader
    monkeypatch.setattr(csv, "reader", lambda *args: readers.append(1) or reader(*args))

    def counted_int(id_cell):
        ids_read.append(id_cell)
        return int(id_cell)

    monkeypatch.setattr(inventory, "int", counted_int, raising=False)
    assert load_csv(text) == expected
    assert len(readers) <= 1 + len(tails)
    assert len(ids_read) <= 200 + len(tails)


@settings(max_examples=100, deadline=None)
@given(inventory_csvs())
def test_equal_cells_share_one_read_only_mapping(text):
    try:
        invs = load_csv(text)
    except FormatError:
        return
    rows = [row for row in csv.reader(io.StringIO(text)) if any(cell.strip() for cell in row)]
    header = [col.strip() for col in rows[0]]
    feature_positions = [i for i, col in enumerate(header) if col not in REQUIRED_COLUMNS]
    id_pos, phoneme_pos = header.index("InventoryID"), header.index("Phoneme")
    by_key = {(inv.id, seg.segment): seg for inv in invs for seg in inv.segments}
    shared = {}
    for row in rows[1:]:
        seg = by_key[(int(row[id_pos]), IpaSegment(row[phoneme_pos].strip()))]
        cells = tuple(row[pos] for pos in feature_positions)
        assert shared.setdefault(cells, seg.features) is seg.features
        with pytest.raises(TypeError):
            seg.features["feat_a"] = TernaryValue.PLUS
