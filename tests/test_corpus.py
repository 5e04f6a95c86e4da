import csv
import io
import os
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from phonofold import corpus

from phonofold.corpus import (
    DEFAULT_SCHEMA,
    UtteranceRecord,
    convert_corpus,
    parse_age,
    read_corpus,
    sort_by_age,
    write_corpus,
)
from phonofold.errors import FormatError
from phonofold.folding import parse_fold_map
from phonofold.g2p import GraphemeMap, PassthroughBackend, RuleSet, RulesBackend, SyllabaryBackend
from phonofold.g2p import parse_syllable_table

CHA_BACKEND = RulesBackend(
    RuleSet(grapheme_map=GraphemeMap([("ch", ["tʃ"]), ("c", ["k"]), ("a", ["a"])]))
)


class FailingBackend:
    """Converts like CHA_BACKEND but fails with a plain exception on one word."""

    def convert_word(self, word):
        if word == "chaq":
            raise RuntimeError("boom")
        return CHA_BACKEND.convert_word(word)


def read_small(fixtures, **kwargs):
    return list(read_corpus(fixtures / "corpus_small.csv", **kwargs))


class TestParseAge:
    def test_whole_months(self):
        assert parse_age("1;06.00") == 18.0

    def test_zero(self):
        assert parse_age("0;00.00") == 0.0

    def test_days_use_average_month_length(self):
        # 24 + 3 + 15/30.44, frozen from the arithmetic
        assert parse_age("2;03.15") == pytest.approx(27.492772667542706, abs=1e-12)

    def test_day_part_optional(self):
        assert parse_age("2;03") == 27.0

    def test_malformed_is_none(self):
        assert parse_age("") is None
        assert parse_age("eighteen") is None
        assert parse_age("1;2;3") is None


class TestReadCorpus:
    def test_roles_to_is_child(self, fixtures):
        records = read_small(fixtures)
        assert [r.is_child for r in records] == [False, True, False]

    def test_child_role_is_exact_and_case_sensitive(self, fixtures):
        records = read_small(fixtures, child_role="chi")
        assert not any(r.is_child for r in records)

    def test_age_cells_parsed(self, fixtures):
        records = read_small(fixtures)
        assert [r.target_child_age for r in records] == [18.0, 18.0, 30.5]
        assert records[1].age_text == "1;06.00"

    def test_non_finite_and_negative_month_cells_are_ageless(self):
        header = ",".join(DEFAULT_SCHEMA.values())
        cells = ["inf", "1e400", "-inf", "nan", "-3", "18.5"]
        text = header + "\n" + "".join(f"u,t,c,col,MOT,{cell},hi\n" for cell in cells)
        ages = [r.target_child_age for r in read_corpus(io.StringIO(text))]
        assert ages == [None, None, None, None, None, 18.5]

    def test_extra_columns_preserved_in_order(self, fixtures):
        record = read_small(fixtures)[0]
        assert list(record.extra) == ["num_morphemes", "part_of_speech"]
        assert record.extra["num_morphemes"] == "2"

    def test_empty_file_with_header_yields_nothing(self):
        header = ",".join(DEFAULT_SCHEMA.values())
        assert list(read_corpus(io.StringIO(header + "\n"))) == []

    def test_missing_gloss_column_is_format_error(self):
        with pytest.raises(FormatError, match="gloss"):
            list(read_corpus(io.StringIO("id,speaker_role\n1,MOT\n")))

    def test_bad_rows_skipped_and_counted(self):
        header = ",".join(DEFAULT_SCHEMA.values())
        text = header + "\nu1,t,c,col,MOT,18,hi,extra-cell\nu2,t,c,col,CHI,19,yo\n"
        errors = []
        records = list(read_corpus(io.StringIO(text), row_errors=errors))
        assert [r.utterance_id for r in records] == ["u2"]
        assert len(errors) == 1

    @pytest.mark.parametrize("middle", [[], ["x", 'x "" x']], ids=["two-lines", "four-lines"])
    def test_oversized_quoted_cell_is_skipped_with_all_its_lines(self, middle):
        header = ",".join(DEFAULT_SCHEMA.values())
        cell = '"' + "x" * (csv.field_size_limit() + 10)
        lines = [header, "1,t,c,col,MOT,18," + cell, *middle, '2,t,c,col,MOT,18,planted"']
        text = "\n".join(lines + ["3,t,c,col,MOT,18,kept", ""])
        errors = []
        records = list(read_corpus(io.StringIO(text), row_errors=errors))
        assert [(r.utterance_id, r.gloss) for r in records] == [("3", "kept")]
        assert errors == [(2, f"field larger than field limit ({csv.field_size_limit()})")]

    @pytest.mark.parametrize(
        "cell, rest",
        [
            ('5" tall ', []),
            ('"5"" tall ', ['x ""still"" in, "" x', 'out", "x" , a"']),
            ('"x', ['"']),
        ],
        ids=["unquoted", "quoted", "quote-alone"],
    )
    def test_a_quote_in_an_oversized_cell_follows_the_csv_rule(self, cell, rest):
        """A quote opens a cell only at the cell's start: elsewhere it is a literal."""
        header = ",".join(DEFAULT_SCHEMA.values())
        oversized = "1,t,c,col,MOT,18," + cell + "x" * (csv.field_size_limit() + 10)
        good = ["2,t,c,col,MOT,18,kept", '3,t,c,col,MOT,18,"also, kept"', "4,t,c,col,MOT,short"]
        text = "\n".join([header, oversized, *rest, *good, ""])
        errors = []
        records = list(read_corpus(io.StringIO(text), row_errors=errors))
        assert [(r.utterance_id, r.gloss) for r in records] == [("2", "kept"), ("3", "also, kept")]
        limit = f"field larger than field limit ({csv.field_size_limit()})"
        assert errors == [(2, limit), (5 + len(rest), "row does not match header")]

    @given(st.text(alphabet='a",', max_size=12))
    @example('"a"b,"c""')
    @example('a"b,"')
    def test_a_row_ends_inside_a_quoted_cell_as_the_csv_module_reads_it(self, line):
        reader = csv.reader(io.StringIO(line + "\nnext\n"))
        next(reader)
        inside = reader.line_num > 1  # the cell ran on into the next line
        assert bool(corpus._IN_QUOTED_CELL.fullmatch(line + "\n")) == inside

    def test_module_patterns_compile_on_python_3_10(self):
        """No possessive quantifier or atomic group: the re module has them from 3.11 only."""
        patterns = [v.pattern for v in vars(corpus).values() if isinstance(v, re.Pattern)]
        assert patterns
        assert not [p for p in patterns if re.search(r"[*+?}]\+|\(\?>", p)]

    def test_quoted_gloss_with_comma(self, fixtures):
        assert read_small(fixtures)[2].gloss == "cha , cha"

    def test_is_child_cell_takes_the_config_file_truth_words(self):
        header = ",".join(DEFAULT_SCHEMA.values()) + ",is_child"
        cells = ["on", " Yes ", "TRUE", "1", "off", "no", ""]
        rows = "".join(f"u{i},t,c,col,MOT,18,hi,{cell}\n" for i, cell in enumerate(cells))
        records = read_corpus(io.StringIO(header + "\n" + rows))
        assert [r.is_child for r in records] == [True, True, True, True, False, False, False]


# --- the positional reader against the DictReader one it replaced ---------


def dict_reader_records(text, schema=None, child_role="CHI"):
    """(records, row_errors) of a corpus CSV, read through csv.DictReader by column name."""
    schema = dict(DEFAULT_SCHEMA if schema is None else schema)
    quotes, row_errors = [0], []
    reader = csv.DictReader(counting_quotes(io.StringIO(text, newline=""), quotes))
    if reader.fieldnames is None:
        raise FormatError("empty corpus file", source="<file>")
    columns = [c for c in reader.fieldnames if c is not None]
    missing = [source_col for source_col in schema.values() if source_col not in columns]
    if missing:
        message = "missing column(s) " + ", ".join(repr(c) for c in missing)
        raise FormatError(message, source="<file>")
    mapped = set(schema.values()) | set(corpus.OUTPUT_COLUMNS)
    records = []
    for row in dict_rows(reader, quotes, row_errors):
        def cell(key):
            col = schema.get(key)
            return row[col] if col is not None else ""

        age_text, speaker_role = cell("target_child_age"), cell("speaker_role")
        records.append(
            UtteranceRecord(
                utterance_id=cell("utterance_id"),
                transcript_id=cell("transcript_id"),
                corpus_id=cell("corpus_id"),
                collection_id=cell("collection_id"),
                speaker_role=speaker_role,
                target_child_age=corpus._age_from_cell(age_text),
                age_text=age_text,
                gloss=cell("gloss"),
                phonemized=row.get("phonemized"),
                is_child=(
                    corpus.is_true(row["is_child"])
                    if "is_child" in row
                    else speaker_role == child_role
                ),
                error=row.get("errors", ""),
                extra={k: v for k, v in row.items() if k not in mapped},
            )
        )
    return records, row_errors


def counting_quotes(lines, quotes):
    for line in lines:
        quotes[0] += line.count('"')
        yield line


def dict_rows(reader, quotes, row_errors):
    while True:
        start = quotes[0]
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            problem, line_num = str(exc), reader.reader.line_num
            while (quotes[0] - start) % 2:
                try:
                    next(reader)
                except StopIteration:
                    break
                except csv.Error:
                    pass
        else:
            if None not in row and not any(value is None for value in row.values()):
                yield row
                continue
            problem, line_num = "row does not match header", reader.reader.line_num
        row_errors.append((line_num, problem))


AGE_CELLS = ["18", "1;06.00", " 2;03 ", "", "-3", "x;y", "1.5", "inf", "0;00"]
CELL_TEXT = st.text(alphabet='ab ,"\nxʃ', max_size=6)
CUSTOM_SCHEMAS = [
    None,
    {"gloss": "text", "speaker_role": "who", "target_child_age": "age"},
    {"gloss": "text", "utterance_id": "text", "corpus_id": "extra"},
]


@st.composite
def corpus_csvs(draw):
    """(csv text, schema): headers with repeated and written-back columns, rows of any width."""
    schema = draw(st.sampled_from(CUSTOM_SCHEMAS))
    names = list(dict.fromkeys((schema or DEFAULT_SCHEMA).values()))
    pool = names + ["phonemized", "is_child", "errors", "extra", "who", "age", "text", ""]
    header = draw(st.permutations(names)) + draw(st.lists(st.sampled_from(pool), max_size=5))
    header = draw(st.permutations(header))
    role_cells = st.sampled_from(["CHI", "MOT", "chi", "true", ""])
    width = len(header)
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):  # runs of one age cell
        age = draw(st.sampled_from(AGE_CELLS))
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["row"] * 4 + ["blank", "short", "long"]))
            if kind == "blank":
                lines.append([])
                continue
            cells = [draw(st.one_of(CELL_TEXT, role_cells)) for _ in header]
            for i, column in enumerate(header):
                if column in ("target_child_age", "age"):
                    cells[i] = age
            n = {"row": width, "short": draw(st.integers(0, width - 1))}.get(kind, width + 1)
            lines.append((cells + ["spare"])[:n])
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    for line in lines:
        if line:
            writer.writerow(line)
        else:
            buffer.write(draw(st.sampled_from(["\r\n", "\n"])))
    return buffer.getvalue(), schema


@given(corpus_csvs(), st.sampled_from(["CHI", "MOT"]))
@example(("id,gloss,x,gloss,id\n1,a,b,c,2\n\n3,c\n4,d,e,f,5,6\n", {"gloss": "gloss"}), "CHI")
@example(("\n", None), "CHI")
@example(("", None), "CHI")
def test_positional_reader_equals_the_dict_reader(case, child_role):
    text, schema = case
    try:
        expected = dict_reader_records(text, schema, child_role)
    except FormatError as exc:
        with pytest.raises(FormatError, match=re.escape(str(exc))):
            list(read_corpus(io.StringIO(text, newline=""), schema, child_role))
        return
    row_errors = []
    records = list(read_corpus(io.StringIO(text, newline=""), schema, child_role, row_errors))
    assert [vars(r) for r in records] == [vars(r) for r in expected[0]]
    assert [list(r.extra) for r in records] == [list(r.extra) for r in expected[0]]
    assert row_errors == expected[1]


class TestConvertCorpus:
    def test_rules_backend_fills_phonemized(self, fixtures):
        records = read_small(fixtures)
        out, summary = convert_corpus(records, CHA_BACKEND, uncorrected=True)
        assert out[1].phonemized == "tʃ a"
        assert summary.rows == 3 and summary.errors == 0
        assert "tʃ" in summary.observed

    def test_uncorrected_skips_fold_map(self, fixtures):
        records = read_small(fixtures)
        fold_map = parse_fold_map("tʃ -> t")
        out, _ = convert_corpus(records, CHA_BACKEND, fold_map=fold_map, uncorrected=True)
        assert out[1].phonemized == "tʃ a"

    def test_fold_map_applied_when_correcting(self, fixtures):
        records = read_small(fixtures)
        fold_map = parse_fold_map("tʃ -> t")
        out, summary = convert_corpus(records, CHA_BACKEND, fold_map=fold_map)
        assert out[1].phonemized == "t a"
        assert "tʃ" not in summary.observed

    def test_fold_map_required_unless_uncorrected(self, fixtures):
        with pytest.raises(ValueError, match="uncorrected"):
            convert_corpus(read_small(fixtures), CHA_BACKEND)

    def test_failed_row_kept_with_error(self, fixtures):
        table = parse_syllable_table("ma1\tm a\t˥\n")
        backend = SyllabaryBackend(table)
        records = read_small(fixtures)
        out, summary = convert_corpus(records, backend, uncorrected=True)
        assert out[0].phonemized == "" and out[0].error
        assert summary.errors == 3

    def test_unexpected_exception_stays_in_its_row(self):
        records = [UtteranceRecord(gloss=g) for g in ("cha", "cha chaq", "a")]
        out, summary = convert_corpus(records, FailingBackend(), uncorrected=True)
        assert [r.phonemized for r in out] == ["tʃ a", "", "a"]
        assert out[1].error == "RuntimeError: boom"
        assert summary.rows == 3 and summary.errors == 1

    def test_keep_word_boundaries_flag_controls_emission(self, fixtures):
        records = read_small(fixtures)
        out, _ = convert_corpus(
            records, CHA_BACKEND, uncorrected=True, keep_word_boundaries=True
        )
        assert out[0].phonemized == "tʃ a WORD_BOUNDARY tʃ a"

    def test_folding_cannot_cross_words_even_without_boundaries(self):
        # word-final tʃ then word-initial a must not merge as one window
        record = UtteranceRecord(gloss="cha cha")
        fold_map = parse_fold_map("a tʃ -> X")
        out, _ = convert_corpus([record], CHA_BACKEND, fold_map=fold_map)
        assert out[0].phonemized == "tʃ a tʃ a"

    def test_order_preserved_across_workers(self, fixtures):
        records = read_small(fixtures) * 20
        seq, seq_summary = convert_corpus(records, CHA_BACKEND, uncorrected=True, workers=1)
        par, par_summary = convert_corpus(records, CHA_BACKEND, uncorrected=True, workers=4)
        assert [r.phonemized for r in seq] == [r.phonemized for r in par]
        assert seq_summary.observed == par_summary.observed

    @pytest.mark.parametrize("cpus, rows, started", [(4, 3, [3]), (2, 20, [2]), (1, 20, [])])
    def test_pool_size_capped_by_cpus_and_rows(self, monkeypatch, cpus, rows, started):
        sizes = []

        class RecordingPool:
            """Records the pool size asked for and maps in this process: no process starts."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(corpus, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        records = [UtteranceRecord(gloss="cha")] * rows
        out, _ = convert_corpus(records, CHA_BACKEND, uncorrected=True, workers=5000)
        assert sizes == started
        assert [r.phonemized for r in out] == ["tʃ a"] * rows

    def test_pool_is_sent_only_glosses_and_rows_keep_their_other_fields(
        self, monkeypatch, fixtures
    ):
        sent = []

        class RecordingPool:
            """Records every item it is asked to map and maps in this process."""

            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items, chunksize=1):
                items = list(items)
                sent.extend(items)
                return map(fn, items)

        monkeypatch.setattr(corpus, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        records = read_small(fixtures) + [UtteranceRecord(utterance_id="x", gloss="cha chaq")]
        for record in records:
            record.phonemized, record.error = "stale", "stale error"
        out, summary = convert_corpus(records, FailingBackend(), uncorrected=True, workers=2)
        assert sent == [r.gloss for r in records]
        assert all(type(gloss) is str for gloss in sent)
        converted = [(r.phonemized, r.error) for r in out]
        lines = ["tʃ a tʃ a", "tʃ a", "tʃ a tʃ a"]
        assert converted == [(line, "") for line in lines] + [("", "RuntimeError: boom")]
        masked = {"phonemized": None, "error": None}
        assert [{**vars(r), **masked} for r in out] == [{**vars(r), **masked} for r in records]
        assert summary.rows == 4 and summary.errors == 1


class TestConvertText:
    def test_returns_the_emitted_line_and_its_segments(self):
        fold_map = parse_fold_map("a -> e")
        result = corpus.convert_text("cha cha", CHA_BACKEND, fold_map, True)
        assert result == ("tʃ e WORD_BOUNDARY tʃ e", "", {"tʃ", "e"}, set())

    def test_a_raising_backend_gives_only_its_message(self):
        result = corpus.convert_text("cha chaq", FailingBackend(), None, False)
        assert result == ("", "RuntimeError: boom", set(), set())


class TestWriteCorpus:
    def test_round_trip_preserves_cells(self, fixtures):
        records = read_small(fixtures)
        out, _ = convert_corpus(records, PassthroughBackend(), uncorrected=True)
        buffer = io.StringIO()
        write_corpus(out, buffer)
        buffer.seek(0)
        original = list(csv.DictReader(open(fixtures / "corpus_small.csv", encoding="utf-8")))
        written = list(csv.DictReader(buffer))
        assert len(written) == len(original)
        for before, after in zip(original, written):
            for column, value in before.items():
                assert after[column] == value

    def test_comma_gloss_round_trips(self, fixtures):
        records = read_small(fixtures)
        buffer = io.StringIO()
        write_corpus(records, buffer)
        buffer.seek(0)
        rows = list(csv.DictReader(buffer))
        assert rows[2]["gloss"] == "cha , cha"

    def test_row_count(self):
        records = [UtteranceRecord(utterance_id=str(i), gloss="a") for i in range(1000)]
        buffer = io.StringIO()
        write_corpus(records, buffer)
        assert len(buffer.getvalue().splitlines()) == 1001

    def test_written_corpus_reads_back(self, fixtures, tmp_path):
        records = read_small(fixtures)
        out, _ = convert_corpus(records, CHA_BACKEND, uncorrected=True)
        path = tmp_path / "out.csv"
        write_corpus(out, path)
        back = list(read_corpus(path))
        assert [r.phonemized for r in back] == [r.phonemized for r in out]
        assert [r.is_child for r in back] == [r.is_child for r in out]
        assert [r.age_text for r in back] == [r.age_text for r in out]


class TestSortByAge:
    def test_stable_global_sort(self):
        records = [
            UtteranceRecord(utterance_id="a", target_child_age=24.0),
            UtteranceRecord(utterance_id="b", target_child_age=6.0),
            UtteranceRecord(utterance_id="c", target_child_age=None),
            UtteranceRecord(utterance_id="d", target_child_age=6.0),
        ]
        ordered = sort_by_age(records)
        assert [r.utterance_id for r in ordered] == ["b", "d", "a", "c"]
