import csv
import io
import os

import pytest

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

    def test_quoted_gloss_with_comma(self, fixtures):
        assert read_small(fixtures)[2].gloss == "cha , cha"

    def test_is_child_cell_takes_the_config_file_truth_words(self):
        header = ",".join(DEFAULT_SCHEMA.values()) + ",is_child"
        cells = ["on", " Yes ", "TRUE", "1", "off", "no", ""]
        rows = "".join(f"u{i},t,c,col,MOT,18,hi,{cell}\n" for i, cell in enumerate(cells))
        records = read_corpus(io.StringIO(header + "\n" + rows))
        assert [r.is_child for r in records] == [True, True, True, True, False, False, False]


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
