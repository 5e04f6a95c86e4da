import csv
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import phonofold
from phonofold import cli
from phonofold.cli import OPTIONS, build_parser, main
from phonofold.stream import open_text, parse_stream

SRC = Path(phonofold.__file__).resolve().parents[1]

FRENCH_ARGS = ["--inventory-id", "2269"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def popen_cli(*argv, stdout=subprocess.PIPE, stdin=None):
    """The CLI in a fresh interpreter, so stderr shows any traceback."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.Popen(
        [sys.executable, "-m", "phonofold.cli", *argv],
        env=env,
        stdin=stdin,
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        encoding="utf-8",
    )


@pytest.fixture
def folded_french(tmp_path, fixtures, capsys):
    """Mock backend output pushed through the French fold map."""
    out = tmp_path / "folded.txt"
    code = main(
        [
            "convert",
            "--backend",
            "passthrough",
            "--fold",
            str(fixtures / "french.fold"),
            str(fixtures / "french_backend_output.txt"),
            "--output",
            str(out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    return out


class TestConvert:
    def test_rules_backend_stdin(self, capsys, fixtures, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("cha\n"))
        code, out, _ = run(
            capsys,
            "convert",
            "--backend",
            "rules",
            "--rules",
            str(fixtures / "cha.rules"),
            "--uncorrected",
        )
        assert code == 0
        assert out == "tʃ a\n"

    def test_keep_word_boundaries(self, capsys, fixtures, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("cha cha\n"))
        code, out, _ = run(
            capsys,
            "convert",
            "--backend",
            "rules",
            "--rules",
            str(fixtures / "cha.rules"),
            "--uncorrected",
            "--keep_word_boundaries",
        )
        assert code == 0
        assert out == "tʃ a WORD_BOUNDARY tʃ a\n"

    def test_uncorrected_makes_fold_map_inert(self, capsys, fixtures, monkeypatch):
        fold = str(fixtures / "french.fold")
        monkeypatch.setattr("sys.stdin", io.StringIO("ta\n"))
        rules = str(fixtures / "cha.rules")
        code, with_map, _ = run(
            capsys, "convert", "--backend", "rules", "--rules", rules,
            "--fold", fold, "--uncorrected",
        )
        assert code == 0
        monkeypatch.setattr("sys.stdin", io.StringIO("ta\n"))
        code, without_map, _ = run(
            capsys, "convert", "--backend", "rules", "--rules", rules, "--uncorrected",
        )
        assert with_map == without_map

    def test_fold_map_applied_by_default(self, capsys, fixtures, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("d ʒ a\n"))
        code, out, _ = run(
            capsys,
            "convert",
            "--backend",
            "passthrough",
            "--fold",
            str(fixtures / "french.fold"),
        )
        assert code == 0
        assert out == "dʒ a\n"

    def test_missing_fold_map_is_config_error(self, capsys, fixtures, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("cha\n"))
        code, _, err = run(
            capsys, "convert", "--backend", "rules", "--rules", str(fixtures / "cha.rules")
        )
        assert code == 2
        assert "fold map" in err

    def test_split_tones_only_for_syllabary(self, capsys, fixtures):
        code, _, err = run(
            capsys,
            "convert",
            "--backend",
            "rules",
            "--rules",
            str(fixtures / "cha.rules"),
            "--uncorrected",
            "--split-tones",
        )
        assert code == 2
        assert "split-tones" in err

    def test_row_errors_exit_one_but_emit_lines(self, capsys, fixtures, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("cat\nzzz\ncat\n"))
        code, out, err = run(
            capsys,
            "convert",
            "--backend",
            "lexicon",
            "--lexicon",
            str(fixtures / "cat.lex"),
            "--uncorrected",
        )
        assert code == 1
        assert out == "k æ t\n\nk æ t\n"
        assert "zzz" in err

    def test_syllabary_split_tones(self, capsys, fixtures, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("ma1\n"))
        code, out, _ = run(
            capsys,
            "convert",
            "--backend",
            "syllabary",
            "--table",
            str(fixtures / "pinyin.tsv"),
            "--uncorrected",
            "--split-tones",
        )
        assert code == 0
        assert out == "m a ˥\n"

    def test_config_file_supplies_options(self, capsys, fixtures, tmp_path, monkeypatch):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"backend = rules\nrules = {fixtures / 'cha.rules'}\nuncorrected = true\n",
            encoding="utf-8",
        )
        monkeypatch.setattr("sys.stdin", io.StringIO("cha\n"))
        code, out, _ = run(capsys, "convert", "--config", str(config))
        assert code == 0
        assert out == "tʃ a\n"

    def test_reader_closing_early_is_not_a_traceback(self, fixtures, tmp_path):
        lines = tmp_path / "lines.txt"
        lines.write_text("cha cha xa\n" * 20_000, encoding="utf-8")
        backend = ["--backend", "rules", "--rules", str(fixtures / "cha.rules")]
        proc = popen_cli("convert", *backend, "--uncorrected", str(lines))
        assert proc.stdout.readline() == "tʃ a tʃ a tʃ a\n"
        proc.stdout.close()  # as `| head -1` does
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err

    def test_any_failing_line_is_reported_and_the_rest_converted(
        self, capsys, monkeypatch, tmp_path
    ):
        class FlakyBackend:
            def convert_line(self, text):
                if text == "boom":
                    raise RuntimeError("backend fell over")
                return text.split(), set()

        monkeypatch.setattr("phonofold.cli.build_backend", lambda cfg: FlakyBackend())
        lines = tmp_path / "lines.txt"
        lines.write_text("a b\nboom\nc\n", encoding="utf-8")
        code, out, err = run(
            capsys, "convert", "--backend", "passthrough", "--uncorrected", str(lines)
        )
        assert code == 1
        assert out == "a b\n\nc\n"
        assert err == "line 2: RuntimeError: backend fell over\n"

    @pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
    def test_output_onto_its_own_input_exits_two(self, fixtures, tmp_path, link):
        text = tmp_path / "lines.txt"
        text.write_bytes((fixtures / "french_backend_output.txt").read_bytes())
        output = tmp_path / "link.txt" if link else text
        if link:
            output.symlink_to(text)
        argv = ["convert", "--backend", "passthrough", "--uncorrected", "--output", str(output)]
        assert_clean_error(popen_cli(*argv, str(text)), "is the input file")
        assert text.read_bytes() == (fixtures / "french_backend_output.txt").read_bytes()

    def test_output_onto_its_own_stdin_exits_two(self, fixtures, tmp_path):
        original = (fixtures / "french_backend_output.txt").read_bytes()
        text = tmp_path / "lines.txt"
        text.write_bytes(original)
        argv = ["convert", "--backend", "passthrough", "--uncorrected", "--output", str(text)]
        with open(text, "rb") as stdin:
            assert_clean_error(popen_cli(*argv, stdin=stdin), "is the input file")
        assert text.read_bytes() == original

    def test_stdin_from_another_file_writes_an_existing_output(self, fixtures, tmp_path):
        output = tmp_path / "out.txt"
        output.write_text("old\n", encoding="utf-8")
        argv = ["convert", "--backend", "passthrough", "--uncorrected", "--output", str(output)]
        with open(fixtures / "french_backend_output.txt", "rb") as stdin:
            proc = popen_cli(*argv, stdin=stdin)
            _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0 and err == ""
        source = (fixtures / "french_backend_output.txt").read_text(encoding="utf-8")
        assert output.read_text(encoding="utf-8") == source

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("bogus = 1\n", encoding="utf-8")
        code, _, err = run(capsys, "convert", "--config", str(config))
        assert code == 2
        assert "bogus" in err


class TestValidate:
    def test_french_scenario(self, capsys, fixtures, folded_french):
        code, out, _ = run(
            capsys,
            "validate",
            "--inventory",
            str(fixtures / "french_inventory.csv"),
            *FRENCH_ARGS,
            str(folded_french),
            "--json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["unknown"] == ["dʒ", "tʃ"]
        assert payload["unseen"] == ["ɧ"]

    def test_perfect_alignment_exits_zero(self, capsys, fixtures, tmp_path):
        aligned = tmp_path / "aligned.txt"
        aligned.write_text("b d ʒ ʁ m n ɧ a e i o ø\n", encoding="utf-8")
        code, _, _ = run(
            capsys,
            "validate",
            "--inventory",
            str(fixtures / "french_inventory.csv"),
            *FRENCH_ARGS,
            str(aligned),
        )
        assert code == 0

    def test_allowlist_subtracts_both_sides(self, capsys, fixtures, folded_french):
        code, _, _ = run(
            capsys,
            "validate",
            "--inventory",
            str(fixtures / "french_inventory.csv"),
            *FRENCH_ARGS,
            str(folded_french),
            "--allow",
            "dʒ tʃ ɧ",
        )
        assert code == 0

    def test_missing_inventory_id_exits_two(self, capsys, fixtures, folded_french):
        code, _, err = run(
            capsys,
            "validate",
            "--inventory",
            str(fixtures / "french_inventory.csv"),
            str(folded_french),
        )
        assert code == 2
        assert "inventory id" in err

    def test_inventory_from_environment(self, capsys, fixtures, folded_french, monkeypatch):
        monkeypatch.setenv("PHONOFOLD_INVENTORY", str(fixtures / "french_inventory.csv"))
        code, _, _ = run(capsys, "validate", *FRENCH_ARGS, str(folded_french))
        assert code == 1

    def test_summary_json_accepted_as_observed(self, capsys, fixtures, tmp_path):
        summary = tmp_path / "run.summary.json"
        summary.write_text(json.dumps({"observed_segments": ["a", "q"]}), encoding="utf-8")
        code, out, _ = run(
            capsys,
            "validate",
            "--inventory",
            str(fixtures / "french_inventory.csv"),
            *FRENCH_ARGS,
            str(summary),
            "--json",
        )
        assert code == 1
        assert json.loads(out)["unknown"] == ["q"]


class TestMatch:
    def test_ranked_output(self, capsys, fixtures, tmp_path):
        observed = tmp_path / "observed.txt"
        observed.write_text("a ɔɪ b dʒ\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "match", "--inventory", str(fixtures / "toy_inventories.csv"), str(observed)
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("1\t9002") and "L1=0" in lines[0]
        assert lines[1].startswith("2\t9001") and "L1=5" in lines[1]

    def test_single_candidate(self, capsys, fixtures, tmp_path):
        observed = tmp_path / "observed.txt"
        observed.write_text("a\n", encoding="utf-8")
        code, out, _ = run(
            capsys, "match", "--inventory", str(fixtures / "french_inventory.csv"), str(observed)
        )
        assert code == 0
        assert out.splitlines()[0].startswith("1\t2269")

    def test_empty_inventory_file_exits_two(self, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text(
            "InventoryID,LanguageName,ISO6393,Phoneme,SegmentClass\n", encoding="utf-8"
        )
        observed = tmp_path / "observed.txt"
        observed.write_text("a\n", encoding="utf-8")
        code, _, err = run(capsys, "match", "--inventory", str(empty), str(observed))
        assert code == 2
        assert "no inventories" in err


class TestCorpus:
    def test_end_to_end(self, capsys, fixtures, tmp_path):
        out_csv = tmp_path / "out.csv"
        code, _, err = run(
            capsys,
            "corpus",
            "--backend",
            "rules",
            "--rules",
            str(fixtures / "cha.rules"),
            "--uncorrected",
            "--input",
            str(fixtures / "corpus_small.csv"),
            "--output",
            str(out_csv),
        )
        assert code == 0
        assert "3 rows" in err
        text = out_csv.read_text(encoding="utf-8")
        assert "phonemized" in text.splitlines()[0]
        assert "tʃ a tʃ a" in text

        summary = json.loads((tmp_path / "out.csv.summary.json").read_text(encoding="utf-8"))
        assert summary["rows"] == 3
        assert summary["errors"] == 0
        assert "tʃ" in summary["observed_segments"]

    def test_a_format_character_is_a_row_error_and_the_run_goes_on(
        self, capsys, fixtures, tmp_path
    ):
        source, out_csv = tmp_path / "in.csv", tmp_path / "out.csv"
        header = "id,transcript_id,corpus_id,collection_id,speaker_role,target_child_age,gloss\n"
        glosses = ["cha", "\u200bcha", "cha cha"]  # a zero-width space opens the second
        rows = [f"u{i},t,c,col,MOT,18,{gloss}\n" for i, gloss in enumerate(glosses)]
        source.write_text(header + "".join(rows), encoding="utf-8")
        rules = str(fixtures / "cha.rules")
        argv = ["--uncorrected", "--input", str(source), "--output", str(out_csv)]
        code, _, err = run(capsys, "corpus", "--backend", "rules", "--rules", rules, *argv)
        assert (code, err) == (1, "3 rows, 1 errors, 0 skipped\n")
        written = list(csv.DictReader(out_csv.open(encoding="utf-8", newline="")))
        assert [row["phonemized"] for row in written] == ["tʃ a", "", "tʃ a tʃ a"]
        refused = "ValueError: segment '\\u200b' contains a format character"
        assert [row["errors"] for row in written] == ["", refused, ""]
        summary = json.loads((tmp_path / "out.csv.summary.json").read_text(encoding="utf-8"))
        assert (summary["rows"], summary["errors"]) == (3, 1)

    def test_schema_from_config_file(self, capsys, fixtures, tmp_path):
        src = tmp_path / "renamed.csv"
        src.write_text(
            "id,transcript_id,corpus_id,collection_id,speaker_role,target_child_age,text\n"
            "u1,t,c,col,MOT,18,cha\n",
            encoding="utf-8",
        )
        config = tmp_path / "run.cfg"
        config.write_text(
            f"backend = rules\nrules = {fixtures / 'cha.rules'}\n"
            "uncorrected = true\nschema.gloss = text\n",
            encoding="utf-8",
        )
        out_csv = tmp_path / "out.csv"
        code, _, _ = run(
            capsys,
            "corpus",
            "--config",
            str(config),
            "--input",
            str(src),
            "--output",
            str(out_csv),
        )
        assert code == 0
        assert "tʃ a" in out_csv.read_text(encoding="utf-8")

    def test_byte_identical_across_worker_counts(self, capsys, fixtures, tmp_path):
        outputs = []
        for workers, name in ((1, "one.csv"), (2, "two.csv")):
            out_csv = tmp_path / name
            code, _, _ = run(
                capsys,
                "corpus",
                "--backend",
                "rules",
                "--rules",
                str(fixtures / "cha.rules"),
                "--uncorrected",
                "--workers",
                str(workers),
                "--input",
                str(fixtures / "corpus_small.csv"),
                "--output",
                str(out_csv),
            )
            assert code == 0
            outputs.append(out_csv.read_bytes())
        assert outputs[0] == outputs[1]

    def test_failed_summary_write_leaves_no_output(self, capsys, fixtures, tmp_path, monkeypatch):
        def full_disk(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(json, "dump", full_disk)
        argv = ["corpus", "--backend", "passthrough", "--uncorrected", "--input"]
        argv += [str(fixtures / "corpus_small.csv"), "--output", str(tmp_path / "out.csv")]
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == "error: [Errno 28] No space left on device\n"
        assert list(tmp_path.iterdir()) == []  # no out.csv, no stand-in left behind

    def test_outputs_replace_old_files_and_leave_no_stand_ins(self, capsys, fixtures, tmp_path):
        out_csv = tmp_path / "out.csv"
        out_csv.write_text("old\n", encoding="utf-8")
        (tmp_path / "real.json").write_text("old\n", encoding="utf-8")
        (tmp_path / "summary.json").symlink_to(tmp_path / "real.json")
        argv = ["corpus", "--backend", "passthrough", "--uncorrected", "--input"]
        argv += [str(fixtures / "corpus_small.csv"), "--output", str(out_csv)]
        code, _, _ = run(capsys, *argv, "--summary", str(tmp_path / "summary.json"))
        assert code == 0
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["out.csv", "real.json", "summary.json"]
        assert out_csv.read_text(encoding="utf-8").startswith("id,")
        assert (tmp_path / "summary.json").is_symlink()
        assert json.loads((tmp_path / "real.json").read_text(encoding="utf-8"))["rows"] == 3

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_device_summary_is_written_in_place(self, fixtures, tmp_path):
        argv = ["corpus", "--backend", "passthrough", "--uncorrected", "--input"]
        argv += [str(fixtures / "corpus_small.csv"), "--output", str(tmp_path / "out.csv")]
        proc = popen_cli(*argv, "--summary", "/dev/stdout")
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0, err
        assert json.loads(out)["rows"] == 3
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]

    @pytest.mark.parametrize("target", ["output", "summary"])
    def test_unwritable_output_fails_before_converting(self, fixtures, tmp_path, target):
        paths = {"output": str(tmp_path / "out.csv"), "summary": str(tmp_path / "s.json")}
        paths[target] = str(tmp_path / "missing" / "dir" / "x")
        backend = ["--backend", "rules", "--rules", str(fixtures / "cha.rules"), "--uncorrected"]
        io_paths = ["--input", str(fixtures / "corpus_small.csv"), "--output", paths["output"]]
        proc = popen_cli("corpus", *backend, *io_paths, "--summary", paths["summary"])
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert err.startswith("error: cannot write") and "Traceback" not in err
        assert "rows" not in err  # nothing was converted
        assert not (tmp_path / "out.csv").exists() and not (tmp_path / "s.json").exists()

    @pytest.mark.parametrize(
        "output, summary, message",
        [
            ("o.csv", "o.csv", "--summary {dir}/o.csv is the --output file"),
            ("in.csv", "s.json", "--output {dir}/in.csv is the input file"),
            ("o.csv", "in.csv", "--summary {dir}/in.csv is the input file"),
        ],
        ids=["summary-is-output", "output-is-input", "summary-is-input"],
    )
    def test_writing_a_file_it_reads_or_writes_exits_two(
        self, fixtures, tmp_path, output, summary, message
    ):
        original = (fixtures / "corpus_small.csv").read_bytes()
        (tmp_path / "in.csv").write_bytes(original)
        argv = ["corpus", "--backend", "passthrough", "--uncorrected", "--input"]
        argv += [str(tmp_path / "in.csv"), "--output", str(tmp_path / output)]
        proc = popen_cli(*argv, "--summary", str(tmp_path / summary))
        assert_clean_error(proc, message.format(dir=tmp_path))
        assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]
        assert (tmp_path / "in.csv").read_bytes() == original

    def test_reserved_literal_in_post_rule_exits_two(self, fixtures, tmp_path):
        rules = tmp_path / "bad.rules"
        rules.write_text("map:\nc -> k\npost:\nk -> WORD_BOUNDARY\n", encoding="utf-8")
        backend = ["--backend", "rules", "--rules", str(rules), "--uncorrected"]
        io_paths = ["--input", str(fixtures / "corpus_small.csv")]
        proc = popen_cli("corpus", *backend, *io_paths, "--output", str(tmp_path / "o.csv"))
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 2
        assert f"error: {rules}: line 4:" in err and "Traceback" not in err

    def test_schema_override(self, capsys, fixtures, tmp_path):
        src = tmp_path / "renamed.csv"
        src.write_text(
            "id,transcript_id,corpus_id,collection_id,speaker_role,target_child_age,text\n"
            "u1,t,c,col,MOT,18,cha\n",
            encoding="utf-8",
        )
        out_csv = tmp_path / "out.csv"
        code, _, _ = run(
            capsys,
            "corpus",
            "--backend",
            "rules",
            "--rules",
            str(fixtures / "cha.rules"),
            "--uncorrected",
            "--schema",
            "gloss=text",
            "--input",
            str(src),
            "--output",
            str(out_csv),
        )
        assert code == 0
        assert "tʃ a" in out_csv.read_text(encoding="utf-8")


class TestStatsAndInfo:
    def test_stats_hand_counts(self, capsys, tmp_path):
        streams = tmp_path / "streams.txt"
        streams.write_text("a b a\nb a\n", encoding="utf-8")
        code, out, _ = run(capsys, "stats", str(streams), "--json")
        assert code == 0
        assert json.loads(out) == {"a": 3, "b": 2}

    def test_stats_aligned_text(self, capsys, tmp_path):
        streams = tmp_path / "streams.txt"
        streams.write_text("a b a\n", encoding="utf-8")
        code, out, _ = run(capsys, "stats", str(streams))
        assert code == 0
        assert out.splitlines()[0].split() == ["a", "2"]

    def test_stats_csv_equals_its_phonemized_cells_as_text(self, capsys, tmp_path):
        cells = ["a b a", "", "b WORD_BOUNDARY c", "a UTT_BOUNDARY d"]
        corpus_csv = tmp_path / "converted.csv"
        corpus_csv.write_text(
            "gloss,phonemized,errors\n"
            + "".join(f'x,"{cell}",\n' for cell in cells)
            + 'y,"a\nb",\n',  # a quoted cell may span lines
            encoding="utf-8",
        )
        streams = tmp_path / "streams.txt"
        streams.write_text("".join(f"{cell}\n" for cell in cells) + "a b\n", encoding="utf-8")
        code, from_csv, _ = run(capsys, "stats", str(corpus_csv), "--json")
        assert code == 0
        code, from_text, _ = run(capsys, "stats", str(streams), "--json")
        assert code == 0
        assert from_csv == from_text
        assert json.loads(from_csv) == {"a": 4, "b": 3, "c": 1, "d": 1}

    def test_stats_csv_without_phonemized_column_exits_two(self, capsys, fixtures):
        code, out, err = run(capsys, "stats", str(fixtures / "corpus_small.csv"))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "phonemized" in err

    def test_stats_takes_no_schema(self, capsys, fixtures):
        with pytest.raises(SystemExit) as info:
            main(["stats", "--schema", "gloss=text", str(fixtures / "corpus_small.csv")])
        assert info.value.code == 2
        assert "--schema" in capsys.readouterr().err

    def test_info_without_phonemized_column_exits_two(self, fixtures):
        source = str(fixtures / "corpus_small.csv")
        assert_clean_error(
            popen_cli("info", source), source, "no phonemized column to read segments from"
        )

    def test_info_output_onto_its_input_exits_two(self, tmp_path):
        source = curve_corpus(tmp_path)
        original = source.read_bytes()
        proc = popen_cli("info", str(source), "-o", str(source))
        assert_clean_error(proc, f"--output {source} is the input file")
        assert [p.name for p in tmp_path.iterdir()] == [source.name]
        assert source.read_bytes() == original

    @pytest.mark.parametrize("rows", [2, 3000])
    def test_info_reads_a_pipe_as_it_reads_the_path(self, tmp_path, rows):
        corpus_csv = tmp_path / "converted.csv"
        header = "id,transcript_id,corpus_id,collection_id,speaker_role,target_child_age,gloss,"
        lines = [f"u{i},t,c,col,MOT,{6 + i % 20},x,{'ab'[i % 2]} a\n" for i in range(rows)]
        text = header + "phonemized\n" + "".join(lines)
        corpus_csv.write_text(text, encoding="utf-8")
        by_path = popen_cli("info", str(corpus_csv))
        piped = popen_cli("info", "/dev/stdin", stdin=subprocess.PIPE)
        out, err = piped.communicate(text, timeout=60)
        assert (piped.returncode, err) == (0, "")
        assert out == by_path.communicate(timeout=60)[0]
        assert out.startswith("age_bucket,mean_information,n_utterances\n")

    def test_info_two_buckets(self, capsys, tmp_path):
        corpus_csv = tmp_path / "converted.csv"
        corpus_csv.write_text(
            "id,transcript_id,corpus_id,collection_id,speaker_role,target_child_age,gloss,phonemized\n"
            "u1,t,c,col,MOT,6,x,a b\n"
            "u2,t,c,col,MOT,18,x,b a\n"
            "u3,t,c,col,CHI,18,x,a a a a\n",
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "info", str(corpus_csv))
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "age_bucket,mean_information,n_utterances"
        # child-produced u3 is excluded; both buckets hold one 2-bit utterance
        assert lines[1] == "0,2.0,1"
        assert lines[2] == "1,2.0,1"

    @pytest.mark.parametrize("age", ["inf", "1e400"])
    def test_info_reads_a_non_finite_age_as_ageless(self, tmp_path, age):
        corpus_csv = tmp_path / "converted.csv"
        corpus_csv.write_text(
            "id,transcript_id,corpus_id,collection_id,speaker_role,target_child_age,gloss,phonemized\n"
            f"u1,t,c,col,MOT,{age},x,a b\n"
            "u2,t,c,col,MOT,18,x,b a\n",
            encoding="utf-8",
        )
        proc = popen_cli("info", str(corpus_csv))
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0 and "Traceback" not in err, err
        assert out.splitlines() == ["age_bucket,mean_information,n_utterances", "1,2.0,1"]

    def test_info_memory_does_not_grow_with_a_column_it_never_reads(self, tmp_path):
        def peak(notes):
            """tracemalloc's peak over an info run, after one run to warm up."""
            path = tmp_path / f"converted{len(notes)}.csv"
            header = "id,transcript_id,corpus_id,collection_id,speaker_role,target_child_age,gloss"
            rows = [f"u{i},t,c,col,MOT,{6 + i % 40},x,{'ab'[i % 2]} a{notes}" for i in range(2000)]
            columns = header + ",phonemized" + (",notes" if notes else "")
            path.write_text("\n".join([columns, *rows]) + "\n", encoding="utf-8")
            argv = ["info", str(path), "-o", str(tmp_path / "curve.csv")]
            assert main(argv) == 0
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert abs(peak("," + "n" * 500) - peak("")) < 100_000


def dict_reader_streams(path):
    """The streams of a file, each phonemized cell of a CSV read by name through csv.DictReader."""
    with open_text(path) as handle:
        lines = handle
        if Path(path).suffix.lower() == ".csv":
            reader = csv.DictReader(handle)
            cli._check_phonemized(path, reader.fieldnames)
            lines = (row["phonemized"] or "" for row in reader)
        yield from map(parse_stream, lines)


def stats_of(path, *flags):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["stats", str(path), *flags])
    return code, out.getvalue(), err.getvalue()


@st.composite
def phonemized_csvs(draw):
    """CSV text: phonemized columns repeated or missing, rows of any width, blank lines."""
    header = draw(st.lists(st.sampled_from(["phonemized", "gloss", "x", ""]), max_size=4))
    cells = st.sampled_from(["a b a", "", "ʃ WORD_BOUNDARY a", "b UTT_BOUNDARY a", "a\nb", "a, b"])
    buffer = io.StringIO(newline="")
    writer = csv.writer(buffer)
    if draw(st.booleans()):
        writer.writerow(header)
    for row in draw(st.lists(st.lists(cells, max_size=len(header) + 1), max_size=6)):
        if row:
            writer.writerow(row)
        else:
            buffer.write(draw(st.sampled_from(["\r\n", "\n"])))
    return buffer.getvalue()


@given(phonemized_csvs(), st.sampled_from([[], ["--json"]]))
@example("x,phonemized,phonemized\n1,a,b\n\n2\n3,a a,b b,c c\n", [])
def test_stats_reads_a_csv_as_the_dict_reader_did(text, flags):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "streams.csv"
        path.write_text(text, encoding="utf-8", newline="")
        got = stats_of(path, *flags)
        with mock.patch.object(cli, "_input_streams", dict_reader_streams):
            assert got == stats_of(path, *flags)


class TestCheckMapAndSuggest:
    def test_clean_map_exits_zero(self, capsys, fixtures):
        code, out, _ = run(capsys, "check-map", str(fixtures / "french.fold"))
        assert code == 0
        assert out == ""

    def test_dirty_map_reports_diagnostics(self, capsys, tmp_path):
        dirty = tmp_path / "dirty.fold"
        dirty.write_text("a -> b\nb -> c\n", encoding="utf-8")
        code, out, _ = run(capsys, "check-map", str(dirty))
        assert code == 1
        assert "non-confluence" in out

    def test_suggest_json(self, capsys, fixtures, tmp_path):
        observed = tmp_path / "observed.txt"
        # t̪ strips to t, like the inventory-free diacritic example
        observed.write_text("b d ʒ ʁ m n a e i o ø t̪\n", encoding="utf-8")
        inventory_csv = tmp_path / "inv.csv"
        inventory_csv.write_text(
            "InventoryID,LanguageName,ISO6393,Phoneme,SegmentClass\n"
            + "".join(
                f"7,Toy,qaa,{seg},{cls}\n"
                for seg, cls in [
                    ("b", "consonant"), ("d", "consonant"), ("ʒ", "consonant"),
                    ("ʁ", "consonant"), ("m", "consonant"), ("n", "consonant"),
                    ("a", "vowel"), ("e", "vowel"), ("i", "vowel"),
                    ("o", "vowel"), ("ø", "vowel"), ("t", "consonant"),
                ]
            ),
            encoding="utf-8",
        )
        code, out, _ = run(
            capsys,
            "suggest",
            "--inventory",
            str(inventory_csv),
            "--inventory-id",
            "7",
            str(observed),
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["suggestions"] == [
            {"unknown": "t̪", "candidate": "t", "reason": "diacritic"}
        ]


def assert_clean_error(proc, *fragments):
    """Exit 2 with one ``error:`` line naming each fragment, and no traceback."""
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 2, err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    for fragment in fragments:
        assert fragment in err, err


def run_python(code):
    """``python -c code`` in a fresh interpreter, so ``sys.modules`` holds only what it loads."""
    path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


class TestNumpyStaysUnloaded:
    """numpy loads only when silhouette or the labeled-vector analytics run."""

    @pytest.mark.parametrize("module", ["phonofold.cli", "phonofold"])
    def test_import_does_not_load_numpy(self, module):
        proc = run_python(f"import sys, {module}; print('numpy' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    def test_silhouette_of_a_vector_file(self, tmp_path):
        vectors = tmp_path / "vectors.csv"
        vectors.write_text("label,x,y\nL,0,0\nL,0,1\nR,10,0\nR,10,1\n", encoding="utf-8")
        proc = run_python(
            "import sys\n"
            "from phonofold.analysis import load_labeled_vectors, silhouette\n"
            "assert 'numpy' not in sys.modules\n"
            f"print(repr(silhouette(load_labeled_vectors({str(vectors)!r}))))\n"
        )
        assert proc.returncode == 0, proc.stderr
        # a = 1 and b = (10 + sqrt(101)) / 2 for every point
        assert float(proc.stdout) == pytest.approx(1 - 2 / (10 + 101**0.5), abs=1e-12)


POOL_MODULES = "[m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]"


class TestPoolStaysUnloaded:
    """The process pool loads only in a corpus run that starts workers."""

    @pytest.mark.parametrize("module", ["phonofold.cli", "phonofold"])
    def test_import_does_not_load_the_pool(self, module):
        proc = run_python(f"import sys, {module}; print({POOL_MODULES})")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("rows, workers", [(3, "1"), (1, "2")])
    def test_a_corpus_run_on_one_worker_does_not_load_the_pool(
        self, fixtures, tmp_path, rows, workers
    ):
        """``--workers 2`` on a one-row corpus is clamped to one worker."""
        lines = (fixtures / "corpus_small.csv").read_text(encoding="utf-8").splitlines()
        source = tmp_path / "in.csv"
        source.write_text("\n".join(lines[: rows + 1]) + "\n", encoding="utf-8")
        argv = ["corpus", "--backend", "passthrough", "--uncorrected", "--workers", workers]
        argv += ["--input", str(source), "--output", str(tmp_path / "out.csv")]
        proc = run_python(
            f"import sys\nfrom phonofold import cli\ncode = cli.main({argv!r})\n"
            f"print(code, {POOL_MODULES})"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 []\n"
        assert len((tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()) == rows + 1

    def test_the_module_attribute_is_the_pool_class(self):
        """In a fresh interpreter, where no monkeypatch has left the name set on the module."""
        proc = run_python(
            "import concurrent.futures, phonofold.corpus\n"
            "from phonofold.corpus import ProcessPoolExecutor\n"
            "print(ProcessPoolExecutor is phonofold.corpus.ProcessPoolExecutor"
            " is concurrent.futures.ProcessPoolExecutor)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True\n"

    def test_no_other_name_is_made_up(self):
        import phonofold.corpus

        assert not hasattr(phonofold.corpus, "no_such_name")
        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            phonofold.corpus.no_such_name


CLASS_MACHINERY = "[m for m in ('dataclasses', 'inspect') if m in sys.modules]"


class TestClassMachineryStaysUnloaded:
    """No record class is built with ``dataclasses``, so it and ``inspect`` never load."""

    @pytest.mark.parametrize("module", ["phonofold.cli", "phonofold"])
    def test_import_does_not_load_it(self, module):
        proc = run_python(f"import sys, {module}; print({CLASS_MACHINERY})")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_a_stats_run_does_not_load_it(self, fixtures):
        argv = ["stats", "--json", str(fixtures / "french_backend_output.txt")]
        proc = run_python(
            f"import sys\nfrom phonofold import cli\ncode = cli.main({argv!r})\n"
            f"print(code, {CLASS_MACHINERY}, file=sys.stderr)"
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "0 []\n" and proc.stdout


class TestUserFileErrors:
    @pytest.mark.parametrize(
        "command",
        [
            ["convert", "--backend", "passthrough", "--uncorrected", "{missing}"],
            ["stats", "{missing}.csv"],
            ["stats", "{missing}.txt"],
            ["info", "{missing}.csv"],
            ["match", "--inventory", "{inventory}", "{missing}.json"],
            ["validate", "--inventory", "{inventory}", *FRENCH_ARGS, "{missing}.json"],
            ["suggest", "--inventory", "{inventory}", *FRENCH_ARGS, "{missing}.json"],
            ["check-map", "{missing}.fold"],
            ["stats", "--config", "{missing}.conf", "{inventory}"],
            ["convert", "--backend", "rules", "--rules", "{missing}.rules", "{inventory}"],
            ["convert", "--backend", "passthrough", "--fold", "{missing}.fold", "{inventory}"],
            ["match", "--inventory", "{missing}.csv", "{inventory}"],
        ],
    )
    def test_missing_input_exits_two(self, command, fixtures, tmp_path):
        missing = str(tmp_path / "missing")
        inventory_csv = str(fixtures / "french_inventory.csv")
        argv = [arg.format(missing=missing, inventory=inventory_csv) for arg in command]
        assert_clean_error(popen_cli(*argv), "No such file", missing)

    @pytest.mark.parametrize(
        "where, reason",
        [("missing-dir", "No such file"), ("directory", "Is a directory")],
        ids=["missing-dir", "directory"],
    )
    @pytest.mark.parametrize("command", ["convert", "info", "corpus"])
    def test_unwritable_output_exits_two(self, command, where, reason, fixtures, tmp_path):
        """Before any work: one error line, and no stand-in beside the target."""
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        target = out_dir / "x.txt"
        if where == "missing-dir":
            target = out_dir / "missing" / "x.txt"
        else:
            target.mkdir()
        if command == "convert":
            argv = ["convert", "--backend", "passthrough", "--uncorrected"]
            argv += ["--output", str(target), str(fixtures / "french_backend_output.txt")]
        elif command == "info":
            argv = ["info", "--output", str(target), str(curve_corpus(tmp_path))]
        else:
            argv = ["corpus", "--backend", "passthrough", "--uncorrected", "--output"]
            argv += [str(target), "--input", str(fixtures / "corpus_small.csv")]
            argv += ["--summary", str(tmp_path / "s.json")]
        assert_clean_error(popen_cli(*argv), f"error: cannot write {target}: {reason}")
        assert [p.name for p in out_dir.iterdir()] == ([] if where == "missing-dir" else ["x.txt"])
        assert not (tmp_path / "s.json").exists()
        assert target.is_dir() == (where == "directory")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", ["convert", "info", "stats"])
    def test_full_device_output_exits_two(self, command, fixtures, tmp_path):
        text = str(fixtures / "french_backend_output.txt")
        if command == "convert":
            argv = ["convert", "--backend", "passthrough", "--uncorrected"]
            proc = popen_cli(*argv, "--output", "/dev/full", text)
        elif command == "info":
            proc = popen_cli("info", "--output", "/dev/full", str(curve_corpus(tmp_path)))
        else:
            with open("/dev/full", "w") as full:
                proc = popen_cli("stats", text, stdout=full)
        assert_clean_error(proc, "No space left on device")

    @pytest.mark.parametrize(
        "content, fragments",
        [
            ("not json\n", ["line 1:", "not JSON"]),
            ('{"observed_segments": ["a",\n  "b"\n', ["line 3:", "not JSON"]),
            ('{"observed_segments": [""]}', ["non-empty"]),
            ('{"observed_segments": ["a", 5]}', ["list of strings"]),
            ('{"segments": ["a"]}', ["observed_segments"]),
            ("7", ["list of strings"]),
            ('{"observed_segments": ["a", "UTT_BOUNDARY"]}', ["reserved boundary literal"]),
        ],
    )
    @pytest.mark.parametrize("command", ["match", "validate"])
    def test_malformed_observed_json_exits_two(
        self, command, content, fragments, fixtures, tmp_path
    ):
        observed = tmp_path / "observed.json"
        observed.write_text(content, encoding="utf-8")
        inventory = ["--inventory", str(fixtures / "french_inventory.csv")]
        if command == "validate":  # match takes no --inventory-id
            inventory += FRENCH_ARGS
        assert_clean_error(popen_cli(command, *inventory, str(observed)), str(observed), *fragments)

    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_lone_surrogate_in_observed_json_exits_two(self, flags, fixtures, tmp_path):
        observed = tmp_path / "observed.json"
        observed.write_text('["\\ud800", "a"]', encoding="utf-8")
        inventory = ["--inventory", str(fixtures / "toy_inventories.csv"), "--inventory-id", "9001"]
        proc = popen_cli("validate", *flags, *inventory, str(observed))
        assert_clean_error(proc, str(observed), "surrogate")

    @pytest.mark.parametrize(
        "command, where",
        [
            (["stats", "--json"], "line 3: "),
            (["validate", "--inventory", "{inventory}", *FRENCH_ARGS], "line 3: "),
            (["match", "--inventory", "{inventory}"], "line 3: "),
            (["info"], ""),  # info's records carry no line number
        ],
        ids=["stats", "validate", "match", "info"],
    )
    def test_format_character_in_a_phonemized_cell_exits_two(
        self, command, where, fixtures, tmp_path
    ):
        source = tmp_path / "streams.csv"
        header = "id,transcript_id,corpus_id,collection_id,speaker_role,target_child_age,gloss"
        rows = ["u1,t,c,k,MOT,24,x,a b", "u2,t,c,k,MOT,24,x,\u200bc a"]
        source.write_text("\n".join([header + ",phonemized", *rows]) + "\n", encoding="utf-8")
        argv = [arg.format(inventory=fixtures / "french_inventory.csv") for arg in command]
        message = f"{source}: {where}segment '\\u200bc' contains a format character"
        assert_clean_error(popen_cli(*argv, str(source)), message)

    def test_duplicate_inventory_segment_is_quoted_as_text(self, fixtures, tmp_path):
        inventory_csv = tmp_path / "inventories.csv"
        inventory_csv.write_text(
            "InventoryID,LanguageName,ISO6393,Phoneme,SegmentClass\n"
            "1,Toy,qaa,a,vowel\n"
            "1,Toy,qaa,a,vowel\n",
            encoding="utf-8",
        )
        observed = str(fixtures / "french_backend_output.txt")
        proc = popen_cli("match", "--inventory", str(inventory_csv), observed)
        assert_clean_error(proc, f"{inventory_csv}: line 3: duplicate segment 'a' in inventory 1")


class TestUndecodableFiles:
    """A user file holding a byte that is not UTF-8 is one error line naming it."""

    @pytest.mark.parametrize(
        "command",
        [
            ["convert", "--backend", "rules", "--rules", "{bad}.rules", "{good}"],
            ["convert", "--backend", "lexicon", "--lexicon", "{bad}.lex", "{good}"],
            ["convert", "--backend", "syllabary", "--table", "{bad}.tsv", "{good}"],
            ["convert", "--backend", "passthrough", "--fold", "{bad}.fold", "{good}"],
            ["check-map", "{bad}.fold"],
            ["convert", "--backend", "passthrough", "--uncorrected", "{bad}.txt"],
            ["corpus", "--backend", "passthrough", "--uncorrected"]
            + ["--input", "{bad}.csv", "--output", "{out}"],
            ["info", "{bad}.csv"],
            ["stats", "{bad}.csv"],
            ["stats", "{bad}.txt"],
            ["match", "--inventory", "{bad}.csv", "{good}"],
            ["match", "--inventory", "{inventory}", "{bad}.txt"],
            ["match", "--inventory", "{inventory}", "{bad}.csv"],
            ["validate", "--inventory", "{inventory}", *FRENCH_ARGS, "{bad}.json"],
        ],
        ids=[
            "rule-file",
            "lexicon",
            "syllable-table",
            "fold-map",
            "check-map",
            "convert-input",
            "corpus-input",
            "info-input",
            "stats-csv",
            "stats-text",
            "inventory-csv",
            "observed-text",
            "observed-csv",
            "observed-json",
        ],
    )
    def test_exits_two_naming_the_file(self, command, fixtures, tmp_path):
        bad = tmp_path / "latin1"
        for suffix in (".rules", ".lex", ".tsv", ".fold", ".txt", ".json"):
            bad.with_suffix(suffix).write_bytes(b"a \xe9\n")
        header = (fixtures / "corpus_small.csv").read_bytes().splitlines(keepends=True)[:2]
        bad.with_suffix(".csv").write_bytes(b"".join(header) + b"u3,t,c,col,MOT,6,\xe9,1,n\n")
        values = {
            "bad": str(bad),
            "good": str(fixtures / "french_backend_output.txt"),
            "inventory": str(fixtures / "french_inventory.csv"),
            "out": str(tmp_path / "out.csv"),
        }
        argv = [arg.format(**values) for arg in command]
        assert_clean_error(popen_cli(*argv), str(bad), "not UTF-8")

    @pytest.mark.parametrize("command", ["convert", "info"])
    def test_failed_run_keeps_the_old_output(self, command, tmp_path):
        bad = tmp_path / "bad.csv"
        if command == "convert":
            bad.write_bytes(b"a b\n" * 3000 + b"\xff\n")
            argv = ["convert", "--backend", "passthrough", "--uncorrected", str(bad)]
        else:
            header = b"id,transcript_id,corpus_id,collection_id,speaker_role,target_child_age,"
            rows = b"".join(b"u%d,t,c,col,MOT,6,x,a b\n" % i for i in range(3000))
            bad.write_bytes(header + b"gloss,phonemized\n" + rows + b"u,t,c,col,MOT,6,x,\xff\n")
            argv = ["info", str(bad)]
        output = tmp_path / "out.txt"
        output.write_text("old\n", encoding="utf-8")
        assert_clean_error(popen_cli(*argv, "--output", str(output)), str(bad), "not UTF-8")
        assert output.read_text(encoding="utf-8") == "old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv", "out.txt"]


CONVERTED = (
    "id,transcript_id,corpus_id,collection_id,speaker_role,target_child_age,gloss,phonemized\n"
    "u1,t,c,col,MOT,6,x,a b\nu2,t,c,col,MOT,18,x,b a a\n"
)
CHA = "--backend rules --rules {rules} --uncorrected"
CONFIG = "backend = rules\nrules = {rules}\nuncorrected = true\n"


class TestByteOrderMark:
    """A file that starts with a UTF-8 byte-order mark reads as the same file without one."""

    @pytest.mark.parametrize(
        "name, text, command",
        [
            ("streams.txt", "a b a\nb a\n", "stats {file} --json"),
            ("converted.csv", "phonemized,gloss\na b,x\nb a a,y\n", "stats {file}"),
            ("cha.rules", None, "convert --backend rules --rules {file} --uncorrected {words}"),
            ("words.txt", "cha cha\nchat\n", "convert " + CHA + " {file}"),
            ("corpus_small.csv", None, "corpus " + CHA + " --input {file} --output {out}"),
            ("converted.csv", CONVERTED, "info {file}"),
            (
                "french_inventory.csv",
                None,
                "validate --json --inventory {file} --inventory-id 2269 {observed}",
            ),
            ("toy_inventories.csv", None, "match --inventory {file} {words}"),
            ("dirty.fold", "a -> b\nb -> c\n", "check-map {file}"),
            ("run.cfg", CONFIG, "convert --config {file} {words}"),
        ],
        ids=[
            "stats-text",
            "stats-csv",
            "rule-file",
            "convert-input",
            "corpus",
            "info",
            "validate",
            "match",
            "check-map",
            "config",
        ],
    )
    def test_gives_the_same_output(self, capsys, fixtures, tmp_path, name, text, command):
        words = tmp_path / "words.txt"
        words.write_text("a b\n", encoding="utf-8")
        rules = fixtures / "cha.rules"
        text = (fixtures / name).read_text(encoding="utf-8") if text is None else text
        text = text.replace("{rules}", str(rules))
        outcomes = []
        for mark in ("", "\ufeff"):
            folder = tmp_path / ("marked" if mark else "plain")
            folder.mkdir()
            values = {
                "rules": rules,
                "words": words,
                "observed": fixtures / "french_backend_output.txt",
                "out": folder / "out.csv",
                "file": folder / name,
            }
            values["file"].write_text(mark + text, encoding="utf-8")
            code, out, _ = run(capsys, *(arg.format(**values) for arg in command.split()))
            written = [code, out]
            if command.startswith("corpus"):
                summary = json.loads((folder / "out.csv.summary.json").read_text("utf-8"))
                del summary["seconds"]
                written += [(folder / "out.csv").read_bytes(), summary]
            outcomes.append(written)
        assert outcomes[0] == outcomes[1] and outcomes[0][0] in (0, 1)

    def test_convert_drops_one_mark_from_standard_input(self):
        """A mark anywhere after the first character is a format character, and refused."""
        argv = ["convert", "--backend", "passthrough", "--uncorrected"]
        proc = popen_cli(*argv, stdin=subprocess.PIPE)
        out, err = proc.communicate("\ufeffa b\n\ufeffc\n", timeout=60)
        refused = "ValueError: segment '\\ufeff{}' contains a format character\n"
        assert (proc.returncode, out, err) == (1, "a b\n\n", "line 2: " + refused.format("c"))
        proc = popen_cli(*argv, stdin=subprocess.PIPE)
        out, err = proc.communicate("\ufeff\ufeffa\n", timeout=60)
        assert (proc.returncode, out, err) == (1, "\n", "line 1: " + refused.format("a"))


@pytest.mark.parametrize(
    "row, extra",
    [("ma\tm a\t˥ ˩\n", []), ("ma\tm a\tWORD_BOUNDARY\n", ["--split-tones"])],
    ids=["tone-with-space", "tone-boundary-literal"],
)
def test_bad_syllable_table_tone_exits_two(row, extra, tmp_path):
    table = tmp_path / "bad.tsv"
    table.write_text("de\td ə\n" + row, encoding="utf-8")
    lines = tmp_path / "lines.txt"
    lines.write_text("ma\n", encoding="utf-8")
    argv = ["convert", "--backend", "syllabary", "--table", str(table), "--uncorrected", *extra]
    assert_clean_error(popen_cli(*argv, str(lines)), f"{table}: line 2: ")


def curve_corpus(tmp_path):
    """A converted corpus whose one age bucket holds 30 utterances of different lengths."""
    path = tmp_path / "converted.csv"
    header = "id,transcript_id,corpus_id,collection_id,speaker_role,target_child_age,gloss,"
    rows = [f"u{i},t,c,col,MOT,6,x,{' '.join('ab'[i % 2] * (1 + i % 7))}" for i in range(30)]
    path.write_text("\n".join([header + "phonemized", *rows]) + "\n", encoding="utf-8")
    return path


class TestOptions:
    """A flag beats the config file, the file beats the default, and 0 is a value."""

    def test_seed_zero_is_a_seed(self, capsys, tmp_path):
        corpus_csv = curve_corpus(tmp_path)
        argv = ["info", str(corpus_csv), "--sample-size", "2", "--seed", "0"]
        first, second = (run(capsys, *argv) for _ in range(2))
        assert first == second and first[0] == 0

    @pytest.mark.parametrize("flag_seed", ["0", "5"])
    def test_seed_flag_beats_config_file(self, capsys, tmp_path, flag_seed):
        corpus_csv = curve_corpus(tmp_path)
        config = tmp_path / "run.cfg"
        config.write_text("seed = 3\n", encoding="utf-8")
        argv = ["info", str(corpus_csv), "--sample-size", "2"]
        from_flag = run(capsys, *argv, "--seed", flag_seed, "--config", str(config))
        assert from_flag == run(capsys, *argv, "--seed", flag_seed)
        assert from_flag != run(capsys, *argv, "--seed", "3")
        assert run(capsys, *argv, "--config", str(config)) == run(capsys, *argv, "--seed", "3")

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_zero_workers_exits_two(self, capsys, fixtures, tmp_path, where):
        config = tmp_path / "run.cfg"
        config.write_text("workers = 0\n", encoding="utf-8")
        workers = ["--workers", "0"] if where == "flag" else ["--config", str(config)]
        code, _, err = run(
            capsys, "corpus", "--backend", "passthrough", "--uncorrected", *workers,
            "--input", str(fixtures / "corpus_small.csv"), "--output", str(tmp_path / "out.csv"),
        )
        assert code == 2
        assert err == "error: workers must be >= 1\n"
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("size", ["0", "-1"])
    def test_sample_size_below_one_exits_two(self, tmp_path, size):
        proc = popen_cli("info", str(curve_corpus(tmp_path)), "--sample-size", size)
        assert_clean_error(proc, "sample-size must be >= 1")

    @pytest.mark.parametrize("top", ["0", "-1"])
    def test_top_below_one_exits_two(self, fixtures, tmp_path, top):
        observed = tmp_path / "observed.txt"
        observed.write_text("a\n", encoding="utf-8")
        inventory_csv = str(fixtures / "toy_inventories.csv")
        proc = popen_cli("match", "--inventory", inventory_csv, str(observed), "--top", top)
        assert_clean_error(proc, "top must be >= 1")

    def test_inventory_id_zero_is_an_id(self, capsys, tmp_path):
        inventory_csv = tmp_path / "inventories.csv"
        inventory_csv.write_text(
            "InventoryID,LanguageName,ISO6393,Phoneme,SegmentClass\n"
            "0,Zero,qaa,a,vowel\n"
            "1,One,qab,b,consonant\n",
            encoding="utf-8",
        )
        observed = tmp_path / "observed.txt"
        observed.write_text("a\n", encoding="utf-8")
        code, _, err = run(
            capsys, "validate", "--inventory", str(inventory_csv), "--inventory-id", "0",
            str(observed),
        )
        assert (code, err) == (0, "")

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("convert", "--inventory"),
            ("corpus", "--inventory-id"),
            ("match", "--inventory-id"),
            ("stats", "--child-role"),
            ("validate", "--child-role"),
            ("corpus", "--seed"),
            ("suggest", "--seed"),
        ],
    )
    def test_flag_a_command_never_reads_is_rejected(self, capsys, command, flag):
        required = ["--input", "in.csv", "--output", "out.csv"] if command == "corpus" else ["x"]
        with pytest.raises(SystemExit) as info:
            main([command, flag, "1", *required])
        assert info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_every_config_key_fills_a_flag_left_none(self):
        """Each key of the option table is the dest of some subcommand flag defaulting to None."""
        subcommands = next(
            action for action in build_parser()._actions if action.dest == "command"
        ).choices.values()
        flags = [action for parser in subcommands for action in parser._actions]
        for key in OPTIONS:
            dests = [action for action in flags if action.dest == key]
            assert dests, key
            assert all(action.default is None for action in dests), key


@pytest.mark.parametrize(
    "argv, message",
    [
        (["convert", "x.txt"], "no backend selected (use --backend)"),
        (["convert", "--config", "run.cfg", "x.txt"], "unknown backend 'klingon'; "),
        (["convert", "--backend", "rules", "x.txt"], "rules backend needs --rules FILE"),
        (["convert", "--backend", "lexicon", "x.txt"], "lexicon backend needs --lexicon FILE"),
        (["convert", "--backend", "syllabary", "x.txt"], "syllabary backend needs --table FILE"),
        (["info", "--schema", "gloss", "x.csv"], "--schema expects field=column, got 'gloss'"),
        (["info", "--schema", "bogus=x", "x.csv"], "unknown schema field 'bogus'"),
        (["validate", "x.txt"], "no inventory file (use --inventory or $PHONOFOLD_INVENTORY)"),
        (
            ["match", "--inventory", "INVENTORY", "observed.json"],
            "observed.json: expected observed_segments: a list of strings",
        ),
    ],
)
def test_configuration_error_is_one_line(argv, message, capsys, fixtures, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PHONOFOLD_INVENTORY", raising=False)
    (tmp_path / "x.txt").write_text("a\n", encoding="utf-8")
    (tmp_path / "run.cfg").write_text("backend = klingon\n", encoding="utf-8")
    (tmp_path / "observed.json").write_text('{"observed_segments": 3}', encoding="utf-8")
    inventory_csv = str(fixtures / "toy_inventories.csv")
    code, out, err = run(capsys, *(inventory_csv if a == "INVENTORY" else a for a in argv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1, err


class TestConfigFileErrors:
    @pytest.mark.parametrize("line", ["workers = x", "inventory_id = 2x", "seed = x"])
    def test_bad_value_names_file_line_and_key(self, tmp_path, line):
        config = tmp_path / "run.cfg"
        config.write_text(f"# run options\n{line}\n", encoding="utf-8")
        key = line.split()[0]
        proc = popen_cli("stats", "--config", str(config), "x.txt")
        assert_clean_error(proc, f"{config}: line 2: ", key)

    def test_not_utf8_exits_two(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"child_role = \xe9\n")
        proc = popen_cli("stats", "--config", str(config), "x.txt")
        assert_clean_error(proc, str(config), "not UTF-8")


class TestAllowWords:
    """An allow word that is not a segment is one error line, from the flag or the file."""

    @pytest.mark.parametrize(
        "word, fragment",
        [
            ("WORD_BOUNDARY", "reserved boundary literal"),
            (os.fsdecode(b"\xed\xa0\x80"), "surrogate"),  # an argv byte that is not UTF-8
        ],
        ids=["boundary-literal", "not-utf8"],
    )
    def test_flag_exits_two(self, word, fragment, fixtures):
        inventory = ["--inventory", str(fixtures / "french_inventory.csv"), *FRENCH_ARGS]
        observed = str(fixtures / "french_backend_output.txt")
        proc = popen_cli("validate", *inventory, "--allow", word, observed)
        assert_clean_error(proc, "allow", fragment)

    @pytest.mark.parametrize("command", ["validate", "suggest"])
    def test_config_key_exits_two(self, command, fixtures, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("allow = a UTT_BOUNDARY\n", encoding="utf-8")
        inventory = ["--inventory", str(fixtures / "french_inventory.csv"), *FRENCH_ARGS]
        observed = str(fixtures / "french_backend_output.txt")
        proc = popen_cli(command, "--config", str(config), *inventory, observed)
        assert_clean_error(proc, "allow", "reserved boundary literal")


def with_oversized_cell(source: Path, target: Path, cell: int) -> Path:
    """A copy of a CSV whose first data row has one cell longer than csv.field_size_limit."""
    lines = source.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[cell] += "a" * csv.field_size_limit()
    lines[1] = ",".join(cells)
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target


def with_quoted_oversized_cell(source: Path, target: Path, cell: int) -> Path:
    """A copy of a CSV whose first data row opens a quoted cell longer than csv.field_size_limit.

    The cell closes at the end of the next line: a copy of that row with the id
    ``planted``, which reads as a row of its own unless the cell's lines are skipped.
    """
    lines = source.read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    opened = cells[:cell] + ['"' + "x" * (csv.field_size_limit() + 10)]
    lines[1] = ",".join(opened) + "\n" + ",".join(["planted", *cells[1:]]) + '"'
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target


class TestOversizedCsvCell:
    """A CSV cell past csv.field_size_limit skips its row in a corpus, else is one error line."""

    def test_corpus_input_row_skipped(self, fixtures, tmp_path):
        source = with_oversized_cell(fixtures / "corpus_small.csv", tmp_path / "in.csv", 6)
        out = tmp_path / "out.csv"
        argv = ["corpus", "--backend", "passthrough", "--uncorrected"]
        proc = popen_cli(*argv, "--input", str(source), "--output", str(out))
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1 and "Traceback" not in err, err
        summary = json.loads(Path(f"{out}.summary.json").read_text(encoding="utf-8"))
        assert (summary["rows"], summary["skipped_rows"]) == (2, 1)

    def test_info_input_row_skipped(self, tmp_path):
        source = with_oversized_cell(curve_corpus(tmp_path), tmp_path / "in.csv", 7)
        proc = popen_cli("info", str(source))
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0 and "Traceback" not in err, err
        assert out.splitlines()[1].endswith(",29")

    def test_corpus_skips_every_line_of_a_quoted_cell(self, fixtures, tmp_path):
        source = with_quoted_oversized_cell(fixtures / "corpus_small.csv", tmp_path / "in.csv", 6)
        out = tmp_path / "out.csv"
        argv = ["corpus", "--backend", "passthrough", "--uncorrected"]
        proc = popen_cli(*argv, "--input", str(source), "--output", str(out))
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1 and "Traceback" not in err, err
        summary = json.loads(Path(f"{out}.summary.json").read_text(encoding="utf-8"))
        assert (summary["rows"], summary["skipped_rows"]) == (2, 1)
        assert "planted" not in out.read_text(encoding="utf-8")

    def test_info_skips_every_line_of_a_quoted_cell(self, tmp_path):
        source = with_quoted_oversized_cell(curve_corpus(tmp_path), tmp_path / "in.csv", 7)
        proc = popen_cli("info", str(source))
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 0 and "Traceback" not in err, err
        assert out.splitlines()[1].endswith(",29")

    def test_stats_input_exits_two(self, tmp_path):
        source = with_oversized_cell(curve_corpus(tmp_path), tmp_path / "in.csv", 7)
        assert_clean_error(popen_cli("stats", str(source)), str(source), "field limit")

    def test_match_inventory_exits_two(self, fixtures, tmp_path):
        source = with_oversized_cell(fixtures / "french_inventory.csv", tmp_path / "inv.csv", 3)
        observed = str(fixtures / "french_backend_output.txt")
        proc = popen_cli("match", "--inventory", str(source), observed)
        assert_clean_error(proc, str(source), "field limit")

    @pytest.mark.parametrize("command", ["stats", "validate", "match"])
    def test_a_corpus_csv_read_for_its_streams_names_the_line(
        self, command, capsys, fixtures, tmp_path
    ):
        source = tmp_path / "big.csv"
        rows = ["id,phonemized", "u1,a b", "u2," + "a" * 140_000]
        source.write_text("\n".join(rows) + "\n", encoding="utf-8")
        argv = [command, str(source)]
        if command != "stats":
            argv[1:1] = ["--inventory", str(fixtures / "french_inventory.csv")]
        if command == "validate":
            argv[1:1] = FRENCH_ARGS
        limit = csv.field_size_limit(131072)
        try:
            code, _, err = run(capsys, *argv)
        finally:
            csv.field_size_limit(limit)
        assert code == 2
        assert err == f"error: {source}: line 3: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("command", ["corpus", "info", "stats"])
    def test_a_header_past_the_field_limit_names_line_one(self, command, capsys, tmp_path):
        source = tmp_path / "hdr.csv"
        source.write_text("id,gloss" + "a" * 140_000 + ",phonemized\nu1,hi,h a\n", encoding="utf-8")
        argv = [command, str(source)]
        if command == "corpus":
            argv = [command, "--backend", "passthrough", "--uncorrected", "--input", str(source)]
            argv += ["--output", str(tmp_path / "out.csv")]
        limit = csv.field_size_limit(131072)
        try:
            code, _, err = run(capsys, *argv)
        finally:
            csv.field_size_limit(limit)
        assert code == 2
        assert err == f"error: {source}: line 1: field larger than field limit (131072)\n"


class TestLoadTimeErrors:
    """A malformed input file fails as it loads: exit 2 and one error line naming it."""

    CONVERT = ["convert", "--uncorrected", "--backend"]
    FLAGS = {
        "lexicon": [*CONVERT, "lexicon", "--lexicon"],
        "table": [*CONVERT, "syllabary", "--table"],
        "rules": [*CONVERT, "rules", "--rules"],
        "inventory": ["match", "--inventory"],
        "inventory-id": ["validate", "--inventory-id", "1", "--inventory"],
        "config": ["stats", "--config"],
    }
    ANCHOR = "word-edge anchor only allowed at the outer context edge"
    DUPLICATE = "duplicate romanization 'ma' (lines 1 and 2)"
    INVENTORY = "InventoryID,LanguageName,ISO6393,Phoneme,SegmentClass\n2,Toy,qaa,a,vowel\n"

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("lexicon", "cat\tk a t\tx\n", "{path}: line 1: expected 'word<TAB>segments'"),
            ("lexicon", "two words\tt u\n", "{path}: line 1: bad lexicon word 'two words'"),
            ("table", "ma\n", "{path}: line 1: expected 'romanization<TAB>segments[<TAB>tone]'"),
            ("table", "\tm a\n", "{path}: line 1: empty romanization"),
            ("table", "ma\tm a\nma\tm ɑ\n", "{path}: line 2: " + DUPLICATE),
            ("rules", "pre:\nc -> s / a # _\n", "{path}: line 2: " + ANCHOR),
            ("rules", "map:\nc -> k / _ e\n", "{path}: line 2: map entries take no context"),
            ("inventory", "", "{path}: empty inventory file"),
            ("inventory-id", INVENTORY, "inventory id 1 not found in {path}"),
            ("config", "# run options\nworkers\n", "{path}: line 2: expected key = value"),
            ("config", "workers = x\n", "{path}: line 1: workers: bad value 'x'"),
        ],
        ids=[
            "lexicon-columns",
            "lexicon-word",
            "table-columns",
            "table-key",
            "table-duplicate",
            "rule-anchor",
            "rule-map-context",
            "inventory-empty",
            "inventory-id",
            "config-separator",
            "config-value",
        ],
    )
    def test_names_the_file_and_line(self, flag, text, message, capsys, tmp_path):
        path = tmp_path / f"bad.{flag}"
        path.write_text(text, encoding="utf-8")
        lines = tmp_path / "lines.txt"
        lines.write_text("cat dog\n", encoding="utf-8")
        code, out, err = run(capsys, *self.FLAGS[flag], str(path), str(lines))
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(path=path)}\n"

    def test_a_lexicon_entry_with_no_segments(self, capsys, tmp_path):
        """Loaded, such an entry would turn ``cat dog`` into ``d ɔ g`` with no error."""
        lexicon = tmp_path / "empty.lex"
        lexicon.write_text("cat\t\ndog\td ɔ g\n", encoding="utf-8")
        lines = tmp_path / "lines.txt"
        lines.write_text("cat dog\n", encoding="utf-8")
        code, out, err = run(capsys, *self.FLAGS["lexicon"], str(lexicon), str(lines))
        assert (code, out) == (2, "")
        assert err == f"error: {lexicon}: line 1: entry needs at least one segment\n"


def with_short_row(source: Path, target: Path) -> Path:
    """A copy of a CSV with its second data row cut to two cells."""
    lines = source.read_text(encoding="utf-8").splitlines()
    lines[2] = ",".join(lines[2].split(",")[:2])
    target.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return target


class TestSkippedRowsAreListed:
    """``corpus`` and ``info`` print each row they skip on stderr, as ``convert`` prints a line."""

    def test_corpus(self, capsys, fixtures, tmp_path):
        source = with_short_row(fixtures / "corpus_small.csv", tmp_path / "in.csv")
        argv = ["corpus", "--backend", "passthrough", "--uncorrected", "--input", str(source)]
        code, _, err = run(capsys, *argv, "--output", str(tmp_path / "out.csv"))
        assert code == 1
        assert err == "line 3: row does not match header\n2 rows, 0 errors, 1 skipped\n"

    def test_corpus_with_nothing_skipped(self, capsys, fixtures, tmp_path):
        argv = ["corpus", "--backend", "passthrough", "--uncorrected"]
        argv += ["--input", str(fixtures / "corpus_small.csv")]
        code, _, err = run(capsys, *argv, "--output", str(tmp_path / "out.csv"))
        assert (code, err) == (0, "3 rows, 0 errors, 0 skipped\n")

    def test_info(self, capsys, tmp_path):
        source = with_short_row(curve_corpus(tmp_path), tmp_path / "in.csv")
        code, out, err = run(capsys, "info", str(source))
        assert code == 0
        assert err == "line 3: row does not match header\n"
        assert out.splitlines()[1].endswith(",29")
