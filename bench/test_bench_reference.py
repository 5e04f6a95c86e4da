"""Tests of the benchmark's own reference semantics, checks and tracer.

The reference must agree with hand-worked conversions of the shipped rule and
fold fixtures; the checks must pass the program's real output and fail a
corrupted copy of it; the tracer must count work in the layers it wraps.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import checks
import gen
import reference as ref

BENCH = Path(__file__).resolve().parent
FIXTURES = BENCH.parent / "tests" / "fixtures"


def test_reference_matches_hand_worked_cha_rules():
    grammar = ref.Grammar((FIXTURES / "cha.rules").read_text(encoding="utf-8"))
    assert grammar.convert("cha") == (("tʃ", "a"), set())
    assert grammar.convert("xa") == (("tʃ", "a"), set())  # pre x -> ch, then the digraph
    assert grammar.convert("cca") == (("k", "k", "a"), set())
    assert grammar.convert("kha") == (("kʰ", "a"), {"k", "h"})  # post k h -> kʰ
    assert grammar.convert("chat") == (("tʃ", "a", "t"), {"t"})


def test_reference_matches_hand_worked_french_fold():
    fold = ref.parse_fold((FIXTURES / "french.fold").read_text(encoding="utf-8"))
    assert ref.fold_word(fold, ("b", "ɔ", "ʒ", "ɛ")) == ("b", "o", "ʒ", "e")
    assert ref.fold_word(fold, ("d", "ʒ", "ɔ", "t", "ʃ")) == ("dʒ", "o", "tʃ")
    assert ref.fold_word(fold, ("d", "d", "ʒ")) == ("d", "dʒ")  # one left-to-right pass


def test_reference_matches_hand_worked_french_like_rules():
    grammar = ref.Grammar(gen.FRENCH_RULES)
    fold = ref.parse_fold(gen.FRENCH_FOLD)
    assert grammar.convert("peaus")[0] == ("p", "o")  # eau, then final s is silent
    assert grammar.convert("hiver")[0] == ("i", "v", "ə", "ʁ")  # initial h is silent
    assert ref.fold_word(fold, grammar.convert("cigne")[0]) == ("s", "i", "n", "j")
    assert grammar.convert("parlér")[0] == ("p", "a", "ʁ", "l", "e")  # ʁ -> ∅ / e _ #
    cells, unmapped, types = ref.convert_rows(["le chat , le", "?"], grammar, fold)
    assert cells == ["l ʃ a l", ""] and not unmapped and types == 2


def _run(argv):
    import phonofold.cli

    out = io.StringIO()
    with redirect_stdout(out):
        code = phonofold.cli.main(argv)
    return code, out.getvalue()


@pytest.fixture
def small(monkeypatch, tmp_path):
    pytest.importorskip("phonofold.cli")
    for workload in gen.WORKLOADS:
        monkeypatch.setitem(gen.ROWS, workload, 60)
        monkeypatch.setitem(gen.INVENTORIES, workload, 12)
    monkeypatch.chdir(tmp_path)

    def make(workload):
        import run

        truth = gen.generate(workload, 7, tmp_path / "inputs")
        (tmp_path / "out").mkdir()
        argvs = run.commands(workload, truth["planted_id"], one_process=True)
        expected = checks.Expected(tmp_path / "inputs", sort_by_age=workload == "childes-flat")
        return argvs, expected

    return make


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_checks_pass_program_output_and_fail_corruption(small, workload):
    argvs, expected = small(workload)
    out = Path("out")
    assert _run(argvs["corpus"])[0] == 0
    assert expected.check_corpus(out / "corpus.csv", out / "corpus.csv.summary.json") == []
    assert expected.check_stats(_run(argvs["stats"])[1]) == []
    assert _run(argvs["info"])[0] == 0
    assert expected.check_info(out / "curve.csv") == []
    assert expected.check_validate(*_run(argvs["validate"])) == []
    assert expected.check_match(_run(argvs["match"])[1]) == []

    text = (out / "corpus.csv").read_text(encoding="utf-8")
    cell = next(c for c in expected.phonemized if len(c.split()) > 1)
    first, rest = cell.split(" ", 1)
    (out / "corpus.csv").write_text(text.replace(cell, f"{rest} {first}", 1), encoding="utf-8")
    assert expected.check_corpus(out / "corpus.csv", out / "corpus.csv.summary.json")

    stats = json.loads(_run(argvs["stats"])[1])
    stats[next(iter(stats))] += 1
    assert expected.check_stats(json.dumps(stats))
    assert expected.check_match(f"1\t{expected.planted_id + 1}\tOther\tL1=0\n")


def test_sorted_output_must_keep_stable_age_order(small):
    argvs, expected = small("childes-flat")
    _run(argvs["corpus"])
    lines = Path("out/corpus.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    ages = [expected.rows[i]["target_child_age"] for i in expected.order]
    j = next(k for k in range(1, len(ages)) if ages[k] == ages[k - 1])  # two rows of one age
    lines[j], lines[j + 1] = lines[j + 1], lines[j]
    Path("out/corpus.csv").write_text("".join(lines), encoding="utf-8")
    assert expected.check_corpus(Path("out/corpus.csv"), Path("out/corpus.csv.summary.json"))


def test_tracer_counts_layers_where_names_are_looked_up(small):
    argvs, expected = small("childes-zipf")
    _run(argvs["corpus"])
    env = dict(os.environ, PYTHONPATH=str(BENCH.parent / "src"))
    layers = {}
    for name in ("corpus", "stats"):
        spec = json.dumps({"argv": argvs[name], "trace": True, "result": "child.json"})
        subprocess.run([sys.executable, str(BENCH / "child.py"), spec], env=env, check=True)
        layers[name] = json.loads(Path("child.json").read_text())["layers"]
    words = sum(
        not ref.is_punctuation(w) for row in expected.rows for w in row["gloss"].split()
    )
    assert layers["corpus"]["g2p.words"] == words
    assert layers["corpus"]["corpus.rows"] == len(expected.rows)
    assert layers["corpus"]["g2p.pre_rules_s"] > 0 and layers["corpus"]["g2p.post_rules_s"] > 0
    # stats reaches parse_stream through the name cli imported by value
    assert layers["stats"]["stream.tokens_parsed"] == sum(expected.counts.values())
