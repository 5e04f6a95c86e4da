"""Byte-identity of end-to-end outputs against committed golden files.

The golden files under ``fixtures/golden/`` hold what the CLI writes for each
case below; a change that keeps the behaviour keeps these bytes. A summary JSON
is compared with its ``seconds`` key removed, re-serialised in its own key order.
"""

import json
from pathlib import Path

import pytest

from phonofold.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

RULES = ["--backend", "rules", "--rules", str(FIXTURES / "cha.rules"), "--uncorrected"]
CORPUS = ["corpus", *RULES, "--input", str(FIXTURES / "corpus_small.csv")]
# The converted corpus_small.csv, itself pinned by the corpus_rules_w1 case.
INFO = ["info", str(GOLDEN / "corpus_rules_w1.csv")]

# golden stem -> (argv before --output, whether the command writes a summary JSON)
CASES = {
    "corpus_rules_w1": ([*CORPUS, "--workers", "1"], True),
    "corpus_rules_w2": ([*CORPUS, "--workers", "2"], True),
    "corpus_rules_kwb_w1": ([*CORPUS, "--keep_word_boundaries", "--workers", "1"], True),
    "convert_french_fold_kwb": (
        [
            "convert",
            "--backend",
            "passthrough",
            "--fold",
            str(FIXTURES / "french.fold"),
            "--keep_word_boundaries",
            str(FIXTURES / "french_backend_output.txt"),
        ],
        False,
    ),
    "info_default": (INFO, False),
    "info_per_bucket": ([*INFO, "--per-bucket"], False),
    "info_sample2_seed3": ([*INFO, "--sample-size", "2", "--seed", "3"], False),
}


def _without_seconds(summary: bytes) -> bytes:
    data = json.loads(summary)
    del data["seconds"]
    return (json.dumps(data, indent=2, ensure_ascii=False) + "\n").encode("utf-8")


def golden_outputs(stem: str, tmp_path: Path) -> dict[str, bytes]:
    """Golden file name -> the bytes the CLI writes for that case now."""
    argv, has_summary = CASES[stem]
    suffix = ".txt" if argv[0] == "convert" else ".csv"
    out = tmp_path / f"{stem}{suffix}"
    assert main([*argv, "--output", str(out)]) == 0
    outputs = {out.name: out.read_bytes()}
    if has_summary:
        summary = Path(f"{out}.summary.json").read_bytes()
        outputs[f"{stem}.summary.json"] = _without_seconds(summary)
    return outputs


@pytest.mark.parametrize("stem", sorted(CASES))
def test_outputs_match_golden_bytes(stem, tmp_path, capsys):
    for name, produced in golden_outputs(stem, tmp_path).items():
        assert produced == (GOLDEN / name).read_bytes(), name
    capsys.readouterr()
