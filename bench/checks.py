"""Checks of every command's output against the generated ground truth.

Each ``check_*`` function returns a list of problems; an empty list means the
output is right. The expectations come from ``truth.json`` and the input
corpus through ``reference``; ``phonofold`` itself is never consulted.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import reference as ref

OUTPUT_COLUMNS = ["phonemized", "is_child", "errors"]


class Expected:
    """What each command must print for one generated input directory."""

    def __init__(self, inputs: Path, sort_by_age: bool):
        truth = json.loads((inputs / "truth.json").read_text(encoding="utf-8"))
        with open(inputs / "corpus.csv", encoding="utf-8", newline="") as handle:
            reader = csv.DictReader(handle)
            self.header = list(reader.fieldnames) + OUTPUT_COLUMNS
            self.rows = list(reader)
        self.phonemized: list[str] = truth["phonemized"]
        self.planted_id: int = truth["planted_id"]
        self.word_types: int = truth["word_types"]
        ages = [ref.age_months(row["target_child_age"]) for row in self.rows]
        is_child = [row["speaker_role"] == "CHI" for row in self.rows]
        self.order = ref.age_order(ages) if sort_by_age else list(range(len(self.rows)))
        self.observed = sorted({s for cell in self.phonemized for s in ref.segments_of(cell)})
        self.counts = dict(ref.segment_counts(self.phonemized))
        self.curve = ref.info_curve(self.phonemized, ages, is_child)

    def check_corpus(self, output: Path, summary: Path) -> list[str]:
        problems = []
        with open(output, encoding="utf-8", newline="") as handle:
            table = list(csv.reader(handle))
        if not table or table[0] != self.header:
            return [f"corpus: header {table[:1]} != {self.header}"]
        if len(table) - 1 != len(self.rows):
            return [f"corpus: {len(table) - 1} rows, expected {len(self.rows)}"]
        for line, (cells, i) in enumerate(zip(table[1:], self.order), start=2):
            row = self.rows[i]
            want = list(row.values()) + [
                self.phonemized[i],
                str(row["speaker_role"] == "CHI"),
                "",
            ]
            if cells != want:
                problems.append(f"corpus: line {line} is {cells}, expected {want}")
                break
        report = json.loads(summary.read_text(encoding="utf-8"))
        for key, want in (
            ("rows", len(self.rows)),
            ("errors", 0),
            ("skipped_rows", 0),
            ("observed_segments", self.observed),
            ("unmapped_characters", []),
        ):
            if report.get(key) != want:
                problems.append(f"summary: {key} = {report.get(key)!r}, expected {want!r}")
        return problems

    def check_stats(self, stdout: str) -> list[str]:
        counts = json.loads(stdout)
        if counts != self.counts:
            wrong = sorted(set(counts.items()) ^ set(self.counts.items()))[:5]
            return [f"stats: counts differ, e.g. {wrong}"]
        return []

    def check_info(self, curve: Path) -> list[str]:
        with open(curve, encoding="utf-8", newline="") as handle:
            table = list(csv.reader(handle))
        if table[:1] != [["age_bucket", "mean_information", "n_utterances"]]:
            return [f"info: header {table[:1]}"]
        got = [(int(b), float(m), int(n)) for b, m, n in table[1:]]
        if [(b, n) for b, _, n in got] != [(b, n) for b, _, n in self.curve]:
            return [f"info: buckets {got} != {self.curve}"]
        for (bucket, mean, _), (_, want, _) in zip(got, self.curve):
            if not math.isclose(mean, want, rel_tol=1e-9):
                return [f"info: bucket {bucket} mean {mean} != {want}"]
        return []

    def check_validate(self, code: int, stdout: str) -> list[str]:
        report = json.loads(stdout)
        if code != 0 or report["unknown"] or report["unseen"]:
            return [f"validate: exit {code}, unknown {report['unknown']}, unseen {report['unseen']}"]
        return []

    def check_match(self, stdout: str) -> list[str]:
        first = stdout.splitlines()[:1]
        if first != [f"1\t{self.planted_id}\tPlanted\tL1=0"]:
            return [f"match: first line {first}, expected inventory {self.planted_id} at L1=0"]
        return []
