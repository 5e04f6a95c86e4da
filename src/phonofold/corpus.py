"""Orthographic corpus ingestion, conversion and augmented CSV output.

Input is a CHILDES-style CSV of utterances; a schema mapping names the source
columns for the recognized fields and everything else passes through
untouched. Conversion fills a ``phonemized`` column with emitted phoneme
streams, keeps failed rows with the failure recorded in an ``errors`` column,
and accumulates an observed-segment summary for downstream inventory diffing.
"""

from __future__ import annotations

import csv
import os
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Iterable, Iterator

from .errors import FormatError, PhonofoldError
from .folding import FoldMap, apply_fold
from .g2p import convert_utterance
from .stream import IpaSegment, emit_stream, open_text, segment_types

AVERAGE_MONTH_DAYS = 30.44

DEFAULT_SCHEMA = {
    "utterance_id": "id",
    "transcript_id": "transcript_id",
    "corpus_id": "corpus_id",
    "collection_id": "collection_id",
    "speaker_role": "speaker_role",
    "target_child_age": "target_child_age",
    "gloss": "gloss",
}

# Columns this toolkit writes; picked up again transparently on re-read.
PHONEMIZED = "phonemized"
OUTPUT_COLUMNS = (PHONEMIZED, "is_child", "errors")
CHILD_ROLE = "CHI"  # the speaker role that marks a child's row when no is_child column does

_AGE_RE = re.compile(r"^(\d+);(\d+)(?:\.(\d+))?$")
_TRUE_WORDS = {"true", "1", "yes", "on"}


@dataclass
class UtteranceRecord:
    utterance_id: str = ""
    transcript_id: str = ""
    corpus_id: str = ""
    collection_id: str = ""
    speaker_role: str = ""
    target_child_age: float | None = None
    age_text: str = ""
    gloss: str = ""
    phonemized: str | None = None
    is_child: bool = False
    error: str = ""
    extra: dict = field(default_factory=dict)


def is_true(text: str) -> bool:
    """Whether a cell or config value spells true: true, 1, yes or on, in any case."""
    return text.strip().lower() in _TRUE_WORDS


def parse_age(age_text: str) -> float | None:
    """CHAT age string "Y;MM.DD" to months; malformed input yields None."""
    match = _AGE_RE.match(age_text.strip())
    if not match:
        return None
    years, months, days = match.group(1), match.group(2), match.group(3) or "0"
    return int(years) * 12 + int(months) + int(days) / AVERAGE_MONTH_DAYS


def _age_from_cell(cell: str) -> float | None:
    cell = cell.strip()
    if not cell:
        return None
    try:
        months = float(cell)
    except ValueError:
        return parse_age(cell)
    return months if months >= 0 else None


def read_corpus(
    source,
    schema: dict | None = None,
    child_role: str = CHILD_ROLE,
    row_errors: list | None = None,
) -> Iterator[UtteranceRecord]:
    """Yield records from a corpus CSV in file order.

    Unmapped columns land in ``extra`` in header order; previously written
    phonemized/is_child/errors columns are recognized and re-read. Rows that
    cannot be read (a cell count unlike the header's, a cell longer than
    ``csv.field_size_limit``) are skipped and appended to ``row_errors`` as
    (line_number, message) when a list is supplied.
    """
    with open_text(source) as handle:
        yield from _read(handle, getattr(handle, "name", "<file>"), schema, child_role, row_errors)


def _read(handle, name, schema, child_role, row_errors) -> Iterator[UtteranceRecord]:
    schema = dict(DEFAULT_SCHEMA if schema is None else schema)
    if "gloss" not in schema:
        raise FormatError("schema must map the gloss column", source=name)
    reader = csv.DictReader(handle)
    if reader.fieldnames is None:
        raise FormatError("empty corpus file", source=name)
    columns = [c for c in reader.fieldnames if c is not None]
    missing = [source_col for source_col in schema.values() if source_col not in columns]
    if missing:
        raise FormatError("missing column(s) " + ", ".join(repr(c) for c in missing), source=name)
    mapped = set(schema.values()) | set(OUTPUT_COLUMNS)

    for row in _rows(reader, row_errors):
        def cell(key: str) -> str:
            col = schema.get(key)
            return row[col] if col is not None else ""

        age_text = cell("target_child_age")
        speaker_role = cell("speaker_role")
        yield UtteranceRecord(
            utterance_id=cell("utterance_id"),
            transcript_id=cell("transcript_id"),
            corpus_id=cell("corpus_id"),
            collection_id=cell("collection_id"),
            speaker_role=speaker_role,
            target_child_age=_age_from_cell(age_text),
            age_text=age_text,
            gloss=cell("gloss"),
            phonemized=row.get(PHONEMIZED),
            is_child=(
                is_true(row["is_child"])
                if "is_child" in row
                else speaker_role == child_role
            ),
            error=row.get("errors", ""),
            extra={k: v for k, v in row.items() if k not in mapped},
        )


def _rows(reader: csv.DictReader, row_errors) -> Iterator[dict]:
    """The reader's rows that match its header; any other row is skipped and recorded."""
    while True:
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:  # a cell longer than csv.field_size_limit, say
            problem = str(exc)
        else:
            if None not in row and not any(value is None for value in row.values()):
                yield row
                continue
            problem = "row does not match header"
        if row_errors is not None:  # the csv reader's count: DictReader's lags on an error
            row_errors.append((reader.reader.line_num, problem))


@dataclass
class RunSummary:
    """Associatively mergeable per-run conversion summary."""

    rows: int = 0
    errors: int = 0
    observed: set = field(default_factory=set)
    unmapped: set = field(default_factory=set)

    def merge(self, other: "RunSummary") -> None:
        self.rows += other.rows
        self.errors += other.errors
        self.observed |= other.observed
        self.unmapped |= other.unmapped

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "errors": self.errors,
            "observed_segments": sorted(self.observed),
            "unmapped_characters": sorted(self.unmapped),
        }


def convert_text(
    text: str, backend, fold_map: FoldMap | None, keep_word_boundaries: bool
) -> tuple[str, str, set[IpaSegment], set[str]]:
    """(phonemized, error, observed, unmapped) of one utterance; an exception becomes the error."""
    try:
        # Streams are built with word boundaries so folding never matches
        # across words; the caller's flag only controls emission.
        stream, unmapped = convert_utterance(backend, text, keep_word_boundaries=True)
        if fold_map is not None:
            stream = apply_fold(fold_map, stream)
    except Exception as exc:  # one bad row never aborts the run
        error = str(exc) if isinstance(exc, PhonofoldError) else f"{type(exc).__name__}: {exc}"
        return "", error, set(), set()
    emitted = emit_stream(stream, keep_word_boundaries=keep_word_boundaries)
    return emitted, "", segment_types(stream), unmapped


def convert_corpus(
    records: Iterable[UtteranceRecord],
    backend,
    fold_map: FoldMap | None = None,
    keep_word_boundaries: bool = False,
    uncorrected: bool = False,
    workers: int = 1,
) -> tuple[list[UtteranceRecord], RunSummary]:
    """Convert every record's gloss, preserving input order.

    Failed utterances keep their row with the error recorded. The summary
    collects the post-fold observed segment set and unmapped characters,
    independent of worker count. The pool starts at most one process per CPU
    this process may run on, and per record, and is sent only the glosses.
    """
    if fold_map is None and not uncorrected:
        raise ValueError("fold_map is required unless uncorrected is set")
    records = list(records)
    job = partial(
        convert_text,
        backend=backend,
        fold_map=None if uncorrected else fold_map,
        keep_word_boundaries=keep_word_boundaries,
    )
    glosses = (record.gloss for record in records)
    summary = RunSummary()
    out: list[UtteranceRecord] = []
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1, len(records))
    if workers > 1:
        chunksize = max(1, len(records) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(job, glosses, chunksize=chunksize))
    else:
        results = map(job, glosses)
    for record, (phonemized, error, observed, unmapped) in zip(records, results):
        out.append(replace(record, phonemized=phonemized, error=error))
        summary.merge(RunSummary(1, int(bool(error)), observed, unmapped))
    return out, summary


def write_corpus(records: Iterable[UtteranceRecord], target, schema: dict | None = None) -> None:
    """Write records as CSV: original columns plus phonemized/is_child/errors."""
    schema = dict(DEFAULT_SCHEMA if schema is None else schema)
    records = list(records)
    extra_columns = list(records[0].extra) if records else []
    header = list(schema.values()) + extra_columns + list(OUTPUT_COLUMNS)

    def rows():
        yield header
        for record in records:
            row = [getattr(record, "age_text" if c == "target_child_age" else c) for c in schema]
            row.extend(record.extra.get(col, "") for col in extra_columns)
            yield row + [record.phonemized or "", str(record.is_child), record.error]

    with open_text(target, "w") as handle:
        csv.writer(handle).writerows(rows())


def sort_by_age(records: Iterable[UtteranceRecord]) -> list[UtteranceRecord]:
    """Stable global sort by target child age; ageless records sort last."""
    return sorted(
        records, key=lambda r: (r.target_child_age is None, r.target_child_age or 0.0)
    )
