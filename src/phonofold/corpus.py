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
from functools import partial
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import FormatError, PhonofoldError
from .folding import FoldMap, apply_fold
from .g2p import convert_utterance
from .stream import IpaSegment, _Record, column_positions, csv_rows, emit_stream, open_text
from .stream import segment_types, source_name

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

# The text of a CSV row that ends inside a quoted cell, by the csv rule: a quote opens a cell
# only at its start, and in the cell "" is one quote. Unrolled loops, as 3.10 has no possessive.
_QUOTED = r'"[^"]*(?:""[^"]*)*'  # a quote that opens a cell, and the cell's text up to its close
_IN_QUOTED_CELL = re.compile(rf'(?:(?:{_QUOTED}"(?!")[^,]*|[^",][^,]*|),)*{_QUOTED}')
_AGE_RE = re.compile(r"^(\d+);(\d+)(?:\.(\d+))?$")
_TRUE_WORDS = {"true", "1", "yes", "on"}


class UtteranceRecord:
    """One corpus row: its mapped cells, its other cells in ``extra``, and its conversion."""

    _fields = (
        "utterance_id", "transcript_id", "corpus_id", "collection_id", "speaker_role",
        "target_child_age", "age_text", "gloss", "phonemized", "is_child", "error", "extra",
    )
    __eq__, __repr__, __hash__ = _Record.__eq__, _Record.__repr__, None

    def __init__(
        self, utterance_id: str = "", transcript_id: str = "", corpus_id: str = "",
        collection_id: str = "", speaker_role: str = "", target_child_age: float | None = None,
        age_text: str = "", gloss: str = "", phonemized: str | None = None,
        is_child: bool = False, error: str = "", extra: dict | None = None,
    ):
        self.utterance_id = utterance_id
        self.transcript_id = transcript_id
        self.corpus_id = corpus_id
        self.collection_id = collection_id
        self.speaker_role = speaker_role
        self.target_child_age = target_child_age
        self.age_text = age_text
        self.gloss = gloss
        self.phonemized = phonemized
        self.is_child = is_child
        self.error = error
        self.extra = {} if extra is None else extra


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first use: only a run that starts workers needs it."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    return months if 0 <= months < float("inf") else None  # nan, inf and 1e400 are ageless


def read_corpus(
    source,
    schema: dict | None = None,
    child_role: str = CHILD_ROLE,
    row_errors: list | None = None,
    extra_columns: list | None = None,
) -> Iterator[UtteranceRecord]:
    """Yield records from a corpus CSV in file order; blank lines are skipped.

    Cells are read by position: of two columns with one name, the last. Unmapped
    columns land in ``extra`` in header order; written phonemized/is_child/errors
    columns are re-read. Rows that cannot be read (a cell count unlike the header's,
    a cell longer than ``csv.field_size_limit``, with every line of that cell) are
    skipped and appended to ``row_errors`` as (line_number, message) if it is a list.
    The header's unmapped column names, the keys of ``extra``, are added to ``extra_columns``
    if it is a list, so that they are known when no row is read.
    """
    with open_text(source) as handle:
        name = source_name(handle)
        records = _read(handle, name, schema, child_role, row_errors, extra_columns)
        next(records)  # the header
        yield from records


def _read(handle, name, schema, child_role, row_errors, extra_columns=None) -> Iterator:
    """The header as read (None if there is none), then ``read_corpus``'s records."""
    schema = dict(DEFAULT_SCHEMA if schema is None else schema)
    if "gloss" not in schema:
        raise FormatError("schema must map the gloss column", source=name)
    held: list = []
    lines = (held.append(line) or line for line in handle)  # each line held as it is read
    reader = csv.reader(lines)
    header = next(csv_rows(reader, name), None)
    yield header
    if header is None:
        raise FormatError("empty corpus file", source=name)
    width, at = len(header), column_positions(header)
    missing = [source_col for source_col in schema.values() if source_col not in at]
    if missing:
        raise FormatError("missing column(s) " + ", ".join(repr(c) for c in missing), source=name)
    fields = itemgetter(*(at[schema[key]] if key in schema else width for key in DEFAULT_SCHEMA))
    phonemized_at, child_at = at.get(PHONEMIZED), at.get("is_child")
    errors_at = at.get("errors", width)
    mapped = set(schema.values()) | set(OUTPUT_COLUMNS)
    extra = [(column, i) for column, i in at.items() if column not in mapped]
    if extra_columns is not None:
        extra_columns.extend(column for column, _ in extra)
    age_text, age = None, None
    for row in _rows(reader, lines, held, width, row_errors):
        row.append("")  # at position width: the cell of an unmapped field
        utterance_id, transcript_id, corpus_id, collection_id, role, age_cell, gloss = fields(row)
        if age_cell != age_text:  # ages repeat within a transcript: parse each run once
            age_text, age = age_cell, _age_from_cell(age_cell)
        yield UtteranceRecord(
            utterance_id, transcript_id, corpus_id, collection_id, role, age, age_text, gloss,
            None if phonemized_at is None else row[phonemized_at],
            role == child_role if child_at is None else is_true(row[child_at]),
            row[errors_at], {column: row[i] for column, i in extra},
        )


def _rows(reader, lines, held: list, width: int, row_errors) -> Iterator[list]:
    """The reader's rows with ``width`` cells; a blank line is skipped, any other row recorded.

    ``held`` collects the lines the reader reads. A row the csv module gives up on inside
    a quoted cell takes the lines up to the cell's end with it, read from ``lines``.
    """
    past = 0  # lines read past the reader, for the line numbers of later rows
    while True:
        held.clear()
        try:
            row = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:  # a cell longer than csv.field_size_limit, say
            problem, line_num = str(exc), reader.line_num + past
            text = "".join(held)
            while _IN_QUOTED_CELL.fullmatch(text) and (line := next(lines, None)) is not None:
                past += 1
                text = '"' + line  # the line as read from inside the cell
        else:
            if len(row) == width:
                yield row
                continue
            if not row:
                continue
            problem, line_num = "row does not match header", reader.line_num + past
        if row_errors is not None:
            row_errors.append((line_num, problem))


class RunSummary:
    """Per-run conversion summary."""

    _fields = ("rows", "errors", "observed", "unmapped")
    __eq__, __repr__, __hash__ = _Record.__eq__, _Record.__repr__, None

    def __init__(self, rows=0, errors=0, observed: set | None = None, unmapped: set | None = None):
        self.rows, self.errors = rows, errors
        self.observed = set() if observed is None else observed
        self.unmapped = set() if unmapped is None else unmapped

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
    summary = RunSummary(len(records))
    out: list[UtteranceRecord] = []
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(workers, cpus or 1, len(records))
    if workers > 1:
        chunksize = max(1, len(records) // (workers * 4))
        pool_type = globals().get("ProcessPoolExecutor") or __getattr__("ProcessPoolExecutor")
        with pool_type(max_workers=workers) as pool:
            results = list(pool.map(job, glosses, chunksize=chunksize))
    else:
        results = map(job, glosses)
    for r, (phonemized, error, observed, unmapped) in zip(records, results):
        out.append(
            UtteranceRecord(
                r.utterance_id, r.transcript_id, r.corpus_id, r.collection_id, r.speaker_role,
                r.target_child_age, r.age_text, r.gloss, phonemized, r.is_child, error, r.extra,
            )
        )
        summary.errors += bool(error)
        summary.observed |= observed
        summary.unmapped |= unmapped
    return out, summary


def write_corpus(
    records: Iterable[UtteranceRecord], target, schema: dict | None = None, extra_columns=None
) -> None:
    """Write records as CSV: original columns plus phonemized/is_child/errors.

    The unmapped columns are ``extra_columns``, by default the first record's ``extra`` keys."""
    schema = dict(DEFAULT_SCHEMA if schema is None else schema)
    records = list(records)
    if extra_columns is None:
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
