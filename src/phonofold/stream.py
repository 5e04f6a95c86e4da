"""Canonical phoneme-stream representation.

A stream is a checked tuple of tokens: IPA segments (one phoneme each,
possibly several characters) and reserved word/utterance boundary markers.
A word boundary never comes first, never follows another boundary and never
precedes an utterance boundary. The text form is a single line of
space-separated tokens, with the literals WORD_BOUNDARY and UTT_BOUNDARY
marking boundaries. ``repair_tokens`` is the package's builder: it drops each
word boundary that breaks a rule as it builds, so a stream is checked once,
where it enters the system. ``PhonemeStream(tokens)`` is the public door: it
builds through ``repair_tokens`` and rejects rather than repairs.

Token text becomes a token through ``coerce_token`` and one module-level
intern table, text -> finished token, seeded with the two boundary literals.
Token alphabets are small (PHOIBLE has about 3,000 distinct segments), so each
distinct text is NFD-normalised and checked by ``IpaSegment`` once per process
and every later occurrence shares that token, equal to what a fresh check
would build. A text that fails the checks is never stored, and the table
takes no new entries past ``_INTERN_LIMIT``: the number of entries is capped,
not their length, so each entry costs its text and its NFD form for the rest
of the process. ``as_segments`` reads the same table.
"""

from __future__ import annotations

import contextlib
import csv
import os
import unicodedata
from enum import Enum
from typing import Iterable, Iterator, Union

from .errors import FormatError

WORD_BOUNDARY = "WORD_BOUNDARY"
UTT_BOUNDARY = "UTT_BOUNDARY"


class Boundary(Enum):
    WORD = WORD_BOUNDARY
    UTT = UTT_BOUNDARY

    def __str__(self) -> str:
        return self.value


class IpaSegment(str):
    """One phoneme, stored in canonical decomposition (NFD).

    Construction normalizes and validates; constructing from an existing
    segment returns it unchanged, so normalization is idempotent.
    """

    __slots__ = ()

    def __new__(cls, text: str) -> "IpaSegment":
        if isinstance(text, IpaSegment):
            return text
        normalized = unicodedata.normalize("NFD", text)
        if not normalized:
            raise ValueError("segment text must be non-empty")
        if any(ch.isspace() for ch in normalized):
            raise ValueError(f"segment {text!r} contains whitespace")
        if any("\ud800" <= ch <= "\udfff" for ch in normalized):
            raise ValueError(f"segment {text!r} contains a surrogate code point")
        if normalized in (WORD_BOUNDARY, UTT_BOUNDARY):
            raise ValueError(f"{text!r} is a reserved boundary literal")
        return super().__new__(cls, normalized)

    def __repr__(self) -> str:
        return f"IpaSegment({str.__repr__(self)})"


def open_text(source, mode: str = "r"):
    """A context manager over a text handle: an open handle as is, a path opened now as UTF-8.

    Reading text that is not UTF-8 in the block, or a CSV row that the csv module
    cannot read (a cell longer than ``csv.field_size_limit``), is a FormatError
    naming the file.
    """
    if hasattr(source, "read") or hasattr(source, "write"):
        return _text_handle(source, mode, close=False)
    return _text_handle(open(source, mode, encoding="utf-8", newline=""), mode, close=True)


@contextlib.contextmanager
def _text_handle(handle, mode: str, close: bool):
    try:
        yield handle
    except (UnicodeDecodeError, csv.Error) as exc:
        if "r" not in mode:
            raise
        message = str(exc)
        if isinstance(exc, UnicodeDecodeError):
            message = f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
        raise FormatError(message, source=getattr(handle, "name", "<file>")) from None
    finally:
        if close:
            handle.close()


def read_text(path) -> str:
    """The whole text of a UTF-8 file."""
    with open_text(path) as handle:
        return handle.read()


@contextlib.contextmanager
def atomic_paths(*paths):
    """Paths to write instead of ``paths``, each moved onto its own once the block succeeds.

    Each stand-in is a new file beside the file it replaces (beside a symlink's
    target), and it is removed if the block or a move fails. A path that exists
    and is not a regular file, such as /dev/stdout, is its own stand-in.
    """
    moves = []
    for path in paths:
        if os.path.exists(path) and not os.path.isfile(path):
            moves.append((path, path))
            continue
        target = os.path.realpath(path)
        head, name = os.path.split(target)
        moves.append((os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp"), target))
    try:
        yield [temp for temp, _ in moves]
        for temp, target in moves:
            if temp != target:
                os.replace(temp, target)
    finally:
        for temp, target in moves:
            if temp != target and os.path.lexists(temp):
                os.remove(temp)


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, raw line) for each line that is neither blank nor a # comment."""
    for line_num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_num, raw


StreamToken = Union[IpaSegment, Boundary]

_INTERN_LIMIT = 16384
_INTERNED: dict[str, StreamToken] = {WORD_BOUNDARY: Boundary.WORD, UTT_BOUNDARY: Boundary.UTT}


def coerce_token(token) -> StreamToken:
    """The token for a token or its text, checked on the first sight of each text."""
    if isinstance(token, (IpaSegment, Boundary)):
        return token
    interned = _INTERNED.get(token)
    if interned is None:
        interned = IpaSegment(token)
        if len(_INTERNED) < _INTERN_LIMIT:
            _INTERNED[token] = interned
    return interned


def as_segments(tokens: Iterable[str], source: str, line: int | None) -> tuple[IpaSegment, ...]:
    """The tokens as segments; a token that is not one is a FormatError at source, line."""
    segments = []
    for text in tokens:
        try:
            token = coerce_token(text)
            if isinstance(token, Boundary):
                IpaSegment(text)  # raises the reserved-literal error
        except ValueError as exc:
            raise FormatError(str(exc), source=source, line=line) from None
        segments.append(token)
    return tuple(segments)


def repair_tokens(tokens: Iterable) -> PhonemeStream:
    """The tokens, each coerced, as a stream with redundant word boundaries dropped.

    Runs of WordBoundary collapse to one, a WordBoundary next to an
    UttBoundary (either side) is dropped, since the utterance boundary
    subsumes it, and so is a WordBoundary with nothing before it. The
    adjacency invariants so hold by construction and are not checked again.
    """
    word, utt = Boundary.WORD, Boundary.UTT  # locals: an Enum member lookup is slow per token
    out: list[StreamToken] = []
    for token in map(coerce_token, tokens):
        if token is word:
            if not out or isinstance(out[-1], Boundary):
                continue  # leading, or redundant next to another boundary
        elif token is utt and out and out[-1] is word:
            out.pop()
        out.append(token)
    return tuple.__new__(PhonemeStream, out)


class PhonemeStream(tuple):
    """A checked tuple of stream tokens.

    ``PhonemeStream(tokens)`` is ``repair_tokens(tokens)``, except that it
    raises ValueError where the repair would drop a word boundary: a leading
    one, one after another boundary, or one before an utterance boundary.
    Inside the package ``repair_tokens`` builds every stream. A stream equals
    and hashes as the plain tuple of its tokens.
    """

    __slots__ = ()

    def __new__(cls, tokens: Iterable = ()) -> "PhonemeStream":
        tokens = list(tokens)
        stream = repair_tokens(tokens)
        if len(stream) != len(tokens):
            raise ValueError("word boundary first, after a boundary or before UTT_BOUNDARY")
        return stream

    @property
    def tokens(self) -> tuple[StreamToken, ...]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"PhonemeStream({list(self)!r})"


def parse_stream(text: str) -> PhonemeStream:
    """Parse one line of space-separated tokens into a stream.

    Whitespace runs collapse to single separators; boundary literals become
    boundary tokens; adjacency violations are repaired by dropping redundant
    word boundaries. Total on text lines: an empty line is an empty stream.
    """
    return repair_tokens(text.split())


def emit_stream(stream: PhonemeStream, keep_word_boundaries: bool = True) -> str:
    """Render a stream as a single space-joined line.

    Word boundaries are omitted when the flag is off; utterance boundaries are
    always emitted except for a trailing one, which the one-utterance-per-line
    text form makes redundant.
    """
    word = Boundary.WORD
    tokens = list(stream)
    if not keep_word_boundaries:
        tokens = [t for t in tokens if t is not word]
    if tokens and tokens[-1] is Boundary.UTT:
        tokens.pop()
    return " ".join([t if isinstance(t, IpaSegment) else t.value for t in tokens])


def segment_types(stream: PhonemeStream) -> set[IpaSegment]:
    """The set of distinct segments in a stream, boundaries excluded."""
    return {t for t in stream if isinstance(t, IpaSegment)}
