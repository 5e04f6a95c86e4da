"""Canonical phoneme-stream representation.

A stream is a checked tuple of tokens: IPA segments (one phoneme each,
possibly several characters) and reserved word/utterance boundary markers.
A word boundary never comes first, never follows another boundary and never
precedes an utterance boundary, and no utterance boundary follows another.
The text form is a single line of space-separated tokens, with the literals
WORD_BOUNDARY and UTT_BOUNDARY marking boundaries. ``repair_tokens`` is the
package's one builder: it turns each item that is still text into a token and
drops each boundary that breaks a rule as it builds, so a stream is checked
once, where it enters the system. ``PhonemeStream(tokens)`` is the public
door: it builds through ``repair_tokens`` and rejects rather than repairs.

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

from .errors import ConfigError, FormatError

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
        if any(map(str.isspace, normalized)):
            raise ValueError(f"segment {text!r} contains whitespace")
        categories = set(map(unicodedata.category, normalized))
        if "Cs" in categories:  # U+D800-U+DFFF
            raise ValueError(f"segment {text!r} contains a surrogate code point")
        if "Cf" in categories:  # U+200B, U+FEFF, ...
            raise ValueError(f"segment {text!r} contains a format character")
        if normalized in (WORD_BOUNDARY, UTT_BOUNDARY):
            raise ValueError(f"{text!r} is a reserved boundary literal")
        return super().__new__(cls, normalized)


def open_text(source, mode: str = "r"):
    """A context manager over a text handle: an open handle as is, a path opened now as UTF-8.

    A path read drops a leading byte-order mark, and one written gets none. Reading text
    that is not UTF-8 in the block is a FormatError naming the file.
    """
    if hasattr(source, "read") or hasattr(source, "write"):
        return _text_handle(source, mode, close=False)
    encoding = "utf-8-sig" if "r" in mode else "utf-8"
    return _text_handle(open(source, mode, encoding=encoding, newline=""), mode, close=True)


@contextlib.contextmanager
def _text_handle(handle, mode: str, close: bool):
    try:
        yield handle
    except UnicodeDecodeError as exc:
        if "r" not in mode:
            raise
        message = f"not UTF-8 text (byte 0x{exc.object[exc.start]:02x})"
        raise FormatError(message, source=getattr(handle, "name", "<file>")) from None
    finally:
        if close:
            handle.close()


def csv_rows(reader, source, offset: int = 0) -> Iterator[list[str]]:
    """A csv reader's rows; a csv.Error is a FormatError naming source and the reader's line,
    counted on from ``offset``, the lines read before the reader's first."""
    try:
        yield from reader
    except csv.Error as exc:
        raise FormatError(str(exc), source=source, line=offset + reader.line_num) from None


def column_positions(header: list[str]) -> dict[str, int]:
    """Each column name's index in a CSV header; of two columns with one name, the last's."""
    return {column: i for i, column in enumerate(header)}


def read_text(path) -> str:
    """The whole text of a UTF-8 file."""
    with open_text(path) as handle:
        return handle.read()


@contextlib.contextmanager
def atomic_paths(*targets):
    """Stand-ins to write instead of ``targets``, each moved onto its own once the block succeeds.

    Each stand-in is a new file made on entry beside the file it replaces (beside a symlink's
    target), so an unwritable target is a ConfigError before any work; it is removed if the
    block or a move fails. An open handle, or a device such as /dev/stdout, is its own stand-in.
    """
    moves = []
    try:
        for target in targets:
            moves.append((target, target) if hasattr(target, "write") else _stand_in(target))
        yield [temp for temp, _ in moves]
        for temp, target in moves:
            if temp != target:
                os.replace(temp, target)
    finally:
        for temp, target in moves:
            if temp != target and os.path.lexists(temp):
                os.remove(temp)


def _stand_in(path) -> tuple:
    if os.path.isdir(path):
        raise ConfigError(f"cannot write {path}: Is a directory")
    if os.path.exists(path) and not os.path.isfile(path):
        return path, path
    head, name = os.path.split(os.path.realpath(path))
    temp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        os.close(os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from None
    return temp, os.path.join(head, name)


def content_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, raw line) for each line that is neither blank nor a # comment."""
    for line_num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_num, raw


class _Record:
    """Equality, hash and ``repr`` over the attributes named in ``_fields``; no assignment.

    An instance equals only an instance of its own class with equal fields, in order, and
    hashes as the tuple of them. A subclass's ``__init__`` fills ``vars(self)``. A mutable
    record class takes ``__eq__`` and ``__repr__`` from here and inherits nothing, so that
    its attribute stores stay plain.
    """

    _fields: tuple[str, ...] = ()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return [getattr(self, name) for name in self._fields] == [
            getattr(other, name) for name in self._fields
        ]

    def __hash__(self):
        return hash(tuple([getattr(self, name) for name in self._fields]))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
    """The tokens, text coerced, as a stream with redundant boundaries dropped.

    Runs of each boundary collapse to one, a WordBoundary next to an
    UttBoundary (either side) is dropped, since the utterance boundary
    subsumes it, and so is a WordBoundary with nothing before it. The
    adjacency invariants so hold by construction and are not checked again.
    """
    word, utt = Boundary.WORD, Boundary.UTT  # locals: an Enum member lookup is slow per token
    segment, boundary = IpaSegment, Boundary
    out: list[StreamToken] = []
    for token in tokens:
        if token.__class__ is not segment and token.__class__ is not boundary:
            token = coerce_token(token)
        if token is word:
            if not out or isinstance(out[-1], Boundary):
                continue  # leading, or redundant next to another boundary
        elif token is utt and out:
            if out[-1] is utt:
                continue
            if out[-1] is word:
                out.pop()
        out.append(token)
    return tuple.__new__(PhonemeStream, out)


class PhonemeStream(tuple):
    """A checked tuple of stream tokens.

    ``PhonemeStream(tokens)`` is ``repair_tokens(tokens)``, except that it
    raises ValueError where the repair would drop a boundary: a leading word
    boundary, a word boundary next to another boundary, or a second utterance
    boundary in a row. Inside the package ``repair_tokens`` builds every
    stream. A stream equals and hashes as the plain tuple of its tokens.
    """

    __slots__ = ()

    def __new__(cls, tokens: Iterable = ()) -> "PhonemeStream":
        tokens = list(tokens)
        stream = repair_tokens(tokens)
        if len(stream) != len(tokens):
            raise ValueError("word boundary first or next to a boundary, or UTT_BOUNDARY twice")
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
    boundaries. Total on text lines: an empty line is an empty stream.
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
