"""Reference phoneme inventories with ternary feature vectors.

Inventories are ingested from a PHOIBLE-style CSV: the five fixed columns
InventoryID, LanguageName, ISO6393, Phoneme and SegmentClass, followed by any
number of feature columns. The feature schema is taken from the header
verbatim, so the loader survives schema changes in the source database.

PHOIBLE repeats the same few hundred segments, with the same feature cells, across its
inventories. The loader checks every row, but decodes each distinct row of feature cells once:
segments with the same cells share one read-only ``InventorySegment.features`` mapping, and
rows with the same phoneme, class and cells share one ``InventorySegment``. When the three
per-inventory columns lead the header, the csv module reads a line only at the first sight of
its tail (the text after its third comma), or if its head (the text before) is not plain text. A
line whose head and tail both passed before is only checked for a duplicate segment.
"""

from __future__ import annotations

import csv
import operator
from enum import Enum
from itertools import chain, repeat
from types import MappingProxyType
from typing import Collection, Iterable, Mapping

from .chars import classify_segment, count_vowel_glyphs
from .errors import FormatError, UnknownFeatureError, UnknownSegmentError
from .stream import IpaSegment, _Record, as_segments, csv_rows, open_text

REQUIRED_COLUMNS = ("InventoryID", "LanguageName", "ISO6393", "Phoneme", "SegmentClass")

SEGMENT_CLASSES = ("consonant", "vowel", "tone")


class TernaryValue(Enum):
    PLUS = "+"
    MINUS = "-"
    UNSPECIFIED = "0"


# A stripped cell's value; multi-valued cells like "+,-" and anything unrecognized are UNSPECIFIED.
_CELL_VALUES = {"+": TernaryValue.PLUS, "-": TernaryValue.MINUS}


class InventorySegment(_Record):
    _fields = ("segment", "segment_class", "features")

    def __init__(
        self, segment: IpaSegment, segment_class: str, features: Mapping[str, TernaryValue]
    ):
        if segment_class not in SEGMENT_CLASSES:
            raise ValueError(f"unknown segment class {segment_class!r}")
        vars(self).update(segment=segment, segment_class=segment_class, features=features)


class CountProfile(_Record):
    """Phoneme-type counts used for inventory matching."""

    _fields = ("n_types", "n_consonants", "n_vowels", "n_diphthongs")

    def __init__(self, n_types: int, n_consonants: int, n_vowels: int, n_diphthongs: int):
        vars(self).update(
            n_types=n_types, n_consonants=n_consonants, n_vowels=n_vowels, n_diphthongs=n_diphthongs
        )
        if min(n_types, n_consonants, n_vowels, n_diphthongs) < 0:
            raise ValueError("counts must be non-negative")
        if self.n_tones < 0:
            raise ValueError("consonants + vowels exceed total types")
        if n_diphthongs > n_vowels:
            raise ValueError("more diphthongs than vowels")

    @property
    def n_tones(self) -> int:
        return self.n_types - self.n_consonants - self.n_vowels

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.n_types, self.n_consonants, self.n_vowels, self.n_diphthongs)


class Inventory(_Record):
    _fields = ("id", "language_name", "iso_code", "segments")

    def __init__(
        self, id: int, language_name: str, iso_code: str, segments: tuple[InventorySegment, ...]
    ):
        index = {seg.segment: seg for seg in segments}
        if len(index) < len(segments):  # name the first segment seen twice
            texts = [seg.segment for seg in segments]
            duplicate = next(text for i, text in enumerate(texts) if texts.index(text) < i)
            raise ValueError(f"duplicate segment {duplicate!r} in inventory {id}")
        vars(self).update(
            id=id, language_name=language_name, iso_code=iso_code, segments=segments, _index=index
        )

    def segment_texts(self) -> frozenset[IpaSegment]:
        return frozenset(self._index)

    def __contains__(self, segment) -> bool:
        return IpaSegment(segment) in self._index

    def lookup(self, segment) -> InventorySegment:
        seg = IpaSegment(segment)
        if seg not in self._index:
            raise UnknownSegmentError(seg, f"inventory {self.id}")
        return self._index[seg]


def is_diphthong(seg: InventorySegment) -> bool:
    """A vowel whose text carries two or more vowel-quality glyphs.

    Combining marks and length/tone marks are not vowel glyphs, so aː is a
    long monophthong while ɔɪ is a diphthong.
    """
    return seg.segment_class == "vowel" and count_vowel_glyphs(seg.segment) >= 2


def load_inventories(source) -> list[Inventory]:
    """Load all inventories from a CSV file path or open text file."""
    with open_text(source) as handle:
        return _load(handle, getattr(handle, "name", "<file>"))


def _records(lines, known: Mapping, heads: Mapping, name: str, line_num: int):
    """Yield ``(line, row, tail, head)`` per record after line ``line_num``: its last line, its
    cells, the text after its third comma if ``known`` holds that text (else None), and its head,
    the text up to there. A line with a head in ``heads`` and a tail in ``known`` is not yielded:
    its segment joins that head's segment dict here, unless it is a duplicate, yielded to report."""
    limit = csv.field_size_limit()
    cached, segments = (), {}  # the cached head last met, and its segments; () starts no line
    for line in lines:
        line_num += 1
        if not line.startswith(cached):
            head = line[: len(line) - len(line.split(",", 3)[-1])]
            cached, segments = (head, heads[head]) if head in heads else ((), {})
        inv_seg = known.get(line[len(cached) :]) if cached else None
        if inv_seg is not None and inv_seg.segment not in segments:
            segments[inv_seg.segment] = inv_seg
            continue
        row = line.split(",", 3)
        head = line[: len(line) - len(row[-1])]  # split only where csv reads the same 3 cells
        plain = not ('"' in head or "\0" in head or "\r" in head or len(head) > limit)
        tail = row[3] if len(row) == 4 and plain else None
        if tail not in known:  # the csv module reads the record that starts at this line
            reader = csv.reader(chain((line,), lines))
            row = next(csv_rows(reader, name, line_num - 1))
            if reader.line_num > 1:  # it read on past this line: the tail is not the row's
                tail, line_num = None, line_num + reader.line_num - 1
        yield line_num, row, tail, head


def _load(handle, name: str) -> list[Inventory]:
    lines = iter(handle)
    reader = csv.reader(lines)
    header = next(csv_rows(reader, name), None)
    if header is None:
        raise FormatError("empty inventory file", source=name)
    header = [col.strip() for col in header]
    for col in REQUIRED_COLUMNS:
        if col not in header:
            raise FormatError(f"missing column {col!r}", source=name)
    id_pos, language_pos, iso_pos, phoneme_pos, class_pos = map(header.index, REQUIRED_COLUMNS)
    feature_names = [col for col in header if col not in REQUIRED_COLUMNS]
    feature_positions = [header.index(col) for col in feature_names]
    key_of = operator.itemgetter(phoneme_pos, class_pos, *feature_positions)
    # One InventorySegment per row tail, or per (phoneme, class, cells) for a row read without
    # one: a tail row keeps no tuple of its cells, and a str key never equals a tuple key.
    decoded: dict[tuple, Mapping[str, TernaryValue]] = {}
    shared: dict[str | tuple, InventorySegment] = {}
    heads: dict[str, dict] = {}  # a plain head whose id passed -> its inventory's segments
    leads = {id_pos, language_pos, iso_pos} == {0, 1, 2}
    numbered = ((reader.line_num, row, None, None) for row in csv_rows(reader, name))
    records = _records(lines, shared, heads, name, reader.line_num) if leads else numbered

    grouped: dict[int, tuple[str, str, dict]] = {}
    for line_num, row, tail, head in records:
        inv_seg = shared.get(tail)  # a tail read before passed every check of its cells
        if inv_seg is None:
            if not any(map(str.strip, row)):
                continue
            if len(row) < len(header):
                message = "row has fewer cells than the header"
                raise FormatError(message, source=name, line=line_num)
        try:
            inv_id = int(row[id_pos])
        except ValueError:
            raise FormatError(
                f"bad InventoryID {row[id_pos]!r}", source=name, line=line_num
            ) from None
        if inv_seg is None:
            key = key_of(row)
            inv_seg = shared.get(key)
            if inv_seg is None:  # first row with this phoneme, class and cells: check them
                seg_text, seg_class, cells = key[0].strip(), key[1].strip().lower(), key[2:]
                if seg_class not in SEGMENT_CLASSES:
                    message = f"unknown SegmentClass {seg_class!r}"
                    raise FormatError(message, source=name, line=line_num)
                (segment,) = as_segments([seg_text], name, line_num)
                if cells not in decoded:
                    unspecified = repeat(TernaryValue.UNSPECIFIED)
                    values = map(_CELL_VALUES.get, map(str.strip, cells), unspecified)
                    decoded[cells] = MappingProxyType(dict(zip(feature_names, values)))
                inv_seg = InventorySegment(segment, seg_class, decoded[cells])
                shared[key if tail is None else tail] = inv_seg
            elif tail is not None:  # a segment first read without a tail
                shared[tail] = inv_seg
        if inv_id not in grouped:
            grouped[inv_id] = (row[language_pos].strip(), row[iso_pos].strip(), {})
        inv_segments = grouped[inv_id][2]
        if tail is not None:  # a one-line record: csv read the head's text as its 3 cells
            heads[head] = inv_segments
        segment = inv_seg.segment
        if segment in inv_segments:
            message = f"duplicate segment {segment!r} in inventory {inv_id}"
            raise FormatError(message, source=name, line=line_num)
        inv_segments[segment] = inv_seg

    heads.clear()  # so each segment dict is freed as its Inventory, which indexes its own, is built
    inventories = []
    for inv_id in list(grouped):
        language, iso, inv_segments = grouped.pop(inv_id)
        inventories.append(Inventory(inv_id, language, iso, tuple(inv_segments.values())))
    return inventories


def count_profile(source) -> CountProfile:
    """Count types/consonants/vowels/diphthongs for an Inventory or segment set.

    Bare segments are classified by glyph: tone-glyph-only tokens are tones,
    tokens with a vowel glyph are vowels, the rest consonants.
    """
    if isinstance(source, Inventory):
        classified = [(seg.segment, seg.segment_class) for seg in source.segments]
    else:
        segments = {IpaSegment(s) for s in source}
        classified = [(seg, classify_segment(seg)) for seg in segments]
    n_cons = sum(1 for _, cls in classified if cls == "consonant")
    n_vow = sum(1 for _, cls in classified if cls == "vowel")
    n_diph = sum(
        1 for seg, cls in classified if cls == "vowel" and count_vowel_glyphs(seg) >= 2
    )
    return CountProfile(len(classified), n_cons, n_vow, n_diph)


def _jaccard(a: frozenset, b: frozenset) -> float:
    union = a | b
    if not union:
        return 1.0
    return len(a & b) / len(union)


def best_match(
    observed: Collection, candidates: Iterable[Inventory]
) -> list[tuple[Inventory, int]]:
    """Rank candidate inventories against an observed segment set.

    Primary score is the L1 distance between count profiles (lower is
    better); ties break on larger Jaccard overlap of the segment sets, then
    on smaller inventory id. The full ranking is returned.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("no candidate inventories")
    observed_set = frozenset(IpaSegment(s) for s in observed)
    profile = count_profile(observed_set).as_tuple()

    scored = []
    for inv in candidates:
        inv_profile = count_profile(inv).as_tuple()
        l1 = sum(abs(a - b) for a, b in zip(profile, inv_profile))
        overlap = _jaccard(observed_set, inv.segment_texts())
        scored.append((l1, -overlap, inv.id, inv))
    scored.sort(key=lambda item: item[:3])
    return [(inv, l1) for l1, _, _, inv in scored]


def feature_of(inv: Inventory, segment, feature: str) -> TernaryValue:
    """Stored feature value; lookup failures are errors, never UNSPECIFIED."""
    seg = inv.lookup(segment)
    if feature not in seg.features:
        raise UnknownFeatureError(feature)
    return seg.features[feature]
