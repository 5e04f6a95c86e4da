"""Exception types shared across the toolkit."""

from __future__ import annotations


class PhonofoldError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(PhonofoldError):
    """Invalid run configuration (bad flag combination, unknown key, bad value)."""


class FormatError(PhonofoldError, ValueError):
    """A data file violates its expected format."""

    def __init__(self, message: str, *, source: str | None = None, line: int | None = None):
        self.source = source
        self.line = line
        where = ""
        if source is not None:
            where = f"{source}: "
        if line is not None:
            where += f"line {line}: "
        super().__init__(where + message)


class _MissingKeyError(PhonofoldError, KeyError):
    """A failed lookup; its message reads as written, where KeyError would quote it."""

    def __str__(self) -> str:
        return self.args[0]


class UnknownSegmentError(_MissingKeyError):
    """Segment not present in an inventory or table."""

    def __init__(self, segment: str, context: str = "inventory"):
        self.segment = segment
        super().__init__(f"segment {segment!r} not found in {context}")


class UnknownFeatureError(_MissingKeyError):
    """Feature name not part of an inventory's schema."""

    def __init__(self, feature: str):
        self.feature = feature
        super().__init__(f"feature {feature!r} not in inventory schema")


class OutOfVocabularyError(_MissingKeyError):
    """Lexicon lookup miss with no fallback rule set."""

    def __init__(self, word: str):
        self.word = word
        super().__init__(f"word {word!r} not in lexicon and no fallback rules given")


class SegmentationError(PhonofoldError, ValueError):
    """Romanized text could not be fully segmented into syllables."""

    def __init__(self, text: str, offset: int):
        self.text = text
        self.offset = offset
        super().__init__(f"cannot segment {text!r} at offset {offset}")


class ToneAttachmentError(PhonofoldError, ValueError):
    """A tone mark was supplied but the syllable has no nucleus to carry it."""


class UnseenSymbolError(_MissingKeyError):
    """A segment has no probability under an unsmoothed unigram model."""

    def __init__(self, segment: str):
        self.segment = segment
        super().__init__(f"segment {segment!r} unseen by model (smoothing disabled)")


class ConversionError(PhonofoldError):
    """A backend failed on one word; carries the word and its position."""

    def __init__(self, word: str, index: int, cause: Exception):
        self.word = word
        self.index = index
        super().__init__(f"word {index} ({word!r}): {cause}")
