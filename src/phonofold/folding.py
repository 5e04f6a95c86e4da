"""Folding maps: ordered rewrite rules aligning backend output with an inventory.

A folding map is an authored look-up table applied to phoneme streams after
conversion. Rules apply in file order, one left-to-right pass each, and a
match never spans a word or utterance boundary. The module also computes the
unknown/unseen diff against a reference inventory and suggests candidate
mappings for unknowns that differ only by diacritics.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from itertools import groupby
from typing import Collection, Iterable

from .chars import classify_segment, strip_marks
from .errors import FormatError
from .g2p import DELETION_MARK, RewriteRule, _split_rule_line
from .inventory import Inventory
from .stream import IpaSegment, PhonemeStream, _Record, as_segments, content_lines, read_text
from .stream import repair_tokens


class RuleKind(Enum):
    ONE_TO_ONE = "one_to_one"
    MERGE = "merge"
    SPLIT = "split"
    DELETE = "delete"
    CONTEXTUAL = "contextual"


class FoldRule(RewriteRule):
    """A rewrite rule with no context: ``lhs`` becomes ``rhs`` wherever it occurs."""

    lhs = property(lambda self: self.target)
    rhs = property(lambda self: self.replacement)

    @property
    def kind(self) -> RuleKind:
        if not self.rhs:
            return RuleKind.DELETE
        if len(self.lhs) == 1 and len(self.rhs) == 1:
            return RuleKind.ONE_TO_ONE
        if len(self.lhs) > 1 and len(self.rhs) == 1:
            return RuleKind.MERGE
        if len(self.lhs) == 1 and len(self.rhs) > 1:
            return RuleKind.SPLIT
        return RuleKind.CONTEXTUAL

    def __str__(self) -> str:
        rhs = " ".join(self.rhs) if self.rhs else DELETION_MARK
        return f"{' '.join(self.lhs)} -> {rhs}"


class FoldMap(_Record):
    _fields = ("rules", "provenance")

    def __init__(self, rules: tuple[FoldRule, ...], provenance: str = "<string>"):
        vars(self).update(rules=rules, provenance=provenance)

    @cached_property
    def _passes(self) -> list:
        """The rules in file order; each run of two or more with a one-token lhs becomes one
        dict, token -> image, exact as such a rule rewrites each token alone."""
        passes: list = []
        for one_token, run in groupby(self.rules, key=lambda rule: len(rule.lhs) == 1):
            run = list(run)
            if one_token and len(run) > 1:
                table: dict = {}
                for rule in run:  # rewrite the images so far, then add lhs if no rule took it
                    table = {rule.lhs[0]: rule.rhs} | {t: rule.apply(i) for t, i in table.items()}
                run = [table]
            passes += run
        return passes


class DiffReport(_Record):
    """U_K/U_S split of an observed segment set against a reference set."""

    _fields = ("observed", "reference", "unknown", "unseen")

    def __init__(
        self, observed: frozenset, reference: frozenset, unknown: frozenset, unseen: frozenset
    ):
        vars(self).update(observed=observed, reference=reference, unknown=unknown, unseen=unseen)


def parse_fold_map(text: str, source: str = "<string>") -> FoldMap:
    """Parse rule-file lines with no context: "lhs -> rhs", "∅" or an empty rhs deletes.

    Lines whose first non-blank character is ``#`` are comments. Duplicate
    lhs sequences are rejected, naming both offending lines.
    """
    rules: list[FoldRule] = []
    seen: dict[tuple, int] = {}
    for line_num, raw in content_lines(text):
        lhs_tokens, rhs_tokens, context = _split_rule_line(raw, source, line_num)
        if context is not None:
            raise FormatError("fold rules take no context", source=source, line=line_num)
        lhs = as_segments(lhs_tokens, source, line_num)
        if lhs in seen:
            raise FormatError(
                f"duplicate lhs {' '.join(lhs)!r} (lines {seen[lhs]} and {line_num})",
                source=source,
                line=line_num,
            )
        seen[lhs] = line_num
        rules.append(FoldRule(lhs, as_segments(rhs_tokens, source, line_num)))
    return FoldMap(tuple(rules), provenance=source)


def load_fold_map(path) -> FoldMap:
    return parse_fold_map(read_text(path), source=str(path))


def apply_fold(fold_map: FoldMap, stream: PhonemeStream) -> PhonemeStream:
    """Apply every rule in map order, each in one non-overlapping pass.

    A run of one-token rules folds in one dict pass. Boundary tokens never equal
    segments, so no match spans a boundary. Rhs text becomes tokens once, when
    ``repair_tokens`` builds the result; a stream that no rule matches is
    returned as it is.
    """
    tokens = stream
    for step in fold_map._passes:
        if step.__class__ is not dict:
            tokens = step.apply(tokens)
        elif not step.keys().isdisjoint(tokens):
            out: list = []
            for token in tokens:
                image = step.get(token)
                if image is None:
                    out.append(token)
                else:
                    out += image
            tokens = tuple(out)  # a tuple, as RewriteRule.apply compares tuple slices
    return stream if tokens is stream else repair_tokens(tokens)


def check_fold_map(fold_map: FoldMap) -> list[str]:
    """Well-formedness diagnostics for an authored map.

    Flags rule outputs that feed other rules' patterns (double application
    could differ from single), lhs pairs that overlap (order-dependent
    matching), and deletion rules. A map with no diagnostics is idempotent
    under apply_fold.
    """
    diagnostics: list[str] = []
    rules = fold_map.rules
    lhs_tokens: set[IpaSegment] = set()
    for rule in rules:
        lhs_tokens.update(rule.lhs)
    for i, rule in enumerate(rules, start=1):
        feeding = sorted(set(rule.rhs) & lhs_tokens)
        if feeding:
            diagnostics.append(
                f"non-confluence: rule {i} ({rule}) outputs {', '.join(feeding)} "
                "which other rules (or itself) can match again"
            )
        if not rule.rhs:
            diagnostics.append(f"delete: rule {i} ({rule}) removes tokens outright")
    for i, a in enumerate(rules, start=1):
        for j, b in enumerate(rules, start=1):
            if i == j:
                continue
            if _lhs_overlap(a.lhs, b.lhs):
                diagnostics.append(
                    f"overlap: lhs of rule {i} ({a}) and rule {j} ({b}) "
                    "admit order-dependent matches"
                )
    return diagnostics


def _lhs_overlap(a: tuple, b: tuple) -> bool:
    # containment
    if len(b) <= len(a) and any(a[i : i + len(b)] == b for i in range(len(a) - len(b) + 1)):
        return True
    # non-empty proper suffix of a equals prefix of b
    for size in range(1, min(len(a), len(b))):
        if a[-size:] == b[:size]:
            return True
    return False


def diff_inventory(observed: Collection, inventory) -> DiffReport:
    """Split observed vs reference segments into unknown and unseen sets."""
    observed_set = frozenset(IpaSegment(s) for s in observed)
    if isinstance(inventory, Inventory):
        reference = inventory.segment_texts()
    else:
        reference = frozenset(IpaSegment(s) for s in inventory)
    return DiffReport(
        observed=observed_set,
        reference=reference,
        unknown=observed_set - reference,
        unseen=reference - observed_set,
    )


def suggest_mappings(
    report: DiffReport, inventory: Inventory | None = None
) -> list[tuple[IpaSegment, IpaSegment, str]]:
    """Candidate one-to-one mappings for unknown segments.

    A candidate pairs an unknown with an unseen segment whose bare form
    (diacritics, modifier letters and tone bars stripped) is identical;
    candidates agreeing in segment class rank first. Pairs written with
    entirely different symbols need human judgment and are never suggested.
    """
    suggestions: list[tuple[IpaSegment, IpaSegment, str]] = []
    for unknown in sorted(report.unknown):
        bare = strip_marks(unknown)
        if not bare:
            continue
        candidates = []
        for unseen in sorted(report.unseen):
            if strip_marks(unseen) != bare:
                continue
            if inventory is not None and unseen in inventory:
                unseen_class = inventory.lookup(unseen).segment_class
            else:
                unseen_class = classify_segment(unseen)
            same_class = unseen_class == classify_segment(unknown)
            candidates.append((0 if same_class else 1, unseen))
        for _, unseen in sorted(candidates):
            suggestions.append((unknown, unseen, "diacritic"))
    return suggestions


def diff_to_json(
    report: DiffReport, suggestions: Iterable[tuple] | None = None
) -> dict:
    return {
        "unknown": sorted(report.unknown),
        "unseen": sorted(report.unseen),
        "suggestions": [
            {"unknown": u, "candidate": c, "reason": r} for u, c, r in (suggestions or [])
        ],
    }


def diff_to_text(report: DiffReport, suggestions: Iterable[tuple] | None = None) -> str:
    lines = [
        f"unknown ({len(report.unknown)}): " + " ".join(sorted(report.unknown)),
        f"unseen  ({len(report.unseen)}): " + " ".join(sorted(report.unseen)),
    ]
    for unknown, candidate, reason in suggestions or []:
        lines.append(f"suggest {unknown} -> {candidate}  [{reason}]")
    return "\n".join(lines)
