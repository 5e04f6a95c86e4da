import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phonofold.errors import FormatError
from phonofold.g2p import RewriteRule
from phonofold.folding import (
    DiffReport,
    FoldMap,
    FoldRule,
    RuleKind,
    apply_fold,
    check_fold_map,
    diff_inventory,
    diff_to_json,
    load_fold_map,
    parse_fold_map,
    suggest_mappings,
)
from phonofold.inventory import load_inventories
from phonofold.stream import (
    Boundary,
    IpaSegment,
    PhonemeStream,
    emit_stream,
    parse_stream,
    repair_tokens,
    segment_types,
)


def fold(text):
    return parse_fold_map(text)


def run(map_text, stream_text):
    return emit_stream(apply_fold(fold(map_text), parse_stream(stream_text)))


class TestParse:
    def test_merge_rule(self):
        rule = fold("d ʒ -> dʒ").rules[0]
        assert rule.lhs == ("d", "ʒ") and rule.rhs == ("dʒ",)
        assert rule.kind is RuleKind.MERGE

    def test_one_to_one_rule(self):
        rule = fold("n -> n̪").rules[0]
        assert rule.kind is RuleKind.ONE_TO_ONE
        assert rule.rhs == ("n̪",)

    def test_split_rule(self):
        rule = fold("aɪʊ -> aɪ ʊ").rules[0]
        assert rule.kind is RuleKind.SPLIT

    def test_delete_rule_both_spellings(self):
        assert fold("x -> ∅").rules[0].kind is RuleKind.DELETE
        assert fold("x ->").rules[0].kind is RuleKind.DELETE

    def test_contextual_rule(self):
        assert fold("U O -> w O").rules[0].kind is RuleKind.CONTEXTUAL

    def test_duplicate_lhs_reports_both_lines(self):
        with pytest.raises(FormatError, match=r"lines 1 and 3"):
            fold("a -> b\n# comment\na -> c\n")

    def test_empty_lhs_rejected(self):
        with pytest.raises(FormatError, match="empty lhs"):
            fold("-> b\n")

    def test_context_rejected(self):
        # the rule-file grammar reads "/ c _" as a context, which fold rules do not take
        with pytest.raises(FormatError, match=r"^m\.fold: line 2: fold rules take no context"):
            parse_fold_map("# map\na -> b / c _\n", source="m.fold")

    def test_fold_rule_is_a_context_free_rewrite_rule(self):
        rule = FoldRule((IpaSegment("d"), IpaSegment("ʒ")), (IpaSegment("dʒ"),))
        assert isinstance(rule, RewriteRule)
        assert (rule.lhs, rule.rhs) == (rule.target, rule.replacement) == (("d", "ʒ"), ("dʒ",))
        assert rule.left == rule.right == () and not (rule.left_anchor or rule.right_anchor)
        assert rule.kind is RuleKind.MERGE and str(rule) == "d ʒ -> dʒ"
        with pytest.raises(AttributeError):
            rule.lhs = ("x",)

    def test_comments_and_order_preserved(self, fixtures):
        fold_map = load_fold_map(fixtures / "french.fold")
        assert [str(r.lhs[0]) for r in fold_map.rules] == ["ɔ", "ɛ", "d", "t"]
        assert fold_map.provenance.endswith("french.fold")


class TestApply:
    def test_serbian_consonant_merge(self):
        assert run("d ʒ -> dʒ", "d ʒ a") == "dʒ a"

    def test_estonian_duplication(self):
        assert run("d d -> dː", "d d a d d") == "dː a dː"

    def test_korean_diacritic_sequences(self):
        assert run("k h -> kʰ\np h -> pʰ", "k h a p h") == "kʰ a pʰ"

    def test_match_never_spans_word_boundary(self):
        out = run("d ʒ -> dʒ", "d WORD_BOUNDARY ʒ")
        assert out == "d WORD_BOUNDARY ʒ"

    def test_match_never_spans_utt_boundary(self):
        assert run("d ʒ -> dʒ", "d UTT_BOUNDARY ʒ") == "d UTT_BOUNDARY ʒ"

    def test_boundaries_untouched(self):
        out = run("a -> b", "a WORD_BOUNDARY a UTT_BOUNDARY a")
        assert out == "b WORD_BOUNDARY b UTT_BOUNDARY b"

    def test_rules_apply_in_file_order(self):
        # first rule consumes the pair before the second can see it
        assert run("d ʒ -> dʒ\nʒ -> z", "d ʒ ʒ") == "dʒ z"

    def test_deleting_the_first_word_leaves_no_leading_boundary(self):
        out = emit_stream(apply_fold(fold("a ->"), parse_stream("a WORD_BOUNDARY b")))
        assert out == "b"

    def test_empty_map_is_identity(self):
        assert run("", "a b c") == "a b c"

    def test_token_count_law_per_kind(self):
        cases = [
            ("n -> m", "n a n", 0, 2),       # one_to_one
            ("d ʒ -> dʒ", "d ʒ a d ʒ", -1, 2),  # merge
            ("aɪʊ -> aɪ ʊ", "aɪʊ b", +1, 1),    # split
            ("q -> ∅", "q a q", -1, 2),         # delete
        ]
        for map_text, stream_text, delta, matches in cases:
            before = parse_stream(stream_text)
            after = apply_fold(fold(map_text), before)
            assert len(after) - len(before) == delta * matches, map_text

    @pytest.mark.parametrize("map_text", ["", "x -> y", "a c -> y\nz ->"])
    def test_stream_untouched_by_every_rule_is_returned_as_is(self, map_text):
        stream = parse_stream("a WORD_BOUNDARY b")
        assert apply_fold(fold(map_text), stream) is stream


class TestCheck:
    def test_feeding_rules_flagged(self):
        diagnostics = check_fold_map(fold("a -> b\nb -> c"))
        assert any("non-confluence" in d for d in diagnostics)

    def test_clean_single_rule(self):
        assert check_fold_map(fold("a -> b")) == []

    def test_lhs_overlap_flagged(self):
        diagnostics = check_fold_map(fold("x y -> z\ny w -> v"))
        assert any("overlap" in d for d in diagnostics)

    def test_lhs_containment_flagged(self):
        diagnostics = check_fold_map(fold("a b c -> x\nb -> y"))
        assert any("overlap" in d for d in diagnostics)

    def test_delete_rules_flagged(self):
        diagnostics = check_fold_map(fold("q -> ∅"))
        assert any("delete" in d for d in diagnostics)

    def test_french_fixture_map_is_clean(self, fixtures):
        assert check_fold_map(load_fold_map(fixtures / "french.fold")) == []


class TestDiff:
    def test_simple_sets(self):
        report = diff_inventory({"a", "b", "c"}, {"a", "b", "d"})
        assert report.unknown == {"c"}
        assert report.unseen == {"d"}

    def test_perfect_alignment(self):
        report = diff_inventory({"a", "b"}, {"a", "b"})
        assert report.unknown == set() and report.unseen == set()

    def test_french_fixture_scenario(self, fixtures):
        (inv,) = load_inventories(fixtures / "french_inventory.csv")
        fold_map = load_fold_map(fixtures / "french.fold")
        observed = set()
        for line in (fixtures / "french_backend_output.txt").read_text("utf-8").splitlines():
            observed |= segment_types(apply_fold(fold_map, parse_stream(line)))
        report = diff_inventory(observed, inv)
        assert report.unknown == {"dʒ", "tʃ"}
        assert report.unseen == {"ɧ"}


class TestSuggest:
    def test_diacritic_pair_suggested(self):
        report = diff_inventory({"t", "a"}, {"tʰ", "a"})
        suggestions = suggest_mappings(report)
        assert suggestions == [("t", "tʰ", "diacritic")]

    def test_different_symbols_not_suggested(self):
        report = diff_inventory({"a", "n"}, {"ɒ", "n"})
        assert suggest_mappings(report) == []

    def test_empty_unknown_set(self):
        report = diff_inventory({"a"}, {"a"})
        assert suggest_mappings(report) == []

    def test_json_shape(self):
        report = diff_inventory({"t"}, {"tʰ"})
        payload = diff_to_json(report, suggest_mappings(report))
        assert payload == {
            "unknown": ["t"],
            "unseen": ["tʰ"],
            "suggestions": [{"unknown": "t", "candidate": "tʰ", "reason": "diacritic"}],
        }


# --- properties ---------------------------------------------------------

TOKEN_POOL = [IpaSegment(t) for t in "abdemnoqstuzʃʒ"]
RHS_POOL = [IpaSegment(t) for t in ["dʒ", "kʰ", "øː", "ɪ", "ʏ", "ŋ"]]


def random_clean_map(rng):
    """Maps whose lhs and rhs vocabularies are disjoint pass checks cleanly."""
    rules = []
    seen = set()
    for _ in range(rng.randint(1, 4)):
        lhs = tuple(rng.sample(TOKEN_POOL, rng.randint(1, 2)))
        if lhs in seen or any(_overlaps(lhs, other) for other in seen):
            continue
        seen.add(lhs)
        rhs = tuple(rng.choice(RHS_POOL) for _ in range(rng.randint(1, 2)))
        rules.append(FoldRule(lhs, rhs))
    return FoldMap(tuple(rules))


def _overlaps(a, b):
    joined = lambda t: "".join(t)
    return joined(a) in joined(b) or joined(b) in joined(a) or set(a) & set(b)


def random_stream(rng):
    tokens = []
    for _ in range(rng.randint(0, 20)):
        tokens.append(rng.choice(TOKEN_POOL))
        if rng.random() < 0.15:
            tokens.append("WORD_BOUNDARY")
    return parse_stream(" ".join(tokens))


def boundary_shape(stream):
    """Boundary tokens with how many segments precede each one."""
    shape, segments_seen = [], 0
    for token in stream:
        if isinstance(token, IpaSegment):
            segments_seen += 1
        else:
            shape.append((token, segments_seen))
    return shape


def test_clean_maps_are_idempotent():
    rng = random.Random(7)
    checked = 0
    while checked < 100:
        fold_map = random_clean_map(rng)
        if not fold_map.rules or check_fold_map(fold_map):
            continue
        checked += 1
        for _ in range(5):
            stream = random_stream(rng)
            once = apply_fold(fold_map, stream)
            assert apply_fold(fold_map, once) == once


def fold_every_rule(fold_map, stream):
    """Oracle: every rule in order, one left-to-right pass each, no skipping."""
    tokens = list(stream)
    for rule in fold_map.rules:
        out, i, width = [], 0, len(rule.lhs)
        while i < len(tokens):
            if tuple(tokens[i : i + width]) == rule.lhs:
                out.extend(rule.rhs)
                i += width
            else:
                out.append(tokens[i])
                i += 1
        tokens = out
    return PhonemeStream(repair_tokens(tokens))


FEEDING_POOL = TOKEN_POOL[:6] + RHS_POOL[:2]


def random_feeding_map(rng):
    """Any rules: merges, splits, deletions, and outputs that feed later rules."""
    rules = []
    for _ in range(rng.randint(1, 6)):
        lhs = tuple(rng.choices(FEEDING_POOL, k=rng.randint(1, 3)))
        rhs = tuple(rng.choices(FEEDING_POOL, k=rng.randint(0, 2)))
        rules.append(FoldRule(lhs, rhs))
    return FoldMap(tuple(rules))


# Fixed cases ahead of the random ones: a deletion that empties the first
# word (leaving a leading boundary), and rule outputs that feed later rules.
SKIPPING_CASES = [
    ("a ->", "a WORD_BOUNDARY b"),
    ("a b ->\nd -> a\na -> ʃ", "a b WORD_BOUNDARY d UTT_BOUNDARY a"),
    ("b -> a\na -> b", "b WORD_BOUNDARY a"),
]


def test_rule_skipping_matches_every_rule_oracle():
    rng = random.Random(29)
    cases = [(fold(m), parse_stream(s)) for m, s in SKIPPING_CASES]
    for _ in range(500):
        tokens = []
        for _ in range(rng.randint(0, 16)):
            tokens.append(rng.choice(FEEDING_POOL))
            if rng.random() < 0.2:
                tokens.append(rng.choice(["WORD_BOUNDARY", "UTT_BOUNDARY"]))
        cases.append((random_feeding_map(rng), parse_stream(" ".join(tokens))))
    for fold_map, stream in cases:
        assert apply_fold(fold_map, stream) == fold_every_rule(fold_map, stream)


def fold_rule_by_rule(fold_map, stream):
    """Oracle: each rule's own ``apply`` in order, then one repair of the result."""
    tokens = stream
    for rule in fold_map.rules:
        tokens = rule.apply(tokens)
    return repair_tokens(tokens)


# Few tokens, so rules feed one another: a split's rhs holds a later or an earlier lhs.
FOLD_TOKENS = st.sampled_from([IpaSegment(t) for t in "abcdʃ"])
ONE_TOKEN_RULES = st.one_of(
    st.builds(
        lambda lhs, rhs: FoldRule((lhs,), tuple(rhs)),
        FOLD_TOKENS,
        st.lists(FOLD_TOKENS, max_size=3),
    ),
    FOLD_TOKENS.map(lambda token: FoldRule((token,), (token,))),  # identity
    FOLD_TOKENS.map(lambda token: FoldRule((token,), ())),  # delete
)
MERGE_RULES = st.builds(
    lambda lhs, rhs: FoldRule(tuple(lhs), tuple(rhs)),
    st.lists(FOLD_TOKENS, min_size=2, max_size=3),
    st.lists(FOLD_TOKENS, max_size=2),
)


@st.composite
def run_heavy_maps(draw):
    """Runs of one-token rules, repeated lhs allowed, with a merge between runs."""
    rules = []
    for run in draw(st.lists(st.lists(ONE_TOKEN_RULES, min_size=1, max_size=6), max_size=3)):
        if rules or draw(st.booleans()):
            rules.append(draw(MERGE_RULES))
        rules += run
    return FoldMap(tuple(rules))


@settings(max_examples=300, deadline=None)
@given(
    run_heavy_maps(),
    st.lists(FOLD_TOKENS | st.sampled_from(["WORD_BOUNDARY", "UTT_BOUNDARY"]), max_size=16),
)
@example(fold("a -> b c\nc -> a\nb ->"), ["a", "c", "WORD_BOUNDARY", "b", "UTT_BOUNDARY", "d"])
@example(fold("a -> a\na b -> c\nb -> a\nc -> b b"), ["a", "b", "WORD_BOUNDARY", "c", "b"])
@example(FoldMap((FoldRule(("a",), ("b",)), FoldRule(("a",), ("c",)))), ["a", "b"])
def test_compiled_fold_matches_the_rule_by_rule_oracles(fold_map, tokens):
    stream = repair_tokens(tokens)
    before_use = pickle.loads(pickle.dumps(fold_map))  # the pool sends the map with every chunk
    folded = apply_fold(fold_map, stream)
    assert folded == fold_every_rule(fold_map, stream) == fold_rule_by_rule(fold_map, stream)
    assert all(isinstance(token, (IpaSegment, Boundary)) for token in folded)
    after_use = pickle.loads(pickle.dumps(fold_map))
    assert apply_fold(before_use, stream) == apply_fold(after_use, stream) == folded


@pytest.mark.parametrize(
    "rules",
    [
        (FoldRule(("a",), ("b",)), FoldRule(("c",), ("d", "WORD_BOUNDARY"))),  # a run: one dict
        (
            FoldRule(("a",), ("b",)),
            FoldRule(("x", "y"), ("z",)),
            FoldRule(("c",), ("d", "WORD_BOUNDARY")),
        ),
    ],
    ids=["run", "lone-rules"],
)
def test_a_map_built_from_plain_strings_folds_to_tokens(rules):
    folded = apply_fold(FoldMap(rules), parse_stream("a c x"))
    assert [type(token) for token in folded] == [IpaSegment, IpaSegment, Boundary, IpaSegment]
    assert folded == fold_rule_by_rule(FoldMap(rules), parse_stream("a c x"))
    assert emit_stream(folded) == "b d WORD_BOUNDARY x"


NFC_E = "\u00e9"  # é as one code point: a stream holds it decomposed


@pytest.mark.parametrize(
    "rules, expected",
    [
        ((FoldRule(("a",), (NFC_E,)), FoldRule((NFC_E,), ("x",))), "x b"),
        ((FoldRule(("a",), ("WORD_BOUNDARY",)), FoldRule(("WORD_BOUNDARY",), ("y",))), "y b"),
    ],
    ids=["nfc-rhs-feeds-nfc-lhs", "boundary-text-feeds-a-rule"],
)
def test_a_map_built_in_code_folds_as_its_rules_one_by_one(rules, expected):
    """A later rule sees an earlier rule's rhs text as written: it becomes a token at the end."""
    fold_map, stream = FoldMap(rules), parse_stream("a b")
    folded = apply_fold(fold_map, stream)
    assert folded == fold_rule_by_rule(fold_map, stream)
    assert emit_stream(folded) == expected


def test_boundary_positions_stable_relative_to_survivors():
    # one-to-one maps keep every segment, so each boundary must still sit
    # after the same number of segments as before
    fold_map = fold("a -> ɪ\nb -> ʏ")
    rng = random.Random(13)
    for _ in range(50):
        stream = random_stream(rng)
        folded = apply_fold(fold_map, stream)
        assert boundary_shape(folded) == boundary_shape(stream)


@given(
    st.sets(st.sampled_from("abcdefgh"), max_size=6),
    st.sets(st.sampled_from("abcdefgh"), max_size=6),
)
def test_diff_report_invariants(observed, reference):
    report = diff_inventory(observed, reference)
    assert report.unknown.isdisjoint(report.unseen)
    assert report.unknown <= report.observed
    assert report.unseen <= report.reference
    assert report.observed - report.unknown == report.reference - report.unseen
