"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they print.
"""

import contextlib
import io
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from phonofold.analysis import (
    LabeledVectorSet,
    binomial_test,
    build_unigram,
    eligible_features,
    info_by_age,
    silhouette,
    utterance_information,
)
from phonofold.cli import main
from phonofold.corpus import UtteranceRecord, convert_corpus, write_corpus
from phonofold.folding import (
    FoldMap,
    FoldRule,
    apply_fold,
    check_fold_map,
    parse_fold_map,
)
from phonofold.g2p import (
    GraphemeMap,
    RuleSet,
    RulesBackend,
    SyllabaryBackend,
    convert_rules,
    convert_utterance,
    load_syllable_table,
    merge_tones,
)
from phonofold.inventory import load_inventories
from phonofold.stream import (
    Boundary,
    IpaSegment,
    PhonemeStream,
    emit_stream,
    parse_stream,
    segment_types,
)


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except Exception:
        print(f"criterion {label}: FAIL")
        raise
    print(f"criterion {label}: PASS")


def test_criterion_01_french_validation(fixtures, tmp_path, capsys):
    with criterion("1 (French validation scenario)"):
        started = time.perf_counter()
        folded = tmp_path / "folded.txt"
        code = main(
            [
                "convert",
                "--backend",
                "passthrough",
                "--fold",
                str(fixtures / "french.fold"),
                str(fixtures / "french_backend_output.txt"),
                "--output",
                str(folded),
            ]
        )
        assert code == 0
        code = main(
            [
                "validate",
                "--inventory",
                str(fixtures / "french_inventory.csv"),
                "--inventory-id",
                "2269",
                str(folded),
            ]
        )
        out = capsys.readouterr().out
        elapsed = time.perf_counter() - started
        assert code == 1  # discrepancies present

        (inv,) = load_inventories(fixtures / "french_inventory.csv")
        observed = set()
        fold_map = parse_fold_map((fixtures / "french.fold").read_text("utf-8"))
        for line in (fixtures / "french_backend_output.txt").read_text("utf-8").splitlines():
            observed |= segment_types(apply_fold(fold_map, parse_stream(line)))
        unknown = observed - inv.segment_texts()
        unseen = inv.segment_texts() - observed
        assert unknown == {"dʒ", "tʃ"}
        assert unseen == {"ɧ"}
        assert "dʒ tʃ" in out and "ɧ" in out
        assert elapsed < 1.0


GOLDEN_FOLDS = [
    # (label, map text, input stream, expected emission, token delta)
    ("Swedish one-to-one", "n -> n̪", "n a n", "n̪ a n̪", 0),
    ("Portuguese many-to-one", "ɾ -> ʁ\nr -> ʁ", "ɾ a r", "ʁ a ʁ", 0),
    ("Serbian consonant merging", "d ʒ -> dʒ", "d ʒ a", "dʒ a", -1),
    ("Cantonese vowel merging", "o u -> ou", "h o u", "h ou", -1),
    ("en-us vowel splitting", "aɪʊ -> aɪ ʊ", "aɪʊ", "aɪ ʊ", 1),
    ("Estonian duplication", "d d -> dː", "d d a d d", "dː a dː", -2),
    ("Korean diacritic", "k h -> kʰ\np h -> pʰ", "k h a p h", "kʰ a pʰ", -2),
    ("Hungarian orthographic", "ô -> øː", "ô", "øː", 0),
]


def test_criterion_02_folding_error_taxonomy():
    with criterion("2 (folding error-taxonomy golden suite)"):
        started = time.perf_counter()
        for label, map_text, stream_text, expected, delta in GOLDEN_FOLDS:
            fold_map = parse_fold_map(map_text)
            before = parse_stream(stream_text)
            after = apply_fold(fold_map, before)
            assert emit_stream(after) == expected, label
            assert len(after) - len(before) == delta, label
        # many-to-one reduces the number of types, not tokens
        fold_map = parse_fold_map("ɾ -> ʁ\nr -> ʁ")
        after = apply_fold(fold_map, parse_stream("ɾ a r"))
        assert len(segment_types(after)) == 2
        assert time.perf_counter() - started < 1.0


SEGMENT_POOL = [IpaSegment(t) for t in ["a", "b", "dʒ", "ɔɪ", "n̪", "a˥", "t", "ʃ", "ɛ", "uː"]]


def random_canonical_stream(rng):
    tokens = []
    for u_index in range(rng.randint(0, 3)):
        if u_index:
            tokens.append(Boundary.UTT)
        for w_index in range(rng.randint(1, 4)):
            if w_index:
                tokens.append(Boundary.WORD)
            for _ in range(rng.randint(1, 4)):
                tokens.append(rng.choice(SEGMENT_POOL))
    if tokens and rng.random() < 0.2:
        tokens.append(Boundary.WORD)
    return PhonemeStream(tokens)


def test_criterion_03_stream_round_trip():
    with criterion("3 (stream round-trip, 1000 generated streams)"):
        rng = random.Random(314159)
        failures = 0
        for _ in range(1000):
            stream = random_canonical_stream(rng)
            if parse_stream(emit_stream(stream, keep_word_boundaries=True)) != stream:
                failures += 1
        assert failures == 0


def brute_force_greedy(entries, word):
    """Leftmost-longest segmentation by trying every entry at every offset."""
    out, i, n = [], 0, len(word)
    while i < n:
        best_len, best_segs = 0, None
        for grapheme, segments in entries:
            if len(grapheme) > best_len and word.startswith(grapheme, i):
                best_len, best_segs = len(grapheme), segments
        if best_segs is None:
            out.append(word[i])
            i += 1
        else:
            out.extend(best_segs)
            i += best_len
    return out


def test_criterion_04_greedy_oracle_exhaustive():
    with criterion("4 (greedy G2P oracle, 500 rule sets, all words <= 6 chars)"):
        alphabet = "abcd"
        words = ["".join(p) for n in range(1, 7) for p in itertools.product(alphabet, repeat=n)]
        assert len(words) == 5460
        rng = random.Random(271828)
        mismatches = 0
        elapsed = 0.0  # the engine's sweep only: the brute-force oracle runs untimed
        for _ in range(500):
            entries = []
            for _ in range(6):
                size = rng.choice([1, 1, 2, 3])
                grapheme = "".join(rng.choice(alphabet) for _ in range(size))
                segments = [rng.choice("xyzw") for _ in range(rng.randint(1, 2))]
                entries.append((grapheme, segments))
            ruleset = RuleSet(grapheme_map=GraphemeMap(entries))
            expected = [brute_force_greedy(entries, word) for word in words]
            started = time.perf_counter()
            got = [convert_rules(ruleset, word)[0] for word in words]
            elapsed += time.perf_counter() - started
            mismatches += sum(g != e for g, e in zip(got, expected))
        print(f"  [criterion 4 engine swept 500 rule sets x {len(words)} words in {elapsed:.1f}s]")
        assert mismatches == 0
        assert elapsed < 14.0


TONES = ["˥", "˧˥", "˨˩˦", "˥˩", "˨", "˩˧"]
ONSETS = [IpaSegment(t) for t in ["m", "n", "p", "t", "k", "s", "h", "tsʰ"]]
VOWELS = [IpaSegment(t) for t in ["a", "i", "u", "ə", "aʊ", "ei"]]
CODAS = [IpaSegment(t) for t in ["n", "ŋ", "k", "p"]]


def test_criterion_05_tone_handling(fixtures):
    with criterion("5 (tone merging and splitting)"):
        table = load_syllable_table(fixtures / "pinyin.tsv")
        merged, _ = convert_utterance(SyllabaryBackend(table), "ma1")
        assert emit_stream(merged) == "m a˥"
        split, _ = convert_utterance(SyllabaryBackend(table, split_tones=True), "ma1")
        assert emit_stream(split) == "m a ˥"

        tone_glyphs = set("˥˦˧˨˩")
        rng = random.Random(161803)
        for _ in range(1000):
            syllable = []
            if rng.random() < 0.8:
                syllable.append(rng.choice(ONSETS))
            syllable.append(rng.choice(VOWELS))
            if rng.random() < 0.4:
                syllable.append(rng.choice(CODAS))
            out = merge_tones(syllable, rng.choice(TONES))
            assert not any(set(token) <= tone_glyphs for token in out), out


LHS_POOL = [IpaSegment(t) for t in "abdemnoqstuzʃʒ"]
RHS_POOL = [IpaSegment(t) for t in ["dʒ", "kʰ", "øː", "ɪ", "ʏ", "ŋ", "œ"]]


def random_fold_map(rng):
    rules, seen_tokens, seen_lhs = [], set(), set()
    for _ in range(rng.randint(1, 4)):
        lhs = tuple(rng.sample(LHS_POOL, rng.randint(1, 2)))
        if lhs in seen_lhs or set(lhs) & seen_tokens:
            continue
        seen_lhs.add(lhs)
        seen_tokens.update(lhs)
        rhs = tuple(rng.choice(RHS_POOL) for _ in range(rng.randint(1, 2)))
        rules.append(FoldRule(lhs, rhs))
    return FoldMap(tuple(rules))


def test_criterion_06_fold_idempotence():
    with criterion("6 (fold idempotence for 500 clean maps)"):
        rng = random.Random(577215)
        clean_maps = 0
        failures = 0
        while clean_maps < 500:
            fold_map = random_fold_map(rng)
            if not fold_map.rules or check_fold_map(fold_map):
                continue
            clean_maps += 1
            for _ in range(3):
                tokens = [rng.choice(LHS_POOL) for _ in range(rng.randint(0, 16))]
                stream = parse_stream(" ".join(tokens))
                once = apply_fold(fold_map, stream)
                if apply_fold(fold_map, once) != once:
                    failures += 1
        assert failures == 0


def test_criterion_07_unigram_information():
    with criterion("7 (unigram utterance information)"):
        uniform = build_unigram([parse_stream("a b")])
        assert utterance_information(uniform, parse_stream("a b")) == 2.0

        skewed = build_unigram([parse_stream("a a a b")])
        got = utterance_information(skewed, parse_stream("a a b"))
        assert abs(got - 2.830074998557688) < 1e-9  # 2*log2(4/3) + 2

        # synthetic corpus over a uniform 4-symbol vocabulary: each segment
        # carries exactly 2 bits, so bucket means are 4.0 and 8.0 by design
        records = [
            UtteranceRecord(target_child_age=3.0, phonemized="a b"),
            UtteranceRecord(target_child_age=9.0, phonemized="c d"),
            UtteranceRecord(target_child_age=14.0, phonemized="a b c d"),
        ]
        points = info_by_age(records)
        assert [p.age_bucket for p in points] == [0, 1]
        assert abs(points[0].mean_information - 4.0) < 1e-9
        assert abs(points[1].mean_information - 8.0) < 1e-9


def exact_binomial_tail(successes, trials):
    half = Fraction(1, 2)
    return float(
        sum(
            Fraction(math.comb(trials, i)) * half**i * (1 - half) ** (trials - i)
            for i in range(successes, trials + 1)
        )
    )


def test_criterion_08_binomial_test():
    with criterion("8 (exact binomial tail for all n <= 30)"):
        assert binomial_test(5, 5) == pytest.approx(0.03125, abs=1e-15)
        for trials in range(1, 31):
            for successes in range(trials + 1):
                expected = exact_binomial_tail(successes, trials)
                assert binomial_test(successes, trials) == pytest.approx(expected, abs=1e-12)


def silhouette_oracle(vectors, labels):
    scores = []
    for i, (point, label) in enumerate(zip(vectors, labels)):
        same = [
            math.dist(point, other)
            for j, other in enumerate(vectors)
            if j != i and labels[j] == label
        ]
        if not same:
            scores.append(0.0)
            continue
        a = sum(same) / len(same)
        b = math.inf
        for cluster in set(labels) - {label}:
            distances = [
                math.dist(point, other) for j, other in enumerate(vectors) if labels[j] == cluster
            ]
            b = min(b, sum(distances) / len(distances))
        top = max(a, b)
        scores.append(0.0 if top == 0 else (b - a) / top)
    return sum(scores) / len(scores)


def test_criterion_09_silhouette_oracle():
    with criterion("9 (silhouette vs O(n^2) oracle, 100 random sets)"):
        rng = np.random.default_rng(662607)
        py_rng = random.Random(662607)
        for _ in range(100):
            n = py_rng.randint(5, 200)
            dims = py_rng.randint(1, 32)
            n_labels = py_rng.randint(2, 5)
            vectors = rng.normal(size=(n, dims)) * py_rng.uniform(0.5, 4.0)
            labels = [py_rng.randrange(n_labels) for _ in range(n)]
            labels[:n_labels] = list(range(n_labels))
            got = silhouette(LabeledVectorSet(vectors, tuple(labels)))
            expected = silhouette_oracle(vectors.tolist(), labels)
            assert abs(got - expected) < 1e-9
            assert -1.0 <= got <= 1.0


def test_criterion_10_corpus_determinism():
    with criterion("10 (corpus pipeline determinism across workers)"):
        backend = RulesBackend(
            RuleSet(
                grapheme_map=GraphemeMap(
                    [("ch", ["tʃ"]), ("c", ["k"]), ("a", ["a"]), ("b", ["b"]), ("d", ["d"])]
                )
            )
        )
        rng = random.Random(141421)
        glosses = ["cha", "cab", "bad", "dab cha", "abc cha cab"]
        records = [
            UtteranceRecord(
                utterance_id=str(i),
                speaker_role="MOT" if i % 3 else "CHI",
                gloss=" ".join(rng.choice(glosses) for _ in range(rng.randint(1, 3))),
            )
            for i in range(10_000)
        ]
        started = time.perf_counter()
        sequential, seq_summary = convert_corpus(records, backend, uncorrected=True, workers=1)
        elapsed = time.perf_counter() - started
        parallel, par_summary = convert_corpus(records, backend, uncorrected=True, workers=8)

        seq_csv, par_csv = io.StringIO(), io.StringIO()
        write_corpus(sequential, seq_csv)
        write_corpus(parallel, par_csv)
        assert seq_csv.getvalue().encode() == par_csv.getvalue().encode()
        assert seq_summary.observed == par_summary.observed

        throughput = len(records) / elapsed * 60
        print(f"  [criterion 10 throughput: {throughput:,.0f} utterances/minute, soft target 100k]")


def test_criterion_11_feature_eligibility(fixtures):
    with criterion("11 (feature eligibility at the 4/4 threshold)"):
        (inv,) = load_inventories(fixtures / "french_inventory.csv")
        # hand-derived from the fixture rows; round sits exactly at 4/4 and
        # labial fails with 3 plus against 4 minus
        assert eligible_features(inv) == ["consonantal", "round", "sonorant", "syllabic"]
        assert "labial" not in eligible_features(inv)
        assert "labial" in eligible_features(inv, min_each=3)
