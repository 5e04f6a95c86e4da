import csv
import io
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phonofold.analysis import (
    UNKNOWN_SYMBOL,
    LabeledVectorSet,
    binomial_test,
    build_unigram,
    compare_inventories,
    eligible_features,
    frequency_table,
    info_by_age,
    load_labeled_vectors,
    silhouette,
    utterance_information,
)
from phonofold.corpus import UtteranceRecord
from phonofold.errors import FormatError, UnseenSymbolError
from phonofold.inventory import load_inventories
from phonofold.stream import UTT_BOUNDARY, WORD_BOUNDARY, parse_stream

from stream_oracle import stream_info_by_age


def streams(*lines):
    return [parse_stream(line) for line in lines]


class TestUnigram:
    def test_uniform(self):
        model = build_unigram(streams("a b", "a b"))
        assert model.probability("a") == 0.5
        assert model.probability("b") == 0.5

    def test_mle(self):
        model = build_unigram(streams("a a a b"))
        assert model.probability("a") == 0.75
        assert model.probability("b") == 0.25

    def test_add_one_reserves_unknown_mass(self):
        model = build_unigram(streams("a"), smoothing="add_one")
        assert model.probability("a") == pytest.approx(2 / 3)
        assert model.probability(UNKNOWN_SYMBOL) == pytest.approx(1 / 3)
        assert model.probability("zzz") == pytest.approx(1 / 3)

    def test_boundaries_excluded(self):
        model = build_unigram(streams("a WORD_BOUNDARY b UTT_BOUNDARY a"))
        assert model.total_tokens == 3

    def test_zero_segments_rejected(self):
        with pytest.raises(ValueError):
            build_unigram(streams("WORD_BOUNDARY"))

    def test_probabilities_sum_to_one(self):
        model = build_unigram(streams("a a b c c c d"), smoothing="add_one")
        assert sum(model.probabilities.values()) == pytest.approx(1.0, abs=1e-9)


class TestUtteranceInformation:
    def test_two_fair_coins(self):
        model = build_unigram(streams("a b"))
        assert utterance_information(model, parse_stream("a b")) == 2.0

    def test_empty_stream(self):
        model = build_unigram(streams("a b"))
        assert utterance_information(model, parse_stream("")) == 0.0

    def test_hand_arithmetic(self):
        model = build_unigram(streams("a a a b"))
        # 2*log2(4/3) + 2, frozen from the arithmetic
        expected = 2.830074998557688
        got = utterance_information(model, parse_stream("a a b"))
        assert got == pytest.approx(expected, abs=1e-9)

    def test_boundaries_contribute_nothing(self):
        model = build_unigram(streams("a b"))
        with_boundary = utterance_information(model, parse_stream("a WORD_BOUNDARY b"))
        assert with_boundary == 2.0

    def test_unseen_segment_without_smoothing(self):
        model = build_unigram(streams("a b"))
        with pytest.raises(UnseenSymbolError, match="q"):
            utterance_information(model, parse_stream("a q"))

    def test_unseen_segment_with_smoothing(self):
        model = build_unigram(streams("a b"), smoothing="add_one")
        assert utterance_information(model, parse_stream("q")) > 0.0

    def test_uniform_model_information_is_length_times_log_vocab(self):
        model = build_unigram(streams("a b c d"))
        got = utterance_information(model, parse_stream("a b a c"))
        assert got == pytest.approx(4 * math.log2(4), abs=1e-9)


def record(age, phonemized, is_child=False):
    return UtteranceRecord(target_child_age=age, phonemized=phonemized, is_child=is_child)


class TestInfoByAge:
    def test_two_buckets(self):
        records = [record(6.0, "a b"), record(18.0, "b a")]
        points = info_by_age(records)
        assert [(p.age_bucket, p.n_utterances) for p in points] == [(0, 1), (1, 1)]
        assert all(p.mean_information == pytest.approx(2.0) for p in points)

    def test_bucket_boundary(self):
        records = [record(5.9, "a b"), record(12.0, "a b")]
        points = info_by_age(records)
        assert [p.age_bucket for p in points] == [0, 1]

    def test_no_aged_records_yields_empty_curve(self):
        assert info_by_age([record(None, "a b")]) == []

    def test_records_without_streams_skipped(self):
        points = info_by_age([record(6.0, ""), record(6.0, "a b"), record(6.0, None)])
        assert points[0].n_utterances == 1

    def test_designed_per_bucket_means(self):
        # uniform 4-symbol vocabulary: every segment carries exactly 2 bits
        records = [
            record(3.0, "a b"),
            record(9.0, "c d"),
            record(14.0, "a b c d"),
        ]
        points = info_by_age(records)
        assert points[0].mean_information == pytest.approx(4.0, abs=1e-9)
        assert points[1].mean_information == pytest.approx(8.0, abs=1e-9)

    def test_per_bucket_models(self):
        records = [record(3.0, "a a b b"), record(15.0, "a b c d")]
        points = info_by_age(records, pooled=False)
        assert points[0].mean_information == pytest.approx(4.0, abs=1e-9)
        assert points[1].mean_information == pytest.approx(8.0, abs=1e-9)

    def test_sampling_is_seeded_and_bounded(self):
        records = [record(3.0, "a b")] * 10 + [record(15.0, "c d")] * 10
        first = info_by_age(records, sample_size=3, seed=11)
        second = info_by_age(records, sample_size=3, seed=11)
        assert first == second
        assert all(p.n_utterances == 3 for p in first)

    def test_one_segment_type_is_positive_zero_bits(self):
        points = info_by_age([record(3.0, "a WORD_BOUNDARY a"), record(15.0, "a")])
        assert [repr(p.mean_information) for p in points] == ["0.0", "0.0"]


# NFC and NFD spellings of one segment, and both boundary literals.
INFO_TEXTS = ["a", "tʃ", "\u00e9", "e\u0301", WORD_BOUNDARY, UTT_BOUNDARY]
# Texts that are no segment, each with its own error text: the first one read raises.
BAD_TEXTS = ["a\ud800b", "\udfff", "x\ud900"]


@st.composite
def info_corpora(draw):
    """Records with some, none or only boundary tokens; a few alphabets hold one segment type."""
    alphabet = draw(st.lists(st.sampled_from(INFO_TEXTS), min_size=1, max_size=4, unique=True))
    if draw(st.integers(0, 5)) == 0:
        alphabet += draw(st.lists(st.sampled_from(BAD_TEXTS), min_size=1, unique=True))
    token = st.tuples(st.sampled_from(alphabet), st.sampled_from([" ", "  ", "\t"]))
    cell = st.lists(token, max_size=8).map(lambda pairs: "".join(t + sep for t, sep in pairs))
    age = st.none() | st.floats(min_value=0, max_value=35.9)
    return draw(st.lists(st.builds(record, age, st.none() | cell), max_size=30))


def info_outcome(function, *args, **kwargs):
    """The curve, with each mean's repr so -0.0 and 0.0 differ, or the ValueError's text."""
    try:
        points = function(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return points, [repr(p.mean_information) for p in points]


@settings(max_examples=300, deadline=None)
@given(
    info_corpora(),
    st.booleans(),
    st.none() | st.tuples(st.integers(1, 4), st.integers(0, 99)),
)
def test_info_by_age_equals_the_stream_path_to_the_bit(records, pooled, sampling):
    sample_size, seed = sampling or (None, None)
    kwargs = dict(pooled=pooled, sample_size=sample_size, seed=seed)
    assert info_outcome(info_by_age, records, **kwargs) == info_outcome(
        stream_info_by_age, records, **kwargs
    )


class TestCompareInventories:
    def test_partition(self):
        report = compare_inventories({"a", "b"}, {"b", "c"})
        assert report.only_a == {"a"}
        assert report.both == {"b"}
        assert report.only_b == {"c"}
        assert report.counts == (1, 1, 1)

    def test_identical_sets(self):
        report = compare_inventories({"a"}, {"a"})
        assert report.only_a == set() and report.only_b == set()

    def test_mock_backend_sets_tally(self, fixtures):
        lines = (fixtures / "french_backend_output.txt").read_text("utf-8").splitlines()
        observed = {str(t) for line in lines for t in parse_stream(line)}
        (inv,) = load_inventories(fixtures / "french_inventory.csv")
        report = compare_inventories(observed, inv.segment_texts())
        # hand tally: raw output uses ɔ ɛ t ʃ which the inventory lacks, and
        # never produces the inventory's ɧ or o before folding
        assert report.only_a == {"ɔ", "ɛ", "t", "ʃ"}
        assert report.only_b == {"ɧ", "o"}
        assert report.counts == (4, 10, 2)


class TestEligibleFeatures:
    def test_french_fixture_hand_derived(self, fixtures):
        (inv,) = load_inventories(fixtures / "french_inventory.csv")
        assert eligible_features(inv) == ["consonantal", "round", "sonorant", "syllabic"]

    def test_three_against_four_is_ineligible(self, fixtures):
        # labial has exactly 3 plus and 4 minus in the fixture
        (inv,) = load_inventories(fixtures / "french_inventory.csv")
        assert "labial" not in eligible_features(inv)
        assert "labial" in eligible_features(inv, min_each=3)

    def test_all_unspecified_ineligible(self, fixtures):
        (inv,) = load_inventories(fixtures / "french_inventory.csv")
        assert "click" not in eligible_features(inv)


def exact_binomial_tail(successes, trials, p0=Fraction(1, 2)):
    return sum(
        Fraction(math.comb(trials, i)) * p0**i * (1 - p0) ** (trials - i)
        for i in range(successes, trials + 1)
    )


class TestBinomialTest:
    def test_all_successes(self):
        assert binomial_test(5, 5) == pytest.approx(0.03125, abs=1e-15)

    def test_zero_successes_full_tail(self):
        assert binomial_test(0, 5) == 1.0

    def test_eight_of_ten(self):
        assert binomial_test(8, 10) == pytest.approx(0.0546875, abs=1e-12)

    def test_matches_exact_oracle_up_to_thirty_trials(self):
        for trials in range(1, 31):
            for successes in range(trials + 1):
                expected = float(exact_binomial_tail(successes, trials))
                got = binomial_test(successes, trials)
                assert got == pytest.approx(expected, abs=1e-12), (successes, trials)

    def test_large_trials_stable_in_log_space(self):
        p = binomial_test(6000, 10000)
        assert 0.0 < p < 1e-80

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_test(-1, 5)
        with pytest.raises(ValueError):
            binomial_test(6, 5)
        with pytest.raises(ValueError):
            binomial_test(1, 0)
        with pytest.raises(ValueError):
            binomial_test(1, 5, p0=1.0)

    @given(st.integers(min_value=1, max_value=60))
    def test_monotone_non_increasing_in_successes(self, trials):
        values = [binomial_test(k, trials) for k in range(trials + 1)]
        assert all(a >= b - 1e-15 for a, b in zip(values, values[1:]))


def silhouette_oracle(vectors, labels):
    """Independent O(n^2) per-point re-implementation."""
    scores = []
    for i, (point, label) in enumerate(zip(vectors, labels)):
        same = [math.dist(point, q) for j, q in enumerate(vectors) if j != i and labels[j] == label]
        if not same:
            scores.append(0.0)
            continue
        a = sum(same) / len(same)
        b = math.inf
        for other in set(labels) - {label}:
            ds = [math.dist(point, q) for j, q in enumerate(vectors) if labels[j] == other]
            b = min(b, sum(ds) / len(ds))
        top = max(a, b)
        scores.append(0.0 if top == 0 else (b - a) / top)
    return sum(scores) / len(scores)


def silhouette_whole_tensor(data):
    """Silhouette from the full n x n x d difference tensor, in one step.

    Same arithmetic as ``silhouette``, which takes the distances a block of
    rows at a time to bound memory; the two must agree exactly.
    """
    vectors = data.vectors
    labels = np.asarray(data.labels, dtype=object)
    unique = sorted(set(data.labels), key=str)
    diff = vectors[:, None, :] - vectors[None, :, :]
    distances = np.sqrt((diff * diff).sum(axis=-1))
    masks = {label: labels == label for label in unique}
    sizes = {label: int(mask.sum()) for label, mask in masks.items()}
    cluster_sums = {label: distances[:, mask].sum(axis=1) for label, mask in masks.items()}
    scores = np.zeros(len(vectors))
    for i, own in enumerate(data.labels):
        if sizes[own] == 1:
            continue
        a = cluster_sums[own][i] / (sizes[own] - 1)
        b = min(cluster_sums[other][i] / sizes[other] for other in unique if other != own)
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


class TestSilhouette:
    def test_well_separated_identical_pairs(self):
        data = LabeledVectorSet(np.array([[0.0], [0.0], [9.0], [9.0]]), ("L", "L", "R", "R"))
        assert silhouette(data) == pytest.approx(1.0)

    def test_all_points_identical(self):
        data = LabeledVectorSet(np.zeros((4, 2)), ("L", "L", "R", "R"))
        assert silhouette(data) == 0.0

    def test_four_points_hand_computed(self):
        data = LabeledVectorSet(
            np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]]),
            ("L", "L", "R", "R"),
        )
        # a=1, b=(10+sqrt(101))/2 for every point; frozen from the oracle
        assert silhouette(data) == pytest.approx(0.9002487577582194, abs=1e-9)

    def test_singleton_cluster_scores_zero(self):
        data = LabeledVectorSet(np.array([[0.0], [1.0], [9.0]]), ("L", "L", "R"))
        oracle = silhouette_oracle(data.vectors.tolist(), list(data.labels))
        assert silhouette(data) == pytest.approx(oracle, abs=1e-12)

    def test_needs_two_labels(self):
        with pytest.raises(ValueError):
            silhouette(LabeledVectorSet(np.zeros((3, 2)), ("L", "L", "L")))

    def test_matches_oracle_on_random_sets(self):
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(4, 60)
            dims = rng.randint(1, 8)
            n_labels = rng.randint(2, 4)
            vectors = [[rng.uniform(-5, 5) for _ in range(dims)] for _ in range(n)]
            labels = [rng.randrange(n_labels) for _ in range(n)]
            labels[:n_labels] = list(range(n_labels))  # every label non-empty
            got = silhouette(LabeledVectorSet(np.array(vectors), tuple(labels)))
            expected = silhouette_oracle(vectors, labels)
            assert got == pytest.approx(expected, abs=1e-9)
            assert -1.0 <= got <= 1.0

    def test_row_blocks_equal_whole_tensor_form(self):
        # The criterion-9 random sets, half with duplicated points; n runs past
        # one row block, so block edges are crossed.
        rng = np.random.default_rng(662607)
        py_rng = random.Random(662607)
        for case in range(100):
            n = py_rng.randint(5, 200)
            dims = py_rng.randint(1, 32)
            n_labels = py_rng.randint(2, 5)
            vectors = rng.normal(size=(n, dims)) * py_rng.uniform(0.5, 4.0)
            labels = [py_rng.randrange(n_labels) for _ in range(n)]
            labels[:n_labels] = list(range(n_labels))
            if case % 2:
                for i in py_rng.sample(range(n), n // 3):
                    vectors[i] = vectors[py_rng.randrange(n)]
            data = LabeledVectorSet(vectors, tuple(labels))
            assert silhouette(data) == silhouette_whole_tensor(data)

    def test_row_blocks_score_coincident_clusters_zero(self):
        # a = b = 0 for every point: two clusters stacked on one location.
        data = LabeledVectorSet(np.ones((150, 3)), tuple(i % 2 for i in range(150)))
        assert silhouette(data) == silhouette_whole_tensor(data) == 0.0

    def test_csv_ingestion(self):
        text = "label,x,y\nL,0,0\nL,0,1\nR,9,0\nR,9,1\n"
        data = load_labeled_vectors(io.StringIO(text))
        assert data.vectors.shape == (4, 2)
        assert silhouette(data) == pytest.approx(
            silhouette_oracle(data.vectors.tolist(), list(data.labels)), abs=1e-12
        )

    @pytest.mark.parametrize(
        "text, message",
        [
            ("label,x,y\nL,0,0\n\nR,9\n", "line 4: row does not match header"),
            ("label,x,y\nL,0,0\nR,9,q\n", "line 3: bad number 'q' in column 'y'"),
            ('"lab\nel",x\nL,0\n', "line 2: missing column 'label'"),
        ],
        ids=["short-row", "not-a-number", "no-label-column"],
    )
    def test_csv_errors_name_the_file_and_line(self, text, message):
        with pytest.raises(FormatError) as raised:
            load_labeled_vectors(io.StringIO(text))
        assert str(raised.value) == "<file>: " + message


def dict_reader_vectors(text, label_column="label"):
    """The DictReader loader, kept as the reference for ``load_labeled_vectors``."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        raise ValueError("no vector rows")
    numeric = [c for c in rows[0] if c != label_column]
    labels = tuple(row[label_column] for row in rows)
    return LabeledVectorSet(np.array([[float(row[c]) for c in numeric] for row in rows]), labels)


NUMBERS = ["0", "-1.5", " 2 ", "1e3", "+7", "inf", "0.1"]


@st.composite
def vector_csvs(draw):
    """A labeled-vector CSV that DictReader reads whole: unique column names, full rows.

    Labels may hold a comma, a quote or a newline; blank lines are mixed in, lines end
    in LF or CRLF, and the last may have no line ending.
    """
    numeric = draw(st.lists(st.sampled_from(["x", "y", "z", "w 1", "x,2"]), unique=True))
    header = draw(st.permutations(["label", *numeric]))
    labels = st.sampled_from(["L", "R", "a,b", 'q"t', "two\nlines", ""])
    rows = [
        [draw(labels) if column == "label" else draw(st.sampled_from(NUMBERS)) for column in header]
        for _ in range(draw(st.integers(0, 6)))
    ]
    for _ in range(draw(st.integers(0, 2))):
        rows.insert(draw(st.integers(0, len(rows))), [])
    out = io.StringIO()
    line_end = draw(st.sampled_from(["\n", "\r\n"]))
    csv.writer(out, lineterminator=line_end).writerows([header, *rows])
    text = out.getvalue()
    return text[: -len(line_end)] if draw(st.booleans()) else text


@settings(max_examples=200, deadline=None)
@given(vector_csvs())
def test_labeled_vectors_load_as_the_dict_reader_did(text):
    try:
        expected = dict_reader_vectors(text)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{exc}$"):
            load_labeled_vectors(io.StringIO(text))
        return
    got = load_labeled_vectors(io.StringIO(text))
    assert got.labels == expected.labels
    assert got.vectors.shape == expected.vectors.shape
    assert (got.vectors == expected.vectors).all()


@given(
    st.sets(st.sampled_from("abcdefg"), max_size=6),
    st.sets(st.sampled_from("abcdefg"), max_size=6),
)
def test_venn_partition_property(a, b):
    report = compare_inventories(a, b)
    assert report.only_a | report.both | report.only_b == frozenset(a) | frozenset(b)
    assert report.only_a.isdisjoint(report.both)
    assert report.only_b.isdisjoint(report.both)
    assert report.only_a.isdisjoint(report.only_b)


class TestFrequencyTable:
    def test_counts(self):
        assert frequency_table(streams("a b a")) == {"a": 2, "b": 1}

    def test_empty(self):
        assert frequency_table([]) == {}

    def test_boundaries_excluded(self):
        counts = frequency_table(streams("a WORD_BOUNDARY b UTT_BOUNDARY"))
        assert sum(counts.values()) == 2

    def test_partition_independent(self):
        lines = [f"a b {'c ' * (i % 3)}".strip() for i in range(100)]
        whole = frequency_table(streams(*lines))
        merged = frequency_table(streams(*lines[:37]))
        for seg, count in frequency_table(streams(*lines[37:])).items():
            merged[seg] += count
        assert whole == merged
