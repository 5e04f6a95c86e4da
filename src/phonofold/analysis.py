"""Corpus and inventory analytics.

Phoneme frequencies and unigram utterance information, age-bucketed
information curves, inventory comparison, distinctive-feature eligibility,
an exact one-sided binomial test, and silhouette scores for labeled
embedding sets.
"""

from __future__ import annotations

import csv
import math
import random
from collections import Counter
from functools import reduce
from itertools import chain, filterfalse
from operator import add
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import FormatError, UnseenSymbolError
from .inventory import Inventory, TernaryValue
from .stream import IpaSegment, PhonemeStream, _Record, coerce_token, column_positions, csv_rows
from .stream import open_text

# numpy is imported inside the three functions that use it, so a command
# that never reaches them does not pay for loading it.
if TYPE_CHECKING:
    import numpy as np

UNKNOWN_SYMBOL = "<unk>"

SMOOTHING_MODES = ("none", "add_one")

# Rows of the distance matrix silhouette computes at once.
_SILHOUETTE_BLOCK_ROWS = 64


def frequency_table(streams: Iterable[PhonemeStream]) -> Counter:
    """Exact segment token counts over streams, boundaries excluded."""
    counts: Counter = Counter()
    for stream in streams:
        counts.update(t for t in stream if isinstance(t, IpaSegment))
    return counts


class UnigramModel(_Record):
    _fields = ("probabilities", "total_tokens", "smoothing")

    def __init__(self, probabilities: dict, total_tokens: int, smoothing: str = "none"):
        vars(self).update(
            probabilities=probabilities, total_tokens=total_tokens, smoothing=smoothing
        )

    def probability(self, segment) -> float:
        p = self.probabilities.get(segment)
        if p is None:
            if self.smoothing == "add_one":
                return self.probabilities[UNKNOWN_SYMBOL]
            raise UnseenSymbolError(str(segment))
        return p


def build_unigram(streams: Iterable[PhonemeStream], smoothing: str = "none") -> UnigramModel:
    """Maximum-likelihood unigram frequencies over segment tokens.

    add_one smoothing reserves one count of mass for the designated unknown
    symbol, so unseen segments keep non-zero probability.
    """
    if smoothing not in SMOOTHING_MODES:
        raise ValueError(f"smoothing must be one of {SMOOTHING_MODES}")
    counts = frequency_table(streams)
    total = sum(counts.values())
    if total == 0:
        raise ValueError("no segment tokens to model")
    if smoothing == "add_one":
        denom = total + len(counts) + 1
        probabilities = {seg: (c + 1) / denom for seg, c in counts.items()}
        probabilities[UNKNOWN_SYMBOL] = 1 / denom
    else:
        probabilities = {seg: c / total for seg, c in counts.items()}
    return UnigramModel(probabilities, total, smoothing)


def utterance_information(model: UnigramModel, stream: PhonemeStream) -> float:
    """Total information in bits: the sum of -log2 P over segment tokens."""
    bits = 0.0
    for token in stream:
        if isinstance(token, IpaSegment):
            bits -= math.log2(model.probability(token))
    return bits


class InfoCurvePoint(_Record):
    """Mean utterance information for one year-of-age bucket.

    Bucket k covers ages [12k, 12k + 12) months.
    """

    _fields = ("age_bucket", "mean_information", "n_utterances")

    def __init__(self, age_bucket: int, mean_information: float, n_utterances: int):
        vars(self).update(
            age_bucket=age_bucket, mean_information=mean_information, n_utterances=n_utterances
        )


def info_by_age(
    records,
    pooled: bool = True,
    sample_size: int | None = None,
    seed: int | None = None,
) -> list[InfoCurvePoint]:
    """Mean unigram utterance information per year-of-age bucket.

    Records need an age and a phonemized stream with at least one segment;
    others are skipped, and empty buckets are omitted. ``pooled`` estimates
    probabilities from all (sampled) data, otherwise per bucket. Sampling is
    per bucket and only happens when ``sample_size`` is given. Each distinct token text is
    costed once (a boundary: 0.0); a cell's costs, added left to right, are its bits.
    """
    segments: dict[str, IpaSegment | None] = {}  # token text -> its segment; None: a boundary
    buckets: dict[int, list[str]] = {}
    for record in records:
        age = getattr(record, "target_child_age", None)
        phonemized = getattr(record, "phonemized", None)
        if age is None or not phonemized:
            continue
        texts = phonemized.split()
        for text in filterfalse(segments.__contains__, texts):  # first sights, in file order
            segments[text] = tok if isinstance(tok := coerce_token(text), IpaSegment) else None
        if any(map(segments.__getitem__, texts)):
            buckets.setdefault(int(age // 12), []).append(phonemized)

    if sample_size is not None:
        rng = random.Random(seed)
        for bucket, cells in sorted(buckets.items()):
            if len(cells) > sample_size:
                buckets[bucket] = rng.sample(cells, sample_size)

    def costs(cells) -> dict[str, float]:
        by_text = Counter(chain.from_iterable(map(str.split, cells)))
        counts: Counter = Counter()  # by segment, so that two spellings of one are merged
        for text, count in by_text.items():
            counts[segments[text]] += count
        total = counts.total() - counts[None]
        return {t: -math.log2(counts[s] / total) if (s := segments[t]) else 0.0 for t in by_text}

    pooled_costs = costs(chain.from_iterable(buckets.values())) if pooled else None
    points = []
    for bucket, cells in sorted(buckets.items()):
        cost = (pooled_costs if pooled else costs(cells)).__getitem__
        bits = [reduce(add, map(cost, cell.split()), 0.0) for cell in cells]
        points.append(InfoCurvePoint(bucket, sum(bits) / len(cells), len(cells)))
    return points


class VennReport(_Record):
    _fields = ("only_a", "both", "only_b")

    def __init__(self, only_a: frozenset, both: frozenset, only_b: frozenset):
        vars(self).update(only_a=only_a, both=both, only_b=only_b)

    @property
    def counts(self) -> tuple[int, int, int]:
        return (len(self.only_a), len(self.both), len(self.only_b))


def compare_inventories(a: Iterable, b: Iterable) -> VennReport:
    """Exact three-way partition of two segment sets."""
    set_a = frozenset(IpaSegment(s) for s in a)
    set_b = frozenset(IpaSegment(s) for s in b)
    return VennReport(only_a=set_a - set_b, both=set_a & set_b, only_b=set_b - set_a)


def eligible_features(inventory: Inventory, min_each: int = 4) -> list[str]:
    """Features with at least ``min_each`` plus and ``min_each`` minus segments.

    Unspecified values count toward neither side.
    """
    plus: Counter = Counter()
    minus: Counter = Counter()
    names: set[str] = set()
    for seg in inventory.segments:
        for feature, value in seg.features.items():
            names.add(feature)
            if value is TernaryValue.PLUS:
                plus[feature] += 1
            elif value is TernaryValue.MINUS:
                minus[feature] += 1
    return sorted(f for f in names if plus[f] >= min_each and minus[f] >= min_each)


def binomial_test(successes: int, trials: int, p0: float = 0.5) -> float:
    """One-sided upper-tail exact binomial p-value, computed in log space.

    p = sum over i in [successes, trials] of C(trials, i) p0^i (1-p0)^(n-i);
    log-space accumulation keeps the tail accurate for trials up to 10^4.
    """
    if not (isinstance(successes, int) and isinstance(trials, int)):
        raise ValueError("successes and trials must be integers")
    if trials < 1 or not 0 <= successes <= trials:
        raise ValueError(f"need 0 <= successes <= trials, trials >= 1; got {successes}/{trials}")
    if not 0.0 < p0 < 1.0:
        raise ValueError("p0 must lie strictly between 0 and 1")
    if successes == 0:
        return 1.0
    log_p, log_q = math.log(p0), math.log1p(-p0)
    log_n_fact = math.lgamma(trials + 1)
    terms = [
        log_n_fact
        - math.lgamma(i + 1)
        - math.lgamma(trials - i + 1)
        + i * log_p
        + (trials - i) * log_q
        for i in range(successes, trials + 1)
    ]
    peak = max(terms)
    total = peak + math.log(sum(math.exp(t - peak) for t in terms))
    return min(1.0, math.exp(total))


class LabeledVectorSet(_Record):
    """Uniform-dimension real vectors with parallel cluster labels."""

    _fields = ("vectors", "labels")

    def __init__(self, vectors: np.ndarray, labels: tuple):
        import numpy as np

        vectors, labels = np.asarray(vectors, dtype=float), tuple(labels)
        vars(self).update(vectors=vectors, labels=labels)
        if vectors.ndim != 2:
            raise ValueError("vectors must form an (n, d) matrix")
        if len(labels) != vectors.shape[0]:
            raise ValueError("labels and vectors must have equal length")


def load_labeled_vectors(source, label_column: str = "label") -> LabeledVectorSet:
    """Read a LabeledVectorSet from CSV: one label column, the rest numeric; blank lines skip.

    A header without the label column, a row whose cell count is not the header's, and a
    cell that is not a number are each a FormatError naming the file and line.
    """
    import numpy as np

    labels, vectors = [], []
    with open_text(source) as handle:
        name = getattr(handle, "name", "<file>")
        reader = csv.reader(handle)
        rows = csv_rows(reader, name)
        header = next(rows, [])
        at = column_positions(header)
        if header and label_column not in at:
            message = f"missing column {label_column!r}"
            raise FormatError(message, source=name, line=reader.line_num)
        label_at = at.pop(label_column, None)
        for row in rows:
            if not row:
                continue
            if len(row) != len(header):
                raise FormatError("row does not match header", source=name, line=reader.line_num)
            vector = []
            for column, i in at.items():
                try:
                    vector.append(float(row[i]))
                except ValueError:
                    message = f"bad number {row[i]!r} in column {column!r}"
                    raise FormatError(message, source=name, line=reader.line_num) from None
            labels.append(row[label_at])
            vectors.append(vector)
    if not labels:
        raise ValueError("no vector rows")
    return LabeledVectorSet(np.array(vectors), tuple(labels))


def silhouette(data: LabeledVectorSet, metric: str = "euclidean") -> float:
    """Mean silhouette score over all points, Euclidean distance.

    Per point, s = (b - a) / max(a, b) where a is the mean distance to the
    point's own cluster (excluding itself) and b the smallest mean distance
    to any other cluster; singleton-cluster points and a = b = 0 score 0.
    """
    import numpy as np

    if metric != "euclidean":
        raise ValueError("only the euclidean metric is supported")
    vectors = data.vectors
    labels = np.asarray(data.labels, dtype=object)
    unique = sorted(set(data.labels), key=str)
    if len(unique) < 2:
        raise ValueError("silhouette needs at least two distinct labels")

    n = vectors.shape[0]
    masks = {label: labels == label for label in unique}
    sizes = {label: int(mask.sum()) for label, mask in masks.items()}
    # Distances for a block of rows at a time, so memory stays O(block * n * d).
    # Blocks are near-equal and so never one row tall: numpy sums the columns
    # of a one-row matrix in another order than those of a taller one.
    cluster_sums = {label: np.empty(n) for label in unique}
    for block in np.array_split(np.arange(n), -(-n // _SILHOUETTE_BLOCK_ROWS)):
        rows = slice(block[0], block[-1] + 1)
        diff = vectors[rows, None, :] - vectors[None, :, :]
        distances = np.sqrt((diff * diff).sum(axis=-1))
        for label, mask in masks.items():
            cluster_sums[label][rows] = distances[:, mask].sum(axis=1)

    scores = np.zeros(n)
    for i in range(n):
        own = data.labels[i]
        if sizes[own] == 1:
            continue  # singleton convention: score 0
        a = cluster_sums[own][i] / (sizes[own] - 1)
        b = min(cluster_sums[other][i] / sizes[other] for other in unique if other != own)
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return float(scores.mean())


def curve_rows(points: Sequence[InfoCurvePoint]) -> list[list]:
    """Plot-ready rows for the information curve CSV."""
    rows: list[list] = [["age_bucket", "mean_information", "n_utterances"]]
    for point in points:
        rows.append([point.age_bucket, repr(point.mean_information), point.n_utterances])
    return rows
