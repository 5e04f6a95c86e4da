"""``info_by_age`` through phoneme streams, kept as the oracle the token-text version must equal.

Each cell is parsed into a stream, a unigram model is built over the streams and each stream
is scored with ``utterance_information``. The module imports only the standard library and
phonofold, so an interpreter without the test dependencies can run it.
"""

import random

from phonofold.analysis import InfoCurvePoint, build_unigram, utterance_information
from phonofold.stream import IpaSegment, parse_stream


def stream_info_by_age(records, pooled=True, sample_size=None, seed=None):
    buckets = {}
    for r in records:
        if r.target_child_age is None or not r.phonemized:
            continue
        stream = parse_stream(r.phonemized)
        if any(isinstance(t, IpaSegment) for t in stream):
            buckets.setdefault(int(r.target_child_age // 12), []).append(stream)
    if sample_size is not None:
        rng = random.Random(seed)
        for bucket, streams in sorted(buckets.items()):
            if len(streams) > sample_size:
                buckets[bucket] = rng.sample(streams, sample_size)
    if not buckets:
        return []
    pooled_model = build_unigram(s for streams in buckets.values() for s in streams)
    points = []
    for bucket, streams in sorted(buckets.items()):
        model = pooled_model if pooled else build_unigram(streams)
        mean = sum(utterance_information(model, s) for s in streams) / len(streams)
        points.append(InfoCurvePoint(bucket, mean, len(streams)))
    return points
