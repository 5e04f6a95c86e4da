"""A fixed pure-Python workload that tells how fast this machine runs Python right now.

The shared machine's speed drifts by tens of percent within minutes, and
every command slows with it. Each command's process therefore times this
workload just before and just after the command, and the benchmark scales
the command's time by the reference speed over the speed measured then.

The work mixes what phonofold spends its time on: CSV parsing, Unicode
normalisation, string splitting and dict counting. It keeps little in memory,
so it does not move the process's peak RSS, and it imports nothing from
phonofold, so a change to the program cannot move it.

    python3 bench/calibrate.py      # prints the seconds of one pass
"""

import csv
import time
import unicodedata
from collections import Counter

ROWS = 12000
SYLLABLES = ("tʃa", "ʁə", "ɛ̃", "bo", "ʒu", "pa", "ɲi", "dʒe", "kʰo", "ɔ̃")


def _lines():
    yield "id,age,gloss,phonemized"
    for i in range(ROWS):
        words = " ".join(SYLLABLES[(i * 7 + k * 3) % len(SYLLABLES)] * (1 + k % 3) for k in range(5))
        yield f"u{i},{i % 72};{i % 12:02d}.{i % 30:02d},{words},{words}"


def seconds() -> float:
    """Wall time of one pass of the workload."""
    start = time.perf_counter()
    counts: Counter = Counter()
    for row in csv.DictReader(_lines()):
        counts.update(unicodedata.normalize("NFD", t) for t in row["phonemized"].split())
        counts[row["age"]] += len(row["gloss"])
    return time.perf_counter() - start


if __name__ == "__main__":
    print(seconds())
