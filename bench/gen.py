"""Seeded inputs for the phonofold benchmark, with the ground truth to check against.

Each workload gets a CHILDES-shaped corpus CSV, the rule and fold files the
``corpus`` command reads, a PHOIBLE-shaped inventory CSV holding one planted
inventory equal to the expected segment set, and ``truth.json``. The same
``--seed`` always gives byte-identical files. Only the stdlib and numpy are
used; nothing is downloaded.

    python3 bench/gen.py --workload childes-zipf --seed 1 --out bench/work/inputs
"""

from __future__ import annotations

import argparse
import csv
import json
from pathlib import Path

import numpy as np

import reference as ref

WORKLOADS = ("childes-zipf", "childes-flat", "phonemized-fold")

# Rows per corpus and inventories per PHOIBLE-shaped file.
ROWS = {"childes-zipf": 6000, "childes-flat": 2000, "phonemized-fold": 3000}
INVENTORIES = {"childes-zipf": 300, "childes-flat": 300, "phonemized-fold": 1000}
ZIPF_TYPES = 3000
ZIPF_EXPONENT = 1.1

FRENCH_RULES = """\
# French-like orthography to IPA
pre:
h -> ∅ / # _
c -> s / _ e
c -> s / _ i
c -> s / _ y
g -> j / _ e
g -> j / _ i
s -> z / a _ a
s -> z / o _ e
e -> ∅ / _ s #
map:
eau -> o
ill -> i j
au -> o
ou -> u
oi -> w a
ai -> ɛ
ei -> ɛ
an -> ɑ̃
am -> ɑ̃
en -> ɑ̃
on -> ɔ̃
in -> ɛ̃
un -> œ̃
ch -> ʃ
tch -> t ʃ
dj -> d ʒ
gn -> ɲ
ph -> f
qu -> k
h -> ∅
é -> e
è -> ɛ
ê -> ɛ
à -> a
ç -> s
a -> a
b -> b
c -> k
d -> d
e -> ə
f -> f
g -> ɡ
i -> i
j -> ʒ
k -> k
l -> l
m -> m
n -> n
o -> ɔ
p -> p
r -> ʁ
s -> s
t -> t
u -> y
v -> v
x -> k s
y -> i
z -> z
post:
ə -> ∅ / _ #
t -> ∅ / _ #
s -> ∅ / _ #
d -> ∅ / _ #
ʁ -> ∅ / e _ #
ɛ -> e / # _
"""

FRENCH_FOLD = """\
# fold French-like output onto the inventory
œ̃ -> ɛ̃
t ʃ -> tʃ
d ʒ -> dʒ
ɲ -> n j
"""

# Orthographic syllable parts; digraphs, accents and context rules all fire.
ONSETS = (
    "b c ch d f g gn j l m n p ph qu r s t v z bl br cr pl tr gr fr dj tch h".split() + [""] * 6
)
NUCLEI = "a a e e é è ê i o ou oi au eau ai u an on in en un y ei".split()
CODAS = [""] * 8 + "r l s t x c ill".split()
PUNCTUATION = (".", "?", "!", ",")
ADULTS = ("MOT", "FAT", "INV")

# An English-like phonemizer target. Each entry is a truth segment.
TRUTH_CONSONANTS = "p b t d k ɡ m n ŋ f v θ ð s z ʃ ʒ h l ɹ j w tʃ dʒ ts".split()
TRUTH_VOWELS = "i ɪ e ɛ æ ɑ ɔ o ʊ u ə ʌ aɪ aʊ ɔɪ eɪ".split()

# The external phonemizer's output differs from the truth in four ways; the
# fold map below undoes each. Rules run in file order.
PHONEMIZER_FOLD = """\
# one-to-one: variant symbols
g -> ɡ
r -> ɹ
iː -> i
uː -> u
ɑː -> ɑ
ɔː -> ɔ
ɐ -> ʌ
ɛː -> ɛ
# merge: split affricates
t ʃ -> tʃ
d ʒ -> dʒ
t s -> ts
# split: fused sequences
ɚ -> ə ɹ
aɪə -> aɪ ə
eɪə -> eɪ ə
# delete: stress and linking marks
ˈ -> ∅
ˌ -> ∅
‿ -> ∅
"""
VARIANTS = {"ɡ": "g", "ɹ": "r", "i": "iː", "u": "uː", "ɑ": "ɑː", "ɔ": "ɔː", "ʌ": "ɐ", "ɛ": "ɛː"}
SPLIT_AFFRICATES = {"tʃ": ("t", "ʃ"), "dʒ": ("d", "ʒ"), "ts": ("t", "s")}
FUSED = {("ə", "ɹ"): "ɚ", ("aɪ", "ə"): "aɪə", ("eɪ", "ə"): "eɪə"}
MARKS = ("ˈ", "ˌ", "‿")

# PHOIBLE-shaped inventory file: fixed columns, then the feature columns.
FEATURES = (
    "tone stress syllabic short long consonantal sonorant continuant delayedRelease "
    "approximant tap trill nasal lateral labial round labiodental coronal anterior "
    "distributed strident dorsal high low front back tense retractedTongueRoot "
    "advancedTongueRoot periodicGlottalSource epilaryngealSource spreadGlottis "
    "constrictedGlottis fortis lenis raisedLarynxEjective loweredLarynxImplosive click"
).split()
POOL_CONSONANTS = (
    "p b t d ʈ ɖ c ɟ k ɡ q ɢ ʔ m ɱ n ɳ ɲ ŋ ɴ ʙ r ʀ ɾ ɽ ɸ β f v θ ð s z ʃ ʒ ʂ ʐ ç ʝ x ɣ χ ʁ ħ ʕ h ɦ "
    "ɬ ɮ ʋ ɹ ɻ j ɰ l ɭ ʎ ʟ w ʍ ts dz tʃ dʒ tɕ dʑ pf kx ɓ ɗ ʄ ɠ ʘ ǀ ǃ ǂ ǁ"
).split()
POOL_VOWELS = "i y ɨ ʉ ɯ u ɪ ʏ ʊ e ø ɘ ɵ ɤ o ə ɛ œ ɜ ɞ ʌ ɔ æ ɐ a ɶ ɑ ɒ".split()
POOL_DIPHTHONGS = "ai au ei ou ia ua ie uo aɪ aʊ ɔɪ eɪ oʊ əʊ ɪə eə ʊə".split()
POOL_TONES = "˥ ˦ ˧ ˨ ˩ ˥˩ ˧˥ ˨˩˦ ˩˧ ˥˧".split()
CONSONANT_MARKS = ("", "ʰ", "ʷ", "ʲ", "ː", "ˀ", "ʼ", "̪")
VOWEL_MARKS = ("", "ː", "̃", "̰", "̤")
FEATURE_CELLS = ("+", "-", "-", "0", "+,-")


def _segment_pool() -> list[str]:
    """About 780 distinct segments, plain ones first (they are the commonest)."""
    pool = POOL_CONSONANTS + POOL_VOWELS + POOL_DIPHTHONGS
    for base, marks in ((POOL_CONSONANTS, CONSONANT_MARKS), (POOL_VOWELS, VOWEL_MARKS)):
        pool += [seg + mark for mark in marks[1:] for seg in base]
    return list(dict.fromkeys(ref.nfd(s) for s in pool + POOL_TONES))


def write_inventories(path: Path, rng, planted: set[str], count: int) -> int:
    """Write ``count`` inventories; one, at a random position, equals ``planted``.

    Returns the planted inventory's id.
    """
    pool = _segment_pool()
    pool += [s for s in sorted(planted) if s not in pool]
    features = {seg: [FEATURE_CELLS[i] for i in rng.integers(0, 5, len(FEATURES))] for seg in pool}
    weights = 1.0 / np.arange(1, len(pool) + 1) ** 0.7
    weights /= weights.sum()
    planted_at = int(rng.integers(0, count))
    planted_id = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        out = csv.writer(handle)
        out.writerow(["InventoryID", "LanguageName", "ISO6393", "Phoneme", "SegmentClass"] + FEATURES)
        for k in range(count):
            inv_id = 1 + 3 * k + int(rng.integers(0, 3))
            if k == planted_at:
                segments, name, planted_id = sorted(planted), "Planted", inv_id
            else:
                size = int(np.clip(rng.normal(36, 12), 8, 120))
                picks = rng.choice(len(pool), size=size, replace=False, p=weights)
                segments = [pool[i] for i in sorted(picks)]
                if set(segments) == planted:
                    segments = segments[1:]
                name = f"Language {inv_id}"
            iso = "".join(chr(97 + int(c)) for c in rng.integers(0, 26, 3))
            for seg in segments:
                out.writerow([inv_id, name, iso, seg, ref.segment_class(seg)] + features[seg])
    return planted_id


def _ages(rng, n_transcripts: int) -> list[str]:
    """One ``Y;MM.DD`` age per transcript between 0 and 6 years; 2% unknown."""
    ages = []
    for _ in range(n_transcripts):
        if rng.random() < 0.02:
            ages.append("")
        else:
            y, m, d = rng.integers(0, 6), rng.integers(0, 12), rng.integers(0, 30)
            ages.append(f"{y};{m:02d}.{d:02d}")
    return ages


def _rows(rng, glosses: list[str]) -> list[dict]:
    """CHILDES columns around the glosses: transcripts, speakers, ages, extras."""
    rows = []
    n = len(glosses)
    sizes = []
    while sum(sizes) < n:
        sizes.append(int(rng.integers(40, 160)))
    ages = _ages(rng, len(sizes))
    roles = rng.choice(["CHI"] + list(ADULTS), size=n, p=[0.3, 0.45, 0.15, 0.1])
    i = 0
    for t, size in enumerate(sizes):
        for _ in range(min(size, n - i)):
            gloss = glosses[i]
            rows.append(
                {
                    "id": f"u{i + 1}",
                    "transcript_id": f"t{t + 1}",
                    "corpus_id": f"c{t % 7 + 1}",
                    "collection_id": "Eng-NA" if t % 3 else "French",
                    "speaker_role": str(roles[i]),
                    "target_child_age": ages[t],
                    "gloss": gloss,
                    "num_tokens": str(len(gloss.split())),
                    "part_of_speech": " ".join(
                        ("n", "v", "det", "adj", "pro")[int(k)]
                        for k in rng.integers(0, 5, len(gloss.split()))
                    ),
                    "media_start": f"{float(rng.random() * 3600):.3f}",
                }
            )
            i += 1
    return rows


def _orthographic_word(rng) -> str:
    syllables = int(rng.choice([1, 1, 2, 2, 2, 3, 3, 4]))
    parts = []
    for _ in range(syllables):
        parts.append(ONSETS[int(rng.integers(len(ONSETS)))])
        parts.append(NUCLEI[int(rng.integers(len(NUCLEI)))])
    parts.append(CODAS[int(rng.integers(len(CODAS)))])
    if rng.random() < 0.3:
        parts.append(("e", "s", "t", "es")[int(rng.integers(4))])
    return "".join(parts)


def _utterance_lengths(rng, n: int) -> np.ndarray:
    return np.clip(rng.poisson(2.6, size=n) + 1, 1, 12)


def _punctuate(rng, words: list[str]) -> str:
    if len(words) > 3 and rng.random() < 0.15:
        words.insert(int(rng.integers(1, len(words))), ",")
    if rng.random() < 0.6:
        words.append(PUNCTUATION[int(rng.integers(0, 3))])
    return " ".join(words)


def zipf_glosses(rng, n: int) -> list[str]:
    """Utterances over a fixed Zipfian vocabulary: most tokens repeat a type."""
    vocabulary: list[str] = []
    seen: set[str] = set()
    while len(vocabulary) < ZIPF_TYPES:
        word = _orthographic_word(rng)
        if word not in seen:
            seen.add(word)
            vocabulary.append(word)
    vocabulary.sort(key=len)  # frequent words are short, as in speech
    p = 1.0 / np.arange(1, ZIPF_TYPES + 1) ** ZIPF_EXPONENT
    p /= p.sum()
    return [
        _punctuate(rng, [vocabulary[int(k)] for k in rng.choice(ZIPF_TYPES, size=length, p=p)])
        for length in _utterance_lengths(rng, n)
    ]


def flat_glosses(rng, n: int) -> list[str]:
    """Utterances whose words are drawn fresh, so types are about tokens."""
    return [
        _punctuate(rng, [_orthographic_word(rng) + _orthographic_word(rng) for _ in range(length)])
        for length in _utterance_lengths(rng, n)
    ]


def _truth_word(rng, merges: set[tuple[str, str]]) -> tuple[str, ...]:
    """A truth word with no adjacent pair that a fold merge would join."""
    while True:
        word = []
        for _ in range(int(rng.integers(1, 4))):
            if rng.random() < 0.8:
                word.append(TRUTH_CONSONANTS[int(rng.integers(len(TRUTH_CONSONANTS)))])
            word.append(TRUTH_VOWELS[int(rng.integers(len(TRUTH_VOWELS)))])
            if rng.random() < 0.3:
                word.append(TRUTH_CONSONANTS[int(rng.integers(len(TRUTH_CONSONANTS)))])
        if not any(pair in merges for pair in zip(word, word[1:])):
            return tuple(word)


def _perturb(rng, word: tuple[str, ...]) -> list[str]:
    """Phonemizer-shaped tokens for a truth word (split, variant, fused, marked)."""
    out: list[str] = []
    i = 0
    while i < len(word):
        seg = word[i]
        if rng.random() < 0.25:
            out.append(MARKS[int(rng.integers(len(MARKS)))])
        fused = FUSED.get(tuple(word[i : i + 2]))
        if fused and rng.random() < 0.7:
            out.append(fused)
            i += 2
            continue
        if seg in SPLIT_AFFRICATES:
            out += SPLIT_AFFRICATES[seg]
        elif seg in VARIANTS and rng.random() < 0.6:
            out.append(VARIANTS[seg])
        else:
            out.append(seg)
        i += 1
    return out


def phonemized_glosses(rng, n: int) -> tuple[list[str], list[str]]:
    """Phonemizer-shaped glosses and, by construction, their folded truth."""
    fold = ref.parse_fold(PHONEMIZER_FOLD)
    merges = {r.target for r in fold if len(r.target) == 2}
    glosses, truth = [], []
    for length in _utterance_lengths(rng, n):
        words = [_truth_word(rng, merges) for _ in range(length)]
        tokens = []
        for word in words:
            perturbed = _perturb(rng, word)
            if ref.fold_word(fold, tuple(perturbed)) != word:
                perturbed = list(word)  # keep the truth exact when a perturbation is ambiguous
            tokens.append(" ".join(perturbed))
        glosses.append(f" {ref.WORD_BOUNDARY} ".join(tokens))
        truth.append(ref.emit(words, keep_word_boundaries=True))
    return glosses, truth


def generate(workload: str, seed: int, out: Path) -> dict:
    """Write one workload's inputs under ``out`` and return its ground truth."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    out.mkdir(parents=True, exist_ok=True)
    n = ROWS[workload]
    if workload == "phonemized-fold":
        glosses, expected = phonemized_glosses(rng, n)
        rules_text, fold_text, types = "", PHONEMIZER_FOLD, 0
    else:
        make = zipf_glosses if workload == "childes-zipf" else flat_glosses
        glosses = make(rng, n)
        rules_text, fold_text = FRENCH_RULES, FRENCH_FOLD
        expected, unmapped, types = ref.convert_rows(
            glosses, ref.Grammar(rules_text), ref.parse_fold(fold_text)
        )
        if unmapped:
            raise ValueError(f"generated words use unmapped characters {sorted(unmapped)}")
    rows = _rows(rng, glosses)
    with open(out / "corpus.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    if rules_text:
        (out / "rules.rules").write_text(rules_text, encoding="utf-8")
    (out / "fold.fold").write_text(fold_text, encoding="utf-8")
    observed = {s for cell in expected for s in ref.segments_of(cell)}
    planted_id = write_inventories(out / "inventories.csv", rng, observed, INVENTORIES[workload])
    truth = {
        "workload": workload,
        "seed": seed,
        "word_types": types,
        "phonemized": expected,
        "planted_id": planted_id,
    }
    (out / "truth.json").write_text(json.dumps(truth, ensure_ascii=False), encoding="utf-8")
    return truth


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    truth = generate(args.workload, args.seed, args.out)
    print(f"{args.out}: {ROWS[args.workload]} rows, planted inventory {truth['planted_id']}")


if __name__ == "__main__":
    main()
