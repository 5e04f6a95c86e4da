"""The oldest interpreter pyproject.toml supports writes the same outputs as this one.

Rule patterns (lookbehinds, ``\\A``/``\\Z`` anchors) and the csv module differ
between interpreter versions, so ``corpus``, a folding ``convert``, the
commands that read a converted corpus CSV and an inventory error's line number
run under both, and their outputs are compared byte for byte. The tests skip
when no such interpreter starts.

Since Python 3.12 ``sum`` of floats is compensated, so the newest pyenv
interpreter that starts checks that ``info_by_age``, which adds each
utterance's costs left to right, still equals the stream path to the bit.

Under both, importing the package and a ``stats`` run leave ``dataclasses`` and
``inspect`` unloaded, as under this interpreter.
"""

import csv
import glob
import json
import os
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
OLDEST = re.search(
    r'requires-python = ">=(\d+\.\d+)"', (ROOT / "pyproject.toml").read_text(encoding="utf-8")
).group(1)
MAIN = "import sys; from phonofold.cli import main; sys.exit(main(sys.argv[1:]))"
SYLLABLES = ["ha", "ce", "ci", "cha", "dja", "ge", "sa", "xa", "ou", "ai", "è", "é", "ro", "ti"]
SYLLABLES += ["nes", "es", "ler", "ka", "ki", "lo", "(", "."]
COLUMNS = ["speaker_role", "target_child_age", "gloss"]


def _starts(python: str, version: str = OLDEST) -> bool:
    try:
        proc = subprocess.run(
            [python, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
            capture_output=True,
            text=True,
            timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return False
    return proc.returncode == 0 and proc.stdout.strip() == version


def pyenv_pythons(version: str) -> list[str]:
    """The ``bin/python`` of each ``$(pyenv root)/versions/<version>``, a glob pattern."""
    pyenv = shutil.which("pyenv")
    if not pyenv:
        return []
    root = subprocess.run([pyenv, "root"], capture_output=True, text=True, timeout=60)
    if root.returncode != 0 or not root.stdout.strip():
        return []
    pattern = os.path.join(root.stdout.strip(), "versions", version, "bin", "python")
    return sorted(glob.glob(pattern))


def oldest_python() -> str | None:
    """A ``pythonX.Y`` on PATH that starts, else one under ``$(pyenv root)/versions``."""
    candidates = [shutil.which(f"python{OLDEST}"), *pyenv_pythons(f"{OLDEST}.*")]
    return next((c for c in candidates if c and _starts(c)), None)


def newest_python() -> str | None:
    """The pyenv ``3.X.Y`` interpreter of the highest version that starts."""

    def version(python: str) -> tuple[int, ...]:
        name = Path(python).parents[1].name
        return tuple(map(int, name.split("."))) if re.fullmatch(r"3\.\d+\.\d+", name) else ()

    candidates = sorted((p for p in pyenv_pythons("3.*") if version(p)), key=version, reverse=True)
    return next((p for p in candidates if _starts(p, "%d.%d" % version(p)[:2])), None)


def write_corpus(path: Path) -> None:
    rng = random.Random(18)
    with path.open("w", encoding="utf-8", newline="") as handle:
        out = csv.writer(handle)
        out.writerow(["id", "transcript_id", "corpus_id", "collection_id"] + COLUMNS)
        for i in range(400):
            words = ("".join(rng.choices(SYLLABLES, k=rng.randint(1, 3))) for _ in range(4))
            age = f"{rng.randint(12, 48)}.0"
            role = rng.choice(["MOT", "CHI"])
            out.writerow([f"u{i}", "t1", "c1", "col1", role, age, " ".join(words)])


def run_cli(python: str, *argv: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([python, "-c", MAIN, *argv], env=env, capture_output=True, timeout=300)


def run_corpus(python: str, corpus: Path, out: Path, workers: str = "1") -> tuple[bytes, bytes]:
    """The corpus CSV and the summary JSON without ``seconds``, as bytes."""
    fixtures = ROOT / "tests" / "fixtures"
    argv = ["corpus", "--backend", "rules", "--rules", str(fixtures / "anchored.rules")]
    argv += ["--fold", str(fixtures / "french.fold"), "--workers", workers]
    proc = run_cli(python, *argv, "--input", str(corpus), "--output", str(out))
    assert proc.returncode == 0, proc.stderr.decode()
    summary = json.loads(Path(f"{out}.summary.json").read_text(encoding="utf-8"))
    summary.pop("seconds")
    return out.read_bytes(), json.dumps(summary).encode()


def test_corpus_csv_is_the_same_under_the_oldest_supported_python(tmp_path):
    python = oldest_python()
    if python is None:
        pytest.skip(f"no Python {OLDEST} interpreter starts here")
    corpus = tmp_path / "corpus.csv"
    write_corpus(corpus)
    oldest = run_corpus(python, corpus, tmp_path / "oldest.csv")
    current = run_corpus(sys.executable, corpus, tmp_path / "current.csv")
    assert oldest == current
    # Two workers start the pool, which the corpus module imports on first use.
    assert run_corpus(python, corpus, tmp_path / "oldest_w2.csv", "2") == oldest


def run_convert(python: str) -> tuple[int, bytes]:
    """Fold already-phonemized lines: french.fold's two one-token rules are one dict pass."""
    fixtures = ROOT / "tests" / "fixtures"
    argv = ["convert", "--backend", "passthrough", "--keep_word_boundaries"]
    argv += ["--fold", str(fixtures / "french.fold"), str(fixtures / "french_backend_output.txt")]
    proc = run_cli(python, *argv)
    return proc.returncode, proc.stdout


def test_folded_convert_output_is_the_same_under_the_oldest_supported_python():
    python = oldest_python()
    if python is None:
        pytest.skip(f"no Python {OLDEST} interpreter starts here")
    oldest = run_convert(python)
    assert oldest == run_convert(sys.executable)
    assert oldest[0] == 0 and oldest[1]


def run_readers(python: str, converted: Path) -> list[tuple[int, bytes]]:
    """Exit code and stdout of each command that reads a converted corpus CSV."""
    inventory = ["--inventory", str(ROOT / "tests" / "fixtures" / "french_inventory.csv")]
    argvs = [
        ["stats", "--json", str(converted)],
        ["info", str(converted)],
        ["info", "--per-bucket", str(converted)],
        ["info", "--sample-size", "2", "--seed", "3", str(converted)],
        ["validate", "--json", *inventory, "--inventory-id", "2269", str(converted)],
        ["match", "--top", "3", *inventory, str(converted)],
    ]
    return [(proc.returncode, proc.stdout) for proc in (run_cli(python, *a) for a in argvs)]


def test_readers_of_a_converted_corpus_are_the_same_under_the_oldest_supported_python(tmp_path):
    python = oldest_python()
    if python is None:
        pytest.skip(f"no Python {OLDEST} interpreter starts here")
    corpus = tmp_path / "corpus.csv"
    write_corpus(corpus)
    converted = tmp_path / "converted.csv"
    run_corpus(sys.executable, corpus, converted)
    oldest = run_readers(python, converted)
    assert oldest == run_readers(sys.executable, converted)
    assert [code for code, _ in oldest] == [0, 0, 0, 0, 1, 0]  # validate: the map leaves unknowns
    assert all(out for _, out in oldest)


def test_an_inventory_error_names_the_same_line_under_the_oldest_supported_python(tmp_path):
    """The id after two records that each span two lines is on line 6."""
    python = oldest_python()
    if python is None:
        pytest.skip(f"no Python {OLDEST} interpreter starts here")
    record = '{},Toy,qaa,a,vowel,"+\n"\n'
    inventory = tmp_path / "inventory.csv"
    inventory.write_text(
        "InventoryID,LanguageName,ISO6393,Phoneme,SegmentClass,syllabic\n"
        + record.format(1)
        + record.format(2)
        + "x1,Toy,qaa,b,vowel,+\n",
        encoding="utf-8",
    )
    observed = tmp_path / "observed.txt"
    observed.write_text("a\n", encoding="utf-8")
    argv = ["validate", "--json", "--inventory", str(inventory), "--inventory-id", "1"]
    oldest, current = (run_cli(p, *argv, str(observed)) for p in (python, sys.executable))
    assert (oldest.returncode, oldest.stderr) == (current.returncode, current.stderr)
    message = f"error: {inventory}: line 6: bad InventoryID 'x1'\n"
    assert (oldest.returncode, oldest.stderr.decode()) == (2, message)


# Imports the package, runs stats and prints which of the class-building modules loaded.
GUARD = """
import sys, phonofold, phonofold.cli
code = phonofold.cli.main(sys.argv[1:])
print(code, [m for m in ("dataclasses", "inspect") if m in sys.modules], file=sys.stderr)
"""


@pytest.mark.parametrize("find", [oldest_python, newest_python], ids=["oldest", "newest"])
def test_no_class_building_module_loads_under_the_oldest_and_newest_python(find):
    python = find()
    if python is None:
        pytest.skip("no such interpreter starts here")
    observed = str(ROOT / "tests" / "fixtures" / "french_backend_output.txt")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [python, "-c", GUARD, "stats", "--json", observed],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert (proc.returncode, proc.stderr) == (0, "0 []\n") and proc.stdout


# Prints each info_by_age curve and the stream path's, as [bucket, mean.hex(), n] rows.
INFO_CHECK = """
import json, sys
from phonofold import analysis, corpus
from stream_oracle import stream_info_by_age
records = [r for r in corpus.read_corpus(sys.argv[1]) if not r.is_child]
runs = []
for pooled in (True, False):
    for sample_size, seed in ((None, None), (2, 3), (50, 1)):
        kwargs = dict(pooled=pooled, sample_size=sample_size, seed=seed)
        curves = (f(records, **kwargs) for f in (analysis.info_by_age, stream_info_by_age))
        runs.append([[[p.age_bucket, p.mean_information.hex(), p.n_utterances] for p in curve]
                     for curve in curves])
print(json.dumps(runs))
"""


def test_info_by_age_equals_the_stream_path_under_the_newest_python(tmp_path):
    python = newest_python()
    if python is None:
        pytest.skip("no pyenv Python 3 interpreter starts here")
    corpus = tmp_path / "corpus.csv"
    write_corpus(corpus)
    converted = tmp_path / "converted.csv"
    run_corpus(sys.executable, corpus, converted)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")]))
    proc = subprocess.run(
        [python, "-c", INFO_CHECK, str(converted)], env=env, capture_output=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr.decode()
    for new, oracle in json.loads(proc.stdout):
        assert new == oracle and new
