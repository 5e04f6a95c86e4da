"""Benchmark of phonofold's corpus -> stats/info -> validate/match workflow.

    python3 bench/run.py --workload childes-zipf --seed 1 --seconds 40 --trace 0

Generates the workload's inputs from the seed, then runs rounds until the
given number of seconds has passed. A round runs ``corpus``, ``stats``,
``info``, ``validate`` and ``match`` one after the other, each in a fresh
Python process (a closed loop with one client), and checks every output
against the ground truth. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are end to end: set-up time, throughput or
time and peak RSS per command, medians over the rounds. With ``--trace 1``
each round is run twice, untraced and then with every layer wrapped, and the
metrics are the per-layer self times and counts plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
CHILD_TIMEOUT_S = 120

# Seconds calibrate.py takes on this machine at its usual speed. Each command
# time is scaled by this over the calibration time measured around it in the
# same process, so drift in the shared machine's speed cancels out.
CALIBRATION_REFERENCE_S = 0.1
# Seconds a bare start (Python plus numpy, no phonofold) usually takes here.
# Set-up drifts with process start-up costs rather than with Python's speed,
# so each set-up is scaled by this over a bare start timed just before it.
BARE_START_REFERENCE_S = 0.15
BARE_START = "import time, numpy; print(time.clock_gettime(time.CLOCK_MONOTONIC))"

COMMANDS = ("corpus", "stats", "info", "validate", "match")


def metric_units(kind: str) -> dict[str, str]:
    """Names and units of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def corpus_flags(workload: str) -> list[str]:
    if workload == "phonemized-fold":
        return ["--backend", "passthrough", "--keep_word_boundaries", "--workers", "2"]
    flags = ["--backend", "rules", "--rules", "inputs/rules.rules", "--workers", "1"]
    return flags + (["--sort-by-age"] if workload == "childes-flat" else [])


def commands(workload: str, planted_id: int, one_process: bool) -> dict[str, list[str]]:
    """The argv of each command, relative to the workload's directory."""
    flags = corpus_flags(workload)
    if one_process:
        flags[flags.index("--workers") + 1] = "1"
    inventory = ["--inventory", "inputs/inventories.csv"]
    return {
        "corpus": ["corpus", *flags, "--fold", "inputs/fold.fold"]
        + ["--input", "inputs/corpus.csv", "--output", "out/corpus.csv"],
        "stats": ["stats", "out/corpus.csv", "--json"],
        "info": ["info", "out/corpus.csv", "-o", "out/curve.csv"],
        "validate": ["validate", *inventory, "--inventory-id", str(planted_id)]
        + ["--json", "out/corpus.csv.summary.json"],
        "match": ["match", *inventory, "out/corpus.csv.summary.json", "--top", "3"],
    }


def bare_start_s() -> float:
    """Seconds from starting a fresh Python to having imported numpy, timed like set-up."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", BARE_START],
        capture_output=True,
        text=True,
        check=True,
        timeout=CHILD_TIMEOUT_S,
    )
    return float(proc.stdout) - started


def run_child(workdir: Path, argv, trace: bool = False) -> dict:
    """Run one command in a fresh process; the report gains ``setup_s``."""
    result = workdir / "out" / "child.json"
    result.unlink(missing_ok=True)
    spec = json.dumps({"argv": argv, "trace": trace, "result": str(result)})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    bare = bare_start_s() if argv is not None else None
    with open(workdir / "out" / "stdout", "w") as out, open(workdir / "out" / "stderr", "w") as err:
        started = time.clock_gettime(time.CLOCK_MONOTONIC)
        # Its own session, so that a hung command is killed with any pool workers it started.
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), spec],
            cwd=workdir,
            env=env,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    report = json.loads(result.read_text()) if result.exists() else {}
    report["stdout"] = (workdir / "out" / "stdout").read_text(encoding="utf-8")
    # Exit 1 is a finding the checks judge (row errors, an unclean diff);
    # a crash or a configuration error (exit 2) is a failed command.
    report["failed"] = proc.returncode != 0 or "ready" not in report or report.get("exit", 0) >= 2
    if report["failed"]:
        err_text = (workdir / "out" / "stderr").read_text(encoding="utf-8", errors="replace")
        print(f"{argv}: exit {proc.returncode}\n{err_text[-2000:]}", file=sys.stderr)
    else:
        report["setup_s"] = report["ready"] - started
        report["bare_start_s"] = bare
    return report


class Round:
    """One pass of the five commands, with the checks of their outputs."""

    def __init__(self, workdir: Path, argvs: dict, expected, trace: bool):
        self.reports: dict[str, dict] = {}
        self.problems: list[str] = []
        self.rows_failed = len(expected.rows)
        out = workdir / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        for name in COMMANDS:
            report = self.reports[name] = run_child(workdir, argvs[name], trace)
            if report["failed"]:
                continue  # a failed command is counted, not checked
            if name == "corpus":
                summary = out / "corpus.csv.summary.json"
                counts = json.loads(summary.read_text(encoding="utf-8"))
                self.rows_failed = counts.get("errors", 0) + counts.get("skipped_rows", 0)
                self.problems += expected.check_corpus(out / "corpus.csv", summary)
            elif name == "stats":
                self.problems += expected.check_stats(report["stdout"])
            elif name == "info":
                self.problems += expected.check_info(out / "curve.csv")
            elif name == "validate":
                self.problems += expected.check_validate(report["exit"], report["stdout"])
            else:
                self.problems += expected.check_match(report["stdout"])

    def ok(self, name: str) -> bool:
        return not self.reports[name]["failed"]

    def seconds(self) -> float:
        """Time of the round's commands at reference machine speed."""
        return sum(r["seconds"] * speed(r) for r in self.reports.values() if not r["failed"])


def speed(report: dict) -> float:
    """Reference calibration time over the one measured around this command."""
    return CALIBRATION_REFERENCE_S / statistics.mean(report["calibration_s"])


def median_of(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median_low(values) if values else None


def end_to_end(rounds: list[Round], rows: int) -> tuple[dict[str, float], dict[str, float]]:
    """The metrics at reference machine speed, and the raw medians behind them."""

    def samples(name, key, scaled):
        reports = [r.reports[name] for r in rounds if r.ok(name)]
        return [report[key] * (speed(report) if scaled else 1) for report in reports]

    starts = [r.reports[name] for r in rounds for name in COMMANDS if r.ok(name)]
    raw = {
        "setup_s": median_of(report["setup_s"] for report in starts),
        "bare_start_s": median_of(report["bare_start_s"] for report in starts),
    }
    metrics = {
        "setup_s": median_of(
            report["setup_s"] * BARE_START_REFERENCE_S / report["bare_start_s"] for report in starts
        )
    }
    for scaled, into in ((True, metrics), (False, raw)):
        for name in COMMANDS:
            seconds = median_of(samples(name, "seconds", scaled))
            if name in ("validate", "match") or not scaled:
                into[f"{name}_s"] = seconds
            else:
                into[f"{name}_utt_per_s"] = rows / seconds if seconds else None
    raw["calibration_s"] = median_of(
        s for r in rounds for report in r.reports.values() for s in report.get("calibration_s", ())
    )
    for name in COMMANDS:
        rss = median_of(samples(name, "peak_rss_kb", scaled=False))
        metrics[f"{name}_peak_rss_mb"] = rss / 1024 if rss else None
    return metrics, raw


def per_layer(traced: list[Round], untraced: list[Round], word_types: int, worker_kb) -> dict:
    """Medians over the traced rounds of each layer's total over the round's commands.

    Seconds are scaled to reference machine speed like the end-to-end times.
    """
    totals = []
    for r in traced:
        layers: dict[str, float] = {}
        for report in r.reports.values():
            for key, value in report.get("layers", {}).items():
                value = value * speed(report) if key.endswith("_s") else value
                layers[key] = layers.get(key, 0) + value
        totals.append(layers)
    metrics = {name: median_of(t.get(name, 0) for t in totals) for name in set().union(*totals)}
    words = metrics.get("g2p.words", 0)
    metrics["g2p.words_per_type"] = words / word_types if word_types else 0
    metrics["corpus.worker_peak_rss_mb"] = (worker_kb or 0) / 1024
    metrics["trace.overhead_s"] = median_of(r.seconds() for r in traced) - median_of(
        r.seconds() for r in untraced
    )
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "phonofold" / "cli.py").is_file():
        print(f"error: no phonofold sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    import checks
    import gen

    if args.workload not in gen.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {gen.WORKLOADS}", file=sys.stderr)
        return 2

    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "out").mkdir(parents=True)
    truth = gen.generate(args.workload, args.seed, workdir / "inputs")
    expected = checks.Expected(workdir / "inputs", sort_by_age=args.workload == "childes-flat")
    rows = len(expected.rows)
    trace = bool(args.trace)
    argvs = commands(args.workload, truth["planted_id"], one_process=trace)
    run_child(workdir, None)  # compile bytecode and warm the file cache before timing

    worker_kb = None
    if trace:
        normal = commands(args.workload, truth["planted_id"], one_process=False)["corpus"]
        if normal != argvs["corpus"]:
            worker_kb = run_child(workdir, normal).get("worker_peak_rss_kb")
            shutil.rmtree(workdir / "out")
            (workdir / "out").mkdir()
    untraced: list[Round] = []
    traced: list[Round] = []
    # Whole rounds only, and none that would run past --seconds on the pace so far.
    started = time.perf_counter()
    while True:
        untraced.append(Round(workdir, argvs, expected, trace=False))
        if trace:
            traced.append(Round(workdir, argvs, expected, trace=True))
        elapsed = time.perf_counter() - started
        if elapsed * (len(untraced) + 1) / len(untraced) > args.seconds:
            break
    if trace and worker_kb is None:
        worker_kb = median_of(r.reports["corpus"].get("worker_peak_rss_kb") for r in untraced)

    every = untraced + traced
    problems = [p for r in every for p in r.problems]
    for problem in problems[:10]:
        print(problem, file=sys.stderr)
    commands_failed = sum(not r.ok(name) for r in every for name in COMMANDS)
    rows_failed = sum(r.rows_failed for r in every)
    if trace:
        units = metric_units("per_layer")
        metrics = per_layer(traced, untraced, expected.word_types, worker_kb)
        metrics = {name: metrics.get(name, 0) for name in units}  # a layer not reached reads 0
    else:
        units = metric_units("end_to_end")
        metrics, raw = end_to_end(untraced, rows)
        print("raw medians: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items() if v))
    print(
        f"{args.workload} seed {args.seed}: {len(every)} rounds of {len(COMMANDS)} commands "
        f"and {rows} rows in {time.perf_counter() - started:.1f} s; "
        f"{commands_failed} commands and {rows_failed} rows failed, {len(problems)} check problems"
    )
    for name, unit in units.items():
        print(f"  {name:28} {metrics[name]!s:>22} {unit}")
    result = {
        "correct": not problems,
        "attempted": len(every) * (len(COMMANDS) + rows),
        "failed": commands_failed + rows_failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
