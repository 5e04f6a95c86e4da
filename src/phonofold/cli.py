"""Command-line interface.

Subcommands: convert, validate, match, corpus, stats, info, check-map,
suggest. Options can come from a key=value config file (--config), with
command-line flags taking precedence. PHONOFOLD_INVENTORY sets the default
inventory CSV path. ``main`` is the one place that turns an error into an
exit code: 2 for a bad flag, value or file (one that cannot be opened, read,
written, decoded as UTF-8 or parsed), 1 for any other toolkit error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import stat
import sys
import time
from pathlib import Path

from . import analysis, corpus, folding, g2p, inventory
from .errors import ConfigError, FormatError, PhonofoldError
from .stream import IpaSegment, as_segments, atomic_paths, column_positions, content_lines
from .stream import csv_rows, open_text, parse_stream, read_text, segment_types

INVENTORY_ENV = "PHONOFOLD_INVENTORY"

BACKEND_KINDS = ("rules", "lexicon", "syllabary", "passthrough")


def _words(text: str) -> list[str]:
    return text.replace(",", " ").split()


# Each config-file key, once: the parser of its file value and its default.
# An option the command line leaves None takes the file's value, else the
# default; the inventory default is $PHONOFOLD_INVENTORY.
OPTIONS = {
    "backend": (str, None),
    "rules": (str, None),
    "lexicon": (str, None),
    "table": (str, None),
    "fold": (str, None),
    "inventory": (str, None),
    "inventory_id": (int, None),
    "keep_word_boundaries": (corpus.is_true, False),
    "uncorrected": (corpus.is_true, False),
    "split_tones": (corpus.is_true, False),
    "workers": (int, 1),
    "seed": (int, None),
    "child_role": (str, corpus.CHILD_ROLE),
    "allow": (_words, ()),
}


def load_config_file(path) -> dict:
    """Parsed values of a key = value config file; # starts a comment line.

    ``schema.FIELD = COLUMN`` lines gather under "schema" as ``--schema`` values.
    """
    text = read_text(path)
    values: dict = {}
    for line_num, raw in content_lines(text):
        key, sep, value = (part.strip() for part in raw.partition("="))
        value = value.strip("\"'")
        where = f"{path}: line {line_num}"
        if not sep:
            raise ConfigError(f"{where}: expected key = value")
        if key.startswith("schema."):
            values.setdefault("schema", []).append(f"{key.removeprefix('schema.')}={value}")
        elif key not in OPTIONS:
            raise ConfigError(f"{where}: unknown key {key!r}")
        else:
            try:
                values[key] = OPTIONS[key][0](value)
            except ValueError:
                raise ConfigError(f"{where}: {key}: bad value {value!r}") from None
    return values


def fill_options(args) -> None:
    """Set each option the command line left None from the --config file, else its default.

    ``args.schema`` becomes the default schema with the file's, then the flags', fields set.
    """
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    for key, (_, default) in OPTIONS.items():
        if getattr(args, key, None) is None:
            setattr(args, key, file_values.get(key, default))
    if args.inventory is None:
        args.inventory = os.environ.get(INVENTORY_ENV)
    overrides = file_values.get("schema", []) + (getattr(args, "schema", None) or [])
    args.schema = dict(corpus.DEFAULT_SCHEMA)
    for override in overrides:
        if "=" not in override:
            raise ConfigError(f"--schema expects field=column, got {override!r}")
        canonical, source_col = (part.strip() for part in override.split("=", 1))
        if canonical not in corpus.DEFAULT_SCHEMA:
            raise ConfigError(f"unknown schema field {canonical!r}")
        args.schema[canonical] = source_col
    if args.split_tones and args.backend != "syllabary":
        raise ConfigError("--split-tones is only valid for the syllabary backend")
    if args.workers < 1:
        raise ConfigError("workers must be >= 1")


def build_backend(args):
    if args.backend is None:
        raise ConfigError("no backend selected (use --backend)")
    if args.backend not in BACKEND_KINDS:
        raise ConfigError(f"unknown backend {args.backend!r}; choose from {BACKEND_KINDS}")
    if args.backend == "rules":
        if not args.rules:
            raise ConfigError("rules backend needs --rules FILE")
        return g2p.RulesBackend(g2p.load_rule_file(args.rules))
    if args.backend == "lexicon":
        if not args.lexicon:
            raise ConfigError("lexicon backend needs --lexicon FILE")
        fallback = g2p.load_rule_file(args.rules) if args.rules else None
        return g2p.LexiconBackend(g2p.load_lexicon(args.lexicon), fallback)
    if args.backend == "syllabary":
        if not args.table:
            raise ConfigError("syllabary backend needs --table FILE")
        return g2p.SyllabaryBackend(
            g2p.load_syllable_table(args.table), split_tones=args.split_tones
        )
    return g2p.PassthroughBackend()


def _load_fold(args) -> folding.FoldMap | None:
    if args.uncorrected:
        return None
    if not args.fold:
        raise ConfigError("a fold map is required unless --uncorrected is set")
    return folding.load_fold_map(args.fold)


def _load_inventory(args) -> inventory.Inventory:
    inventories = _load_inventories(args)
    if args.inventory_id is None:
        raise ConfigError("an inventory id is required (use --inventory-id)")
    for inv in inventories:
        if inv.id == args.inventory_id:
            return inv
    raise ConfigError(f"inventory id {args.inventory_id} not found in {args.inventory}")


def _load_inventories(args) -> list[inventory.Inventory]:
    if not args.inventory:
        raise ConfigError(f"no inventory file (use --inventory or ${INVENTORY_ENV})")
    inventories = inventory.load_inventories(args.inventory)
    if not inventories:
        raise ConfigError(f"no inventories in {args.inventory}")
    return inventories


def _check_phonemized(path, header) -> int:
    """The index of a CSV header's last phonemized column; a ConfigError if none (or no header)."""
    if header is None or corpus.PHONEMIZED not in header:
        raise ConfigError(f"{path}: no phonemized column to read segments from")
    return column_positions(header)[corpus.PHONEMIZED]


def _input_streams(path: str):
    """``parse_stream`` of each line of a text file, or of each ``phonemized`` cell of a CSV;
    a token that is not a segment is a FormatError naming the file and line."""
    with open_text(path) as handle:
        if Path(path).suffix.lower() != ".csv":
            cells = enumerate(handle, start=1)
        else:
            reader = csv.reader(handle)
            rows = csv_rows(reader, path)
            at = _check_phonemized(path, next(rows, None))
            cells = ((reader.line_num, row[at] if at < len(row) else "") for row in rows)
        for line_num, cell in cells:
            try:
                stream = parse_stream(cell)
            except ValueError as exc:
                raise FormatError(str(exc), source=path, line=line_num) from None
            yield stream


def _read_observed(path: str) -> set[IpaSegment]:
    """Observed segment set from a summary JSON, or from the streams of any other file."""
    if Path(path).suffix.lower() != ".json":
        return {segment for stream in _input_streams(path) for segment in segment_types(stream)}
    with open_text(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not JSON: {exc.msg}", source=path, line=exc.lineno) from None
    segments = payload.get("observed_segments") if isinstance(payload, dict) else payload
    if not isinstance(segments, list) or not all(isinstance(s, str) for s in segments):
        raise FormatError("expected observed_segments: a list of strings", source=path)
    return set(as_segments(segments, path, None))


def _refuse_file_at(source, flag: str, path, what: str = "the input file") -> None:
    """A ConfigError when path, the value of flag, is the regular file at source.

    source is a path, or an open handle matched through a link or a < redirect; a handle
    with no file descriptor matches nothing. Two paths to one new file match.
    """
    try:
        opened = os.fstat(source.fileno()) if hasattr(source, "read") else os.stat(source)
        same = stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, os.stat(path))
    except (OSError, ValueError):  # no file at a path, or no descriptor behind the handle
        same = isinstance(source, str) and os.path.realpath(source) == os.path.realpath(path)
    if same:
        raise ConfigError(f"{flag} {path} is {what}")


def cmd_convert(args) -> int:
    backend = build_backend(args)
    fold_map = _load_fold(args)
    had_error = False
    source = sys.stdin if args.input in (None, "-") else args.input
    sink = sys.stdout if args.output in (None, "-") else args.output
    with open_text(source) as lines:
        if sink is not sys.stdout:
            _refuse_file_at(lines, "--output", sink)
        with atomic_paths(sink) as (temp,), open_text(temp, "w") as out_handle:
            for line_num, line in enumerate(lines, start=1):
                if line_num == 1 and source is sys.stdin:  # open_text drops a path's BOM
                    line = line.removeprefix("\ufeff")
                phonemized, error, *_ = corpus.convert_text(
                    line.rstrip("\n"), backend, fold_map, args.keep_word_boundaries
                )
                if error:
                    print(f"line {line_num}: {error}", file=sys.stderr)
                    had_error = True
                print(phonemized, file=out_handle)
    return 1 if had_error else 0


def cmd_validate(args) -> int:
    allow = set(as_segments(args.allow, "allow", None))
    inv = _load_inventory(args)
    observed = _read_observed(args.observed)
    report = folding.diff_inventory(observed, inv)
    suggestions = folding.suggest_mappings(report, inv)
    if args.json:
        print(json.dumps(folding.diff_to_json(report, suggestions), ensure_ascii=False, indent=2))
    else:
        print(folding.diff_to_text(report, suggestions))
    return 0 if not (report.unknown - allow) and not (report.unseen - allow) else 1


def cmd_match(args) -> int:
    if args.top < 1:
        raise ConfigError("top must be >= 1")
    inventories = _load_inventories(args)
    observed = _read_observed(args.observed)
    ranking = inventory.best_match(observed, inventories)
    for rank, (inv, score) in enumerate(ranking[: args.top], start=1):
        print(f"{rank}\t{inv.id}\t{inv.language_name}\tL1={score}")
    return 0


def cmd_corpus(args) -> int:
    backend = build_backend(args)
    fold_map = _load_fold(args)
    summary_path = args.summary or (args.output + ".summary.json")
    _refuse_file_at(args.input, "--output", args.output)
    _refuse_file_at(args.input, "--summary", summary_path)
    _refuse_file_at(args.output, "--summary", summary_path, "the --output file")
    with atomic_paths(args.output, summary_path) as (output_temp, summary_temp):
        skipped: list = []  # (line number, problem) of each row the read skipped
        records = list(corpus.read_corpus(args.input, args.schema, args.child_role, skipped))
        started = time.perf_counter()
        converted, summary = corpus.convert_corpus(
            records,
            backend,
            fold_map=fold_map,
            keep_word_boundaries=args.keep_word_boundaries,
            uncorrected=args.uncorrected,
            workers=args.workers,
        )
        elapsed = time.perf_counter() - started
        if args.sort_by_age:
            converted = corpus.sort_by_age(converted)
        payload = summary.to_json()
        payload["skipped_rows"] = len(skipped)
        payload["seconds"] = round(elapsed, 3)
        corpus.write_corpus(converted, output_temp, schema=args.schema)
        with open_text(summary_temp, "w") as handle:
            json.dump(payload, handle, ensure_ascii=False, indent=2)
    for line_num, problem in skipped:
        print(f"line {line_num}: {problem}", file=sys.stderr)
    print(f"{summary.rows} rows, {summary.errors} errors, {len(skipped)} skipped", file=sys.stderr)
    return 1 if summary.errors or skipped else 0


def cmd_stats(args) -> int:
    counts = analysis.frequency_table(_input_streams(args.input))
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if args.json:
        print(json.dumps({seg: n for seg, n in ordered}, ensure_ascii=False, indent=2))
    else:
        width = max((len(seg) for seg, _ in ordered), default=1)
        for seg, n in ordered:
            print(f"{seg:<{width}}  {n}")
    return 0


def cmd_info(args) -> int:
    if args.sample_size is not None and args.sample_size < 1:
        raise ConfigError("sample-size must be >= 1")
    sink = sys.stdout if args.output in (None, "-") else args.output
    if sink is not sys.stdout:
        _refuse_file_at(args.input, "--output", sink)
    with atomic_paths(sink) as (temp,), open_text(temp, "w") as out_handle:
        skipped: list = []
        with open_text(args.input) as handle:  # opened once, so that a pipe can be read
            records = corpus._read(handle, args.input, args.schema, args.child_role, skipped)
            _check_phonemized(args.input, next(records))
            try:
                points = analysis.info_by_age(
                    (r for r in records if not r.is_child),
                    pooled=not args.per_bucket, sample_size=args.sample_size, seed=args.seed,
                )
            except ValueError as exc:  # a token that is not a segment; a bad read raises as is
                if isinstance(exc, (PhonofoldError, UnicodeDecodeError)):
                    raise
                raise FormatError(str(exc), source=args.input) from None
        for line_num, problem in skipped:
            print(f"line {line_num}: {problem}", file=sys.stderr)
        for row in analysis.curve_rows(points):
            print(",".join(str(v) for v in row), file=out_handle)
    return 0


def cmd_check_map(args) -> int:
    fold_map = folding.load_fold_map(args.map)
    diagnostics = folding.check_fold_map(fold_map)
    for diagnostic in diagnostics:
        print(diagnostic)
    return 1 if diagnostics else 0


def cmd_suggest(args) -> int:
    """``validate --json``, exiting 0 whatever the diff holds."""
    args.json = True
    cmd_validate(args)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phonofold", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # Flag groups, each registered only on the commands that read it.
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="key=value config file; flags override it")
    inventories = argparse.ArgumentParser(add_help=False, parents=[config])
    inventories.add_argument("--inventory", help=f"inventory CSV (default ${INVENTORY_ENV})")
    one_inventory = argparse.ArgumentParser(add_help=False, parents=[inventories])
    one_inventory.add_argument("--inventory-id", dest="inventory_id", type=int)
    rows = argparse.ArgumentParser(add_help=False)
    rows.add_argument("--schema", action="append", metavar="FIELD=COLUMN")
    rows.add_argument("--child-role", dest="child_role")
    backend = argparse.ArgumentParser(add_help=False, parents=[config])
    backend.add_argument("--backend", choices=BACKEND_KINDS)
    backend.add_argument("--rules", help="rule file (rules backend, or lexicon fallback)")
    backend.add_argument("--lexicon", help="lexicon file")
    backend.add_argument("--table", help="syllable table file")
    backend.add_argument("--fold", help="folding map file")
    backend.add_argument("--keep_word_boundaries", action="store_true", default=None)
    backend.add_argument("--uncorrected", action="store_true", default=None)
    backend.add_argument("--split-tones", dest="split_tones", action="store_true", default=None)

    p = sub.add_parser("convert", parents=[backend], help="convert text lines to phoneme streams")
    p.add_argument("input", nargs="?", default="-", help="input file or - for stdin")
    p.add_argument("--output", "-o", help="output file (default stdout)")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser(
        "validate", parents=[one_inventory], help="diff observed segments against an inventory"
    )
    p.add_argument("observed", help="summary JSON, corpus CSV, or phoneme-stream text")
    p.add_argument(
        "--allow", type=_words, help="segments excused from the diff (space/comma separated)"
    )
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser(
        "match", parents=[inventories], help="rank inventories against observed segments"
    )
    p.add_argument("observed")
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("corpus", parents=[backend, rows], help="convert a corpus CSV end to end")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--summary", help="summary JSON path (default OUTPUT.summary.json)")
    p.add_argument("--workers", type=int)
    p.add_argument("--sort-by-age", dest="sort_by_age", action="store_true")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("stats", parents=[config], help="phoneme frequency table")
    p.add_argument("input", help="corpus CSV (its phonemized column) or phoneme-stream text")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "info", parents=[config, rows], help="mean utterance information by age bucket"
    )
    p.add_argument("input", help="converted corpus CSV")
    p.add_argument("--output", "-o")
    p.add_argument("--sample-size", dest="sample_size", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--per-bucket", dest="per_bucket", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("check-map", help="well-formedness diagnostics for a fold map")
    p.add_argument("map")
    p.set_defaults(func=cmd_check_map)

    p = sub.add_parser(
        "suggest", parents=[one_inventory], help="diff plus candidate mappings, as JSON"
    )
    p.add_argument("observed")
    p.set_defaults(func=cmd_suggest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        fill_options(args)
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader stopped early (``| head``); send what is left to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (PhonofoldError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, FormatError, OSError)) else 1


if __name__ == "__main__":
    sys.exit(main())
