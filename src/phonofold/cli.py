"""Command-line interface.

Subcommands: convert, validate, match, corpus, stats, info, check-map,
suggest. Options can come from a key=value config file (--config), with
command-line flags taking precedence. PHONOFOLD_INVENTORY sets the default
inventory CSV path.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import analysis, corpus, folding, g2p, inventory
from .errors import ConfigError, FormatError, PhonofoldError
from .stream import IpaSegment, as_segments, open_text, parse_stream, segment_types

INVENTORY_ENV = "PHONOFOLD_INVENTORY"

BACKEND_KINDS = ("rules", "lexicon", "syllabary", "passthrough")

_CONFIG_KEYS = {
    "backend",
    "rules",
    "lexicon",
    "table",
    "fold",
    "inventory",
    "inventory_id",
    "keep_word_boundaries",
    "uncorrected",
    "split_tones",
    "workers",
    "seed",
    "child_role",
    "allow",
}


@dataclass
class RunConfig:
    backend: str | None = None
    rules: str | None = None
    lexicon: str | None = None
    table: str | None = None
    fold: str | None = None
    inventory: str | None = None
    inventory_id: int | None = None
    keep_word_boundaries: bool = False
    uncorrected: bool = False
    split_tones: bool = False
    workers: int = 1
    seed: int | None = None
    child_role: str = "CHI"
    allow: list[str] = field(default_factory=list)
    schema: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.split_tones and self.backend != "syllabary":
            raise ConfigError("--split-tones is only valid for the syllabary backend")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


def load_config_file(path) -> dict:
    """Read a key=value config file; # starts a comment line."""
    values: dict = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    for line_num, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {line_num}: expected key = value")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS and not key.startswith("schema."):
            raise ConfigError(f"{path}: line {line_num}: unknown key {key!r}")
        values[key] = value.strip("\"'")
    return values


def _as_bool(value) -> bool:
    if isinstance(value, bool):
        return value
    return str(value).strip().lower() in ("true", "1", "yes", "on")


def build_run_config(args) -> RunConfig:
    file_values = load_config_file(args.config) if getattr(args, "config", None) else {}
    cfg = RunConfig()

    def pick(key, convert=lambda v: v, default=None):
        arg_value = getattr(args, key, None)
        if arg_value not in (None, False, []):
            return arg_value
        if key in file_values:
            return convert(file_values[key])
        return default

    cfg.backend = pick("backend")
    cfg.rules = pick("rules")
    cfg.lexicon = pick("lexicon")
    cfg.table = pick("table")
    cfg.fold = pick("fold")
    cfg.inventory = pick("inventory", default=os.environ.get(INVENTORY_ENV))
    cfg.inventory_id = pick("inventory_id", convert=int)
    cfg.keep_word_boundaries = _as_bool(pick("keep_word_boundaries", _as_bool, False))
    cfg.uncorrected = _as_bool(pick("uncorrected", _as_bool, False))
    cfg.split_tones = _as_bool(pick("split_tones", _as_bool, False))
    cfg.workers = int(pick("workers", int, 1) or 1)
    seed = pick("seed", int)
    cfg.seed = int(seed) if seed is not None else None
    cfg.child_role = pick("child_role", default="CHI") or "CHI"
    allow = pick("allow", default=[])
    if isinstance(allow, str):
        allow = allow.replace(",", " ").split()
    cfg.allow = list(allow)
    cfg.schema = {
        key.removeprefix("schema."): value
        for key, value in file_values.items()
        if key.startswith("schema.")
    }
    for override in getattr(args, "schema", None) or []:
        if "=" not in override:
            raise ConfigError(f"--schema expects field=column, got {override!r}")
        canonical, source_col = override.split("=", 1)
        cfg.schema[canonical.strip()] = source_col.strip()
    for canonical in cfg.schema:
        if canonical not in corpus.DEFAULT_SCHEMA:
            raise ConfigError(f"unknown schema field {canonical!r}")
    cfg.validate()
    return cfg


@contextlib.contextmanager
def _user_file():
    """Report a user file that cannot be opened, read or parsed as a ConfigError."""
    try:
        yield
    except (OSError, FormatError) as exc:
        raise ConfigError(str(exc)) from exc


def _open_user_file(source, mode: str = "r"):
    """``open_text`` for a user-named path or handle, failing as a ConfigError."""
    with _user_file():
        return open_text(source, mode)


def build_backend(cfg: RunConfig):
    if cfg.backend is None:
        raise ConfigError("no backend selected (use --backend)")
    if cfg.backend not in BACKEND_KINDS:
        raise ConfigError(f"unknown backend {cfg.backend!r}; choose from {BACKEND_KINDS}")
    with _user_file():
        if cfg.backend == "rules":
            if not cfg.rules:
                raise ConfigError("rules backend needs --rules FILE")
            return g2p.RulesBackend(g2p.load_rule_file(cfg.rules))
        if cfg.backend == "lexicon":
            if not cfg.lexicon:
                raise ConfigError("lexicon backend needs --lexicon FILE")
            fallback = g2p.load_rule_file(cfg.rules) if cfg.rules else None
            return g2p.LexiconBackend(g2p.load_lexicon(cfg.lexicon), fallback)
        if cfg.backend == "syllabary":
            if not cfg.table:
                raise ConfigError("syllabary backend needs --table FILE")
            return g2p.SyllabaryBackend(
                g2p.load_syllable_table(cfg.table), split_tones=cfg.split_tones
            )
        return g2p.PassthroughBackend()


def _load_fold(cfg: RunConfig) -> folding.FoldMap | None:
    if cfg.uncorrected:
        return None
    if not cfg.fold:
        raise ConfigError("a fold map is required unless --uncorrected is set")
    with _user_file():
        return folding.load_fold_map(cfg.fold)


def _load_inventory(cfg: RunConfig) -> inventory.Inventory:
    inventories = _load_inventories(cfg)
    if cfg.inventory_id is None:
        raise ConfigError("an inventory id is required (use --inventory-id)")
    for inv in inventories:
        if inv.id == cfg.inventory_id:
            return inv
    raise ConfigError(f"inventory id {cfg.inventory_id} not found in {cfg.inventory}")


def _load_inventories(cfg: RunConfig) -> list[inventory.Inventory]:
    if not cfg.inventory:
        raise ConfigError(f"no inventory file (use --inventory or ${INVENTORY_ENV})")
    with _user_file():
        inventories = inventory.load_inventories(cfg.inventory)
    if not inventories:
        raise ConfigError(f"no inventories in {cfg.inventory}")
    return inventories


def _input_streams(path: str):
    """``parse_stream`` of each line of a text file, or of each ``phonemized`` cell of a CSV."""
    with _open_user_file(path) as handle:
        lines = handle
        if Path(path).suffix.lower() == ".csv":
            reader = csv.DictReader(handle)
            if reader.fieldnames is None or "phonemized" not in reader.fieldnames:
                raise ConfigError(f"{path}: no phonemized column to read segments from")
            lines = (row["phonemized"] or "" for row in reader)
        yield from map(parse_stream, lines)


def _read_observed(path: str) -> set[IpaSegment]:
    """Observed segment set from a summary JSON, or from the streams of any other file."""
    if Path(path).suffix.lower() != ".json":
        return {segment for stream in _input_streams(path) for segment in segment_types(stream)}
    with _open_user_file(path) as handle:
        try:
            payload = json.load(handle)
        except json.JSONDecodeError as exc:
            raise FormatError(f"not JSON: {exc.msg}", source=path, line=exc.lineno) from None
    segments = payload.get("observed_segments") if isinstance(payload, dict) else payload
    if not isinstance(segments, list) or not all(isinstance(s, str) for s in segments):
        raise FormatError("expected observed_segments: a list of strings", source=path)
    return set(as_segments(segments, path, None))


def cmd_convert(args) -> int:
    cfg = build_run_config(args)
    backend = build_backend(cfg)
    fold_map = _load_fold(cfg)
    had_error = False
    source = sys.stdin if args.input in (None, "-") else args.input
    sink = sys.stdout if args.output in (None, "-") else args.output
    with _open_user_file(source) as lines, _open_user_file(sink, "w") as out_handle:
        for line_num, line in enumerate(lines, start=1):
            record = corpus.UtteranceRecord(gloss=line.rstrip("\n"))
            record, *_ = corpus.convert_record(record, backend, fold_map, cfg.keep_word_boundaries)
            if record.error:
                print(f"line {line_num}: {record.error}", file=sys.stderr)
                had_error = True
            print(record.phonemized, file=out_handle)
    return 1 if had_error else 0


def cmd_validate(args) -> int:
    cfg = build_run_config(args)
    inv = _load_inventory(cfg)
    observed = _read_observed(args.observed)
    report = folding.diff_inventory(observed, inv)
    suggestions = folding.suggest_mappings(report, inv)
    if args.json:
        print(json.dumps(folding.diff_to_json(report, suggestions), ensure_ascii=False, indent=2))
    else:
        print(folding.diff_to_text(report, suggestions))
    allow = {IpaSegment(s) for s in cfg.allow}
    return 0 if not (report.unknown - allow) and not (report.unseen - allow) else 1


def cmd_match(args) -> int:
    cfg = build_run_config(args)
    inventories = _load_inventories(cfg)
    observed = _read_observed(args.observed)
    ranking = inventory.best_match(observed, inventories)
    for rank, (inv, score) in enumerate(ranking[: args.top], start=1):
        print(f"{rank}\t{inv.id}\t{inv.language_name}\tL1={score}")
    return 0


def cmd_corpus(args) -> int:
    cfg = build_run_config(args)
    backend = build_backend(cfg)
    fold_map = _load_fold(cfg)
    schema = dict(corpus.DEFAULT_SCHEMA) | cfg.schema
    summary_path = args.summary or (args.output + ".summary.json")
    for path in map(Path, (args.output, summary_path)):  # fail before any conversion work
        if path.is_dir() or not os.access(path if path.exists() else path.parent, os.W_OK):
            raise ConfigError(f"cannot write {path}")

    row_errors: list = []
    with _user_file():
        records = list(corpus.read_corpus(args.input, schema, cfg.child_role, row_errors))

    started = time.perf_counter()
    converted, summary = corpus.convert_corpus(
        records,
        backend,
        fold_map=fold_map,
        keep_word_boundaries=cfg.keep_word_boundaries,
        uncorrected=cfg.uncorrected,
        workers=cfg.workers,
    )
    elapsed = time.perf_counter() - started
    if args.sort_by_age:
        converted = corpus.sort_by_age(converted)
    payload = summary.to_json()
    payload["skipped_rows"] = len(row_errors)
    payload["seconds"] = round(elapsed, 3)
    with _user_file():
        corpus.write_corpus(converted, args.output, schema=schema)
        with open_text(summary_path, "w") as handle:
            json.dump(payload, handle, ensure_ascii=False, indent=2)
    print(f"{summary.rows} rows, {summary.errors} errors", file=sys.stderr)
    return 1 if summary.errors or row_errors else 0


def cmd_stats(args) -> int:
    build_run_config(args)  # rejects a bad --config file
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
    cfg = build_run_config(args)
    schema = dict(corpus.DEFAULT_SCHEMA) | cfg.schema
    with _user_file():
        records = corpus.read_corpus(args.input, schema, cfg.child_role)
        records = [r for r in records if not r.is_child]
    points = analysis.info_by_age(
        records, pooled=not args.per_bucket, sample_size=args.sample_size, seed=cfg.seed
    )
    sink = sys.stdout if args.output in (None, "-") else args.output
    with _open_user_file(sink, "w") as out_handle:
        for row in analysis.curve_rows(points):
            print(",".join(str(v) for v in row), file=out_handle)
    return 0


def cmd_check_map(args) -> int:
    with _user_file():
        fold_map = folding.load_fold_map(args.map)
    diagnostics = folding.check_fold_map(fold_map)
    for diagnostic in diagnostics:
        print(diagnostic)
    return 1 if diagnostics else 0


def cmd_suggest(args) -> int:
    cfg = build_run_config(args)
    inv = _load_inventory(cfg)
    observed = _read_observed(args.observed)
    report = folding.diff_inventory(observed, inv)
    suggestions = folding.suggest_mappings(report, inv)
    print(json.dumps(folding.diff_to_json(report, suggestions), ensure_ascii=False, indent=2))
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key=value config file; flags override it")
    parser.add_argument("--inventory", help=f"inventory CSV (default ${INVENTORY_ENV})")
    parser.add_argument("--inventory-id", dest="inventory_id", type=int)
    parser.add_argument("--child-role", dest="child_role")
    parser.add_argument("--seed", type=int)


def _add_backend(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=BACKEND_KINDS)
    parser.add_argument("--rules", help="rule file (rules backend, or lexicon fallback)")
    parser.add_argument("--lexicon", help="lexicon file")
    parser.add_argument("--table", help="syllable table file")
    parser.add_argument("--fold", help="folding map file")
    parser.add_argument("--keep_word_boundaries", action="store_true", default=None)
    parser.add_argument("--uncorrected", action="store_true", default=None)
    parser.add_argument("--split-tones", dest="split_tones", action="store_true", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="phonofold", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("convert", help="convert text lines to phoneme streams")
    _add_backend(p)
    _add_common(p)
    p.add_argument("input", nargs="?", default="-", help="input file or - for stdin")
    p.add_argument("--output", "-o", help="output file (default stdout)")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("validate", help="diff observed segments against an inventory")
    _add_common(p)
    p.add_argument("observed", help="summary JSON, corpus CSV, or phoneme-stream text")
    p.add_argument("--allow", help="segments excused from the diff (space/comma separated)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("match", help="rank inventories against observed segments")
    _add_common(p)
    p.add_argument("observed")
    p.add_argument("--top", type=int, default=5)
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("corpus", help="convert a corpus CSV end to end")
    _add_backend(p)
    _add_common(p)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--summary", help="summary JSON path (default OUTPUT.summary.json)")
    p.add_argument("--schema", action="append", metavar="FIELD=COLUMN")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--sort-by-age", dest="sort_by_age", action="store_true")
    p.set_defaults(func=cmd_corpus)

    p = sub.add_parser("stats", help="phoneme frequency table")
    _add_common(p)
    p.add_argument("input", help="corpus CSV (its phonemized column) or phoneme-stream text")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("info", help="mean utterance information by age bucket")
    _add_common(p)
    p.add_argument("input", help="converted corpus CSV")
    p.add_argument("--output", "-o")
    p.add_argument("--schema", action="append", metavar="FIELD=COLUMN")
    p.add_argument("--sample-size", dest="sample_size", type=int)
    p.add_argument("--per-bucket", dest="per_bucket", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("check-map", help="well-formedness diagnostics for a fold map")
    p.add_argument("map")
    p.set_defaults(func=cmd_check_map)

    p = sub.add_parser("suggest", help="diff plus candidate mappings, as JSON")
    _add_common(p)
    p.add_argument("observed")
    p.set_defaults(func=cmd_suggest)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader stopped early (``| head``); send what is left to devnull.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except PhonofoldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, (ConfigError, FormatError)) else 1


if __name__ == "__main__":
    sys.exit(main())
