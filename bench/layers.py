"""Per-layer self time and counts, taken by wrapping phonofold's public functions.

A wrapped call is a span. A span's self time is its duration minus the time
of the spans it encloses, so every second is charged to exactly one layer.
Modules import some names by value (``from .stream import parse_stream``);
the wrapper replaces the name in every module that holds it, so calls are
caught wherever the name is looked up. A name that no longer exists is
skipped and its metric reads 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

MODULES = ("stream", "g2p", "folding", "inventory", "corpus", "analysis", "cli")

# (module, attribute, layer metric) for every wrapped function or method.
SPANS = (
    ("g2p", "RulesBackend.convert_word", "g2p.word_s"),
    ("g2p", "convert_rules", "g2p.word_s"),
    ("g2p", "RewriteRule.apply", "g2p.rules_s"),  # split into pre/post below
    ("g2p", "convert_utterance", "g2p.utterance_s"),
    ("g2p", "PassthroughBackend.convert_line", "g2p.utterance_s"),
    ("g2p", "parse_rule_file", None),  # not timed: records which rules are pre rules
    ("folding", "apply_fold", "folding.fold_s"),
    ("folding", "diff_inventory", "folding.diff_s"),
    ("folding", "suggest_mappings", "folding.diff_s"),
    ("stream", "PhonemeStream.__init__", "stream.build_s"),
    ("stream", "repair_tokens", "stream.build_s"),
    ("stream", "parse_stream", "stream.parse_s"),
    ("stream", "emit_stream", "stream.emit_s"),
    ("corpus", "read_corpus", "corpus.read_s"),
    ("corpus", "convert_corpus", "corpus.convert_s"),
    ("corpus", "write_corpus", "corpus.write_s"),
    ("corpus", "sort_by_age", "corpus.sort_s"),
    ("analysis", "frequency_table", "analysis.frequency_s"),
    ("analysis", "build_unigram", "analysis.unigram_s"),
    ("analysis", "utterance_information", "analysis.information_s"),
    ("analysis", "info_by_age", "analysis.info_by_age_s"),
    ("inventory", "load_inventories", "inventory.load_s"),
    ("inventory", "best_match", "inventory.match_s"),
)


class Tracer:
    """Collects self seconds per layer and event counts while installed."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._open = [0.0]  # enclosed-span time of each open span, innermost last
        self._pre_rules: set[int] = set()

    def install(self) -> None:
        modules = {name: importlib.import_module(f"phonofold.{name}") for name in MODULES}
        replaced: dict[int, object] = {}
        for module, path, layer in SPANS:
            owner = modules[module]
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            fn = getattr(owner, "__dict__", {}).get(attr)
            if not callable(fn):
                continue
            wrapper = self._wrap(fn, layer, _COUNTERS.get(path))
            setattr(owner, attr, wrapper)
            replaced[id(fn)] = wrapper
        for module in modules.values():
            for name, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, name, replaced[id(value)])

    def _layer(self, layer: str, args) -> str:
        if layer == "g2p.rules_s":
            return "g2p.pre_rules_s" if id(args[0]) in self._pre_rules else "g2p.post_rules_s"
        return layer

    def _span(self, layer, fn, *args, **kwargs):
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            enclosed = self._open.pop()
            self._open[-1] += elapsed
            self.seconds[layer] += elapsed - enclosed

    def _wrap(self, fn, layer, count):
        if inspect.isgeneratorfunction(fn):
            # A generator's work happens in next(), so each step is a span.
            @functools.wraps(fn)
            def generator(*args, **kwargs):
                items = fn(*args, **kwargs)
                while (item := self._span(layer, next, items, _END)) is not _END:
                    yield item

            return generator

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if layer is None:
                result = fn(*args, **kwargs)
            else:
                result = self._span(self._layer(layer, args), fn, *args, **kwargs)
            if count is not None:
                count(self, args, result)
            return result

        return wrapper

    def report(self) -> dict:
        return {**self.seconds, **self.counts}


_END = object()


def _add(metric, measure=lambda args, result: 1):
    def count(tracer, args, result):
        tracer.counts[metric] += measure(args, result)

    return count


def _rule_file(tracer, args, result):
    tracer._pre_rules.update(id(rule) for rule in result.pre_rules)


_COUNTERS = {
    "RulesBackend.convert_word": _add("g2p.words"),
    "parse_rule_file": _rule_file,
    "apply_fold": _add("folding.fold_calls"),
    "PhonemeStream.__init__": _add("stream.streams_built"),
    "parse_stream": _add("stream.tokens_parsed", lambda args, result: len(result)),
    "convert_corpus": _add("corpus.rows", lambda args, result: len(result[0])),
    "load_inventories": _add(
        "inventory.segments_loaded", lambda args, result: sum(len(i.segments) for i in result)
    ),
}
