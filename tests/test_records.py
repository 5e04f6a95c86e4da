"""The record classes behave as the ``@dataclass`` definitions they replace.

The oracle is a copy of those dataclass definitions, kept here. For each class the
same values build an instance of both, and every observable is compared: ``repr``,
equality (across variants and across classes), ``hash`` or its refusal, ordering,
a pickle round trip, assignment and deletion of each field, and construction by
keyword and by position.
"""

import pickle
import re
from dataclasses import dataclass, field, fields
from types import SimpleNamespace

import pytest

from phonofold import analysis, corpus, folding, g2p, inventory
from phonofold.stream import IpaSegment

# --- the oracle: the dataclass definitions as they were ------------------------------------


@dataclass
class UtteranceRecord:
    utterance_id: str = ""
    transcript_id: str = ""
    corpus_id: str = ""
    collection_id: str = ""
    speaker_role: str = ""
    target_child_age: float | None = None
    age_text: str = ""
    gloss: str = ""
    phonemized: str | None = None
    is_child: bool = False
    error: str = ""
    extra: dict = field(default_factory=dict)


@dataclass
class RunSummary:
    rows: int = 0
    errors: int = 0
    observed: set = field(default_factory=set)
    unmapped: set = field(default_factory=set)


@dataclass(frozen=True)
class InventorySegment:
    segment: IpaSegment
    segment_class: str
    features: dict

    def __post_init__(self):
        if self.segment_class not in inventory.SEGMENT_CLASSES:
            raise ValueError(f"unknown segment class {self.segment_class!r}")


@dataclass(frozen=True)
class Inventory:
    id: int
    language_name: str
    iso_code: str
    segments: tuple
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {seg.segment: seg for seg in self.segments})


@dataclass(frozen=True)
class RewriteRule:
    target: tuple
    replacement: tuple
    left: tuple = ()
    right: tuple = ()
    left_anchor: bool = False
    right_anchor: bool = False

    def __post_init__(self):
        if not self.target:
            raise ValueError("rewrite target must be non-empty")
        object.__setattr__(self, "_window", self.left + self.target + self.right)


class FoldRule(RewriteRule):
    pass


@dataclass(frozen=True)
class FoldMap:
    rules: tuple
    provenance: str = "<string>"


@dataclass(frozen=True)
class RulesBackend:
    rules: g2p.RuleSet
    _memo: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __reduce__(self):
        return type(self), (self.rules,)


@dataclass(frozen=True)
class InfoCurvePoint:
    age_bucket: int
    mean_information: float
    n_utterances: int


ORACLE = SimpleNamespace(
    UtteranceRecord=UtteranceRecord,
    RunSummary=RunSummary,
    InventorySegment=InventorySegment,
    Inventory=Inventory,
    RewriteRule=RewriteRule,
    FoldRule=FoldRule,
    FoldMap=FoldMap,
    RulesBackend=RulesBackend,
    InfoCurvePoint=InfoCurvePoint,
)
REAL = SimpleNamespace(
    UtteranceRecord=corpus.UtteranceRecord,
    RunSummary=corpus.RunSummary,
    InventorySegment=inventory.InventorySegment,
    Inventory=inventory.Inventory,
    RewriteRule=g2p.RewriteRule,
    FoldRule=folding.FoldRule,
    FoldMap=folding.FoldMap,
    RulesBackend=g2p.RulesBackend,
    InfoCurvePoint=analysis.InfoCurvePoint,
)

# --- the instances: each builder gives equal and unequal variants ---------------------------

RULES, OTHER_RULES = g2p.RuleSet(), g2p.RuleSet((g2p.RewriteRule(("a",), ("b",)),))
NAN = float("nan")  # one object for both sides: a NaN hashes by identity


def utterance_records(ns):
    cells = ("u1", "t1", "c1", "col", "MOT", 24.5, "2;0.15", "a b", "a b", False, "", {"pos": "n"})
    return [
        ns.UtteranceRecord(*cells),
        ns.UtteranceRecord(
            utterance_id="u1",
            transcript_id="t1",
            corpus_id="c1",
            collection_id="col",
            speaker_role="MOT",
            target_child_age=24.5,
            age_text="2;0.15",
            gloss="a b",
            phonemized="a b",
            is_child=False,
            error="",
            extra={"pos": "n"},
        ),
        ns.UtteranceRecord(gloss="a b", phonemized=None, is_child=True),
        ns.UtteranceRecord(),
        ns.UtteranceRecord(target_child_age=NAN),
    ]


def run_summaries(ns):
    return [
        ns.RunSummary(3, 1, {IpaSegment("a")}, {"q"}),
        ns.RunSummary(rows=3, errors=1, observed={IpaSegment("a")}, unmapped={"q"}),
        ns.RunSummary(3),
        ns.RunSummary(),
    ]


def segments(ns):
    return [
        ns.InventorySegment(IpaSegment("a"), "vowel", {"syllabic": inventory.TernaryValue.PLUS}),
        ns.InventorySegment(
            segment=IpaSegment("a"),
            segment_class="vowel",
            features={"syllabic": inventory.TernaryValue.PLUS},
        ),
        ns.InventorySegment(IpaSegment("b"), "consonant", {}),
    ]


def inventories(ns):
    a, _, b = segments(ns)
    return [
        ns.Inventory(1, "Toy", "qaa", (a, b)),
        ns.Inventory(id=1, language_name="Toy", iso_code="qaa", segments=(a, b)),
        ns.Inventory(1, "Toy", "qaa", (b, a)),
        ns.Inventory(2, "Toy", "qaa", ()),
    ]


def rewrite_rules(ns):
    return [
        ns.RewriteRule(("a",), ("b",), ("x",), (), True, False),
        ns.RewriteRule(
            target=("a",), replacement=("b",), left=("x",), right=(), left_anchor=True
        ),
        ns.RewriteRule(("a",), ("b",)),
        ns.FoldRule(("a",), ("b",)),
        ns.FoldRule(target=("a",), replacement=("b",)),
        ns.FoldRule(("a", "b"), ()),
    ]


def fold_maps(ns):
    return [
        ns.FoldMap((ns.FoldRule(("a",), ("b",)),), "x.fold"),
        ns.FoldMap(rules=(ns.FoldRule(("a",), ("b",)),), provenance="x.fold"),
        ns.FoldMap((ns.FoldRule(("a",), ("b",)),)),
        ns.FoldMap(()),
    ]


def backends(ns):
    return [ns.RulesBackend(RULES), ns.RulesBackend(rules=RULES), ns.RulesBackend(OTHER_RULES)]


def curve_points(ns):
    return [
        ns.InfoCurvePoint(2, 3.5, 10),
        ns.InfoCurvePoint(age_bucket=2, mean_information=3.5, n_utterances=10),
        ns.InfoCurvePoint(2, 3.25, 10),
        ns.InfoCurvePoint(1, NAN, 1),
    ]


BUILDERS = [
    utterance_records,
    run_summaries,
    segments,
    inventories,
    rewrite_rules,
    fold_maps,
    backends,
    curve_points,
]


def outcome(action):
    """What an action gives: its value, or its exception's type and message."""
    try:
        return ("ok", action())
    except Exception as exc:
        kind = "AttributeError" if isinstance(exc, AttributeError) else type(exc).__name__
        return (kind, str(exc))


def shown(item) -> str:
    """``repr`` with object addresses masked: a rule set's grapheme map shows one."""
    return re.sub(r" at 0x[0-9a-f]+", "", repr(item))


def observe(instances, names):
    """Everything a caller can see of the instances, as plain values."""
    seen = {
        "repr": [shown(x) for x in instances],
        "eq": [[a == b for b in instances] for a in instances],
        "ne": [[a != b for b in instances] for a in instances],
        "hash": [outcome(lambda x=x: hash(x)) for x in instances],
        "lt": [outcome(lambda x=x: x < x)[0] for x in instances],
    }
    trips = [pickle.loads(pickle.dumps(x)) for x in instances]
    seen["pickled"] = [(shown(y), y == x, type(y).__name__) for x, y in zip(instances, trips)]
    for name in names:
        seen[f"set {name}"] = [
            outcome(lambda x=x: setattr(x, name, getattr(x, name))) for x in instances
        ]
        seen[f"del {name}"] = [outcome(lambda x=x: delattr(x, name))[0] for x in instances]
    return seen


@pytest.mark.parametrize("build", BUILDERS, ids=lambda build: build.__name__)
def test_each_class_behaves_as_its_dataclass(build):
    names = [f.name for f in fields(build(ORACLE)[0])]
    assert observe(build(REAL), names) == observe(build(ORACLE), names)


@pytest.mark.parametrize("build", BUILDERS, ids=lambda build: build.__name__)
def test_equality_refuses_another_class(build):
    for real, oracle in zip(build(REAL), build(ORACLE)):
        assert real.__eq__(oracle) is NotImplemented and real != oracle


def test_a_fold_rule_never_equals_a_rewrite_rule():
    assert folding.FoldRule(("a",), ("b",)) != g2p.RewriteRule(("a",), ("b",))
    assert g2p.RewriteRule(("a",), ("b",)).__eq__(folding.FoldRule(("a",), ("b",))) is (
        NotImplemented
    )


@pytest.mark.parametrize(
    "name, args",
    [
        ("Inventory", {"id": 1, "language_name": "", "iso_code": "", "segments": (), "_index": {}}),
        ("RulesBackend", {"rules": RULES, "_memo": {}}),
    ],
)
def test_the_private_attribute_is_no_argument(name, args):
    for ns in (REAL, ORACLE):
        with pytest.raises(TypeError, match="_index|_memo"):
            getattr(ns, name)(**args)


@pytest.mark.parametrize("ns", [REAL, ORACLE], ids=["real", "oracle"])
def test_default_built_records_share_no_container(ns):
    first, second = ns.UtteranceRecord(), ns.UtteranceRecord()
    assert first.extra == {} and first.extra is not second.extra
    first, second = ns.RunSummary(), ns.RunSummary()
    assert first.observed is not second.observed and first.unmapped is not second.unmapped


@pytest.mark.parametrize(
    "make",
    [
        lambda ns: ns.RewriteRule((), ("b",)),
        lambda ns: ns.InventorySegment(IpaSegment("a"), "glide", {}),
    ],
    ids=["empty-target", "segment-class"],
)
def test_the_checks_raise_alike(make):
    assert outcome(lambda: make(REAL)) == outcome(lambda: make(ORACLE))


def test_a_pickled_backend_leaves_its_memo_behind():
    backend = g2p.RulesBackend(g2p.RuleSet())
    backend.convert_word("ab")
    assert backend._memo and pickle.loads(pickle.dumps(backend))._memo == {}


def test_cached_properties_work_and_survive_pickling():
    rule = g2p.RewriteRule(("a",), ("b",), right_anchor=True)
    fold_map = folding.parse_fold_map("a -> b\nc -> d\n")
    assert rule.apply("aa") == "ab" and pickle.loads(pickle.dumps(rule)).apply("aa") == "ab"
    assert fold_map._passes == [{"a": ("b",), "c": ("d",)}]
    assert pickle.loads(pickle.dumps(fold_map))._passes == fold_map._passes
    assert "_text_rule" in vars(rule) and "_passes" in vars(fold_map)
