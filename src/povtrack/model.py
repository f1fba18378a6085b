"""Domain model for psychological point-of-view tracking.

Third-person narrative is read as a stream of input items: sentences,
paragraph breaks, and scene breaks.  Each sentence arrives already
annotated with a feature set (clauses, the states of affairs they are
about, potential subjective elements, an optional narrative
parenthetical).  The tracker never sees raw text; everything here is the
vocabulary those annotations and the tracking state are expressed in.

Character sets are plain ``frozenset[str]``.  The empty set is
meaningful throughout: an unspecified experiencer, an objective sentence
with no active character, or a failed identification.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class PovTrackError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PovTrackError):
    """Input bytes could not be parsed at all (malformed JSON, wrong shape)."""


class ValidationError(PovTrackError):
    """A document parsed but violates the annotation schema."""


class RegistryError(PovTrackError):
    """A category registry, or one of its categories, is malformed."""


Characters = frozenset[str]

NOBODY: Characters = frozenset()


class TextSituation(Enum):
    """The seven discourse states the tracker distinguishes.

    They summarise, for the current scene, whether a subjective sentence
    has appeared, whether the local paragraph context is subjective, and
    whether a sentence with an active character has appeared earlier in
    the current paragraph.
    """

    PRESUBJECTIVE_NONACTIVE = "presubjective-nonactive"
    PRESUBJECTIVE_ACTIVE = "presubjective-active"
    CONTINUING_SUBJECTIVE = "continuing-subjective"
    BROKEN_SUBJECTIVE = "broken-subjective"
    INTERRUPTED_SUBJECTIVE = "interrupted-subjective"
    POSTSUBJECTIVE_NONACTIVE = "postsubjective-nonactive"
    POSTSUBJECTIVE_ACTIVE = "postsubjective-active"


# The four association levels, weakest context requirement last.  A
# category at level k is subjective in every situation of levels 1..k.
_LEVEL_SITUATIONS = (
    {TextSituation.CONTINUING_SUBJECTIVE},
    {TextSituation.BROKEN_SUBJECTIVE, TextSituation.INTERRUPTED_SUBJECTIVE},
    {TextSituation.PRESUBJECTIVE_ACTIVE,
     TextSituation.POSTSUBJECTIVE_NONACTIVE,
     TextSituation.POSTSUBJECTIVE_ACTIVE},
    {TextSituation.PRESUBJECTIVE_NONACTIVE},
)
_UP_TO_LEVEL: dict[int, frozenset[TextSituation]] = {
    level: frozenset().union(*_LEVEL_SITUATIONS[:level])
    for level in range(1, len(_LEVEL_SITUATIONS) + 1)}


@dataclass(frozen=True)
class PseCategory:
    """One category of potential subjective element.

    ``level`` is the highest association level: the category counts as a
    subjective element exactly in the situations of levels 1..level.
    ``excluded`` marks categories that are never used as evidence when
    identifying the subjective character of a private-state sentence
    (they can legitimately appear, non-subordinated, in private-state
    reports).
    """

    name: str
    level: int
    excluded: bool = False

    def __post_init__(self) -> None:
        level = self.level
        if not isinstance(level, int) or isinstance(level, bool):
            raise RegistryError(
                f"category {self.name!r}: level must be an integer")
        if level not in _UP_TO_LEVEL:
            raise RegistryError(
                f"category {self.name!r}: level must be in 1..4, got {level}")

    @property
    def situations(self) -> frozenset[TextSituation]:
        return _UP_TO_LEVEL[self.level]


def _default_registry() -> dict[str, PseCategory]:
    level1 = ("past-perfective", "progressive")
    level2 = ("habitual",)
    level4 = ("exclamation", "question")
    level3 = (
        "eval-adjective", "eval-noun", "eval-adverb",
        "obligation-modal", "minimizer", "lack-of-knowledge",
        "sentence-fragment", "kinship-term",
        "evidential-certainty", "evidential-evidence", "hedge",
        "expectation-met", "expectation-unmet",
        "conjunct", "conditional-clause",
        "comparative-like", "percept-term", "seeming-verb",
        "attitude-noun", "as-plus-modifier", "degree-intensifier",
    )
    excluded = {"habitual", "comparative-like", "as-plus-modifier",
                "degree-intensifier"}
    return {name: PseCategory(name, level, excluded=name in excluded)
            for level, names in ((1, level1), (2, level2), (3, level3),
                                 (4, level4))
            for name in names}


DEFAULT_REGISTRY: dict[str, PseCategory] = _default_registry()


@dataclass(frozen=True)
class Context:
    """The tracking state carried from one input item to the next."""

    last_sc: Characters
    last_active_character: Characters
    previous_scs: Characters
    situation: TextSituation


INITIAL_CONTEXT = Context(NOBODY, NOBODY, NOBODY,
                          TextSituation.PRESUBJECTIVE_NONACTIVE)


class SoaType(Enum):
    PRIVATE_STATE_ACTION = "private-state-action"
    ACTION = "action"
    PRIVATE_STATE = "private-state"
    NONPRIVATE_STATE = "nonprivate-state"


# the types a state of affairs may read as a private state under
PRIVATE_SOA_TYPES = (SoaType.PRIVATE_STATE, SoaType.PRIVATE_STATE_ACTION)


@dataclass(frozen=True)
class StateOfAffairs:
    """What a clause (or a private-state head noun) is about.

    ``who`` is the experiencer or actor; empty means unspecified.
    """

    id: str
    type: SoaType
    who: Characters = NOBODY


@dataclass(frozen=True)
class VerbFeatures:
    """Tense/aspect/mood flags of one clause's main verb phrase."""

    simple_past: bool = False
    negated: bool = False
    habitual: bool = False
    modal: bool = False
    past_perfective: bool = False
    progressive: bool = False


@dataclass(frozen=True)
class Clause:
    """One clause; ``under`` names the clauses it is subordinated to.

    Exactly one clause per sentence has ``under == frozenset()``: the
    main clause.  For quoted speech the main clause is the communicative
    action and carries the discourse parenthetical's verb features.
    """

    id: str
    soa: str
    under: frozenset[str] = frozenset()
    vp: VerbFeatures = VerbFeatures()


@dataclass(frozen=True)
class Pse:
    """A potential subjective element occurrence.

    ``under`` lists the clauses whose governing lexical item
    syntactically dominates the element; an element is never treated as
    subordinated to the head-noun state of affairs.  ``category`` is the
    category the registry resolved its name to when it was parsed.
    """

    id: str
    category: PseCategory
    under: frozenset[str] = frozenset()


@dataclass(frozen=True)
class FeatureSet:
    """The annotations of a single sentential input item.  Building one
    checks every rule that relates its fields, and raises ValidationError
    for the first one broken."""

    clauses: tuple[Clause, ...]
    soas: tuple[StateOfAffairs, ...]
    pses: tuple[Pse, ...] = ()
    parenthetical: Characters | None = None
    head_noun_private_state: str | None = None
    quoted_speech: bool = False
    # the main clause, found once at construction and never compared
    main: Clause = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for pse in self.pses:
            if not isinstance(pse.category, PseCategory):
                raise ValidationError(f"element {pse.id!r} has unknown "
                                      f"category {pse.category!r}")
        soas = {soa.id: soa for soa in self.soas}
        clauses = {clause.id: clause for clause in self.clauses}
        for what, objects, ids in (
                ("state-of-affairs", self.soas, soas),
                ("clause", self.clauses, clauses),
                ("element", self.pses, {pse.id for pse in self.pses})):
            if len(ids) < len(objects):
                seen: set[str] = set()
                for obj in objects:
                    if obj.id in seen:
                        raise ValidationError(
                            f"duplicate {what} id {obj.id!r}")
                    seen.add(obj.id)
        for clause in self.clauses:
            if clause.soa not in soas:
                raise ValidationError(
                    f"clause {clause.id!r} references unknown state of "
                    f"affairs {clause.soa!r}")
            if not clause.under <= clauses.keys():
                raise ValidationError(
                    f"clause {clause.id!r} subordinated to unknown "
                    f"clause(s) {sorted(clause.under - clauses.keys())}")
        if not self.clauses:
            raise ValidationError("at least one clause required")
        mains = [c for c in self.clauses if not c.under]
        if not mains:
            raise ValidationError(
                "no main clause (every clause is subordinated)")
        if len(mains) > 1:
            raise ValidationError("multiple main clauses "
                                  f"({', '.join(sorted(c.id for c in mains))})")
        _check_acyclic(clauses)
        for pse in self.pses:
            if not pse.under <= clauses.keys():
                raise ValidationError(
                    f"element {pse.id!r} subordinated to unknown clause(s) "
                    f"{sorted(pse.under - clauses.keys())}")
        if self.parenthetical is not None and not self.parenthetical:
            raise ValidationError(
                "parenthetical subject must name at least one character")
        head = self.head_noun_private_state
        if head is not None:
            if not isinstance(head, str) or head not in soas:
                raise ValidationError("headNounPrivateState references "
                                      f"unknown state of affairs {head!r}")
            if soas[head].type is not SoaType.PRIVATE_STATE:
                raise ValidationError(
                    f"headNounPrivateState {head!r} must be a private-state "
                    "state of affairs")
        if (self.quoted_speech
                and soas[mains[0].soa].type is not SoaType.ACTION):
            raise ValidationError(
                "quoted speech must be about a communicative action (main "
                "state of affairs of type 'action')")
        object.__setattr__(self, "main", mains[0])

    def clause_about(self, soa_id: str) -> Clause | None:
        """The clause a state of affairs belongs to.  None for the
        head-noun one: a noun phrase has no clausal scope for an element
        to sit in."""
        if soa_id != self.head_noun_private_state:
            for clause in self.clauses:
                if clause.soa == soa_id:
                    return clause
        return None


def _check_acyclic(clauses: dict[str, Clause]) -> None:
    """Depth-first with an explicit stack, so that no chain is too long."""
    finished: dict[str, bool] = {}  # False while on the stack
    for start in clauses:
        if start in finished:
            continue
        stack = [(start, iter(sorted(clauses[start].under)))]
        finished[start] = False
        while stack:
            node, parents = stack[-1]
            parent = next(parents, None)
            if parent is None:
                stack.pop()
                finished[node] = True
            elif parent not in finished:
                stack.append((parent, iter(sorted(clauses[parent].under))))
                finished[parent] = False
            elif not finished[parent]:
                cycle = " -> ".join([n for n, _ in stack] + [parent])
                raise ValidationError(f"clause subordination cycle: {cycle}")


@dataclass(frozen=True)
class Interpretation:
    """The verdict on one sentence: subjective of a character set, or
    objective with an (often empty) active character set."""

    subjective: bool
    characters: Characters

    @classmethod
    def subjective_of(cls, who) -> "Interpretation":
        return cls(True, frozenset(who))

    @classmethod
    def objective_of(cls, who) -> "Interpretation":
        return cls(False, frozenset(who))

    @property
    def kind(self) -> str:
        return "subjective" if self.subjective else "objective"


# what splits a tab-separated verdict line: the tab, and every character
# at which str.splitlines breaks a line
SEPARATORS = frozenset("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
# a str.translate table writing each separator as its escape: "\t", "\u2028"
ESCAPE_SEPARATORS = {ord(c): repr(c)[1:-1] for c in SEPARATORS}


@dataclass(frozen=True)
class Sentence:
    id: str
    features: FeatureSet
    text: str | None = None
    gold: Interpretation | None = None

    def __post_init__(self) -> None:
        # the id heads a tab-separated verdict line, which it must not split
        if not SEPARATORS.isdisjoint(self.id):
            raise ValidationError(f"sentence id {self.id!r} must not hold a "
                                  "tab or line break")


@dataclass(frozen=True)
class ParagraphBreak:
    pass


@dataclass(frozen=True)
class SceneBreak:
    pass


InputItem = Sentence | ParagraphBreak | SceneBreak
