"""Domain model for psychological point-of-view tracking.

Third-person narrative is read as a stream of input items: sentences,
paragraph breaks, and scene breaks.  Each sentence arrives already
annotated with a feature set (clauses, the states of affairs they are
about, potential subjective elements, an optional narrative
parenthetical).  The tracker never sees raw text; everything here is the
vocabulary those annotations and the tracking state are expressed in.

Character sets are plain ``frozenset[str]``, but for a context's
``previous_scs``, which may be a ``SeenCharacters`` view.  The empty set
is meaningful throughout: an unspecified experiencer, an objective
sentence with no active character, or a failed identification.
"""

from __future__ import annotations

import re
from collections.abc import Set
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice, product, repeat


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

# what splits a tab-separated verdict line: the tab, and every character
# at which str.splitlines breaks a line
SEPARATORS = frozenset("\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
# a str.translate table writing each separator as its escape: "\t", "\u2028"
ESCAPE_SEPARATORS = {ord(c): repr(c)[1:-1] for c in SEPARATORS}
_STR = repeat(str)  # isinstance's second argument, for map
# half of a UTF-16 pair, which no UTF encoder writes alone
_SURROGATE = re.compile("[\ud800-\udfff]")


def has_lone_surrogate(text: str) -> bool:
    """Whether ``text`` cannot be encoded; ASCII runs no search."""
    return not text.isascii() and _SURROGATE.search(text) is not None


def all_names(values) -> bool:
    """Whether every value is a character name: a non-empty str."""
    return all(map(isinstance, values, _STR)) and all(values)


class TextSituation(Enum):
    """The seven discourse states the tracker distinguishes, each
    declared with its row of the paper's situation table.

    They summarise, for the current scene, whether a subjective sentence
    has appeared, whether the local paragraph context is subjective, and
    whether a sentence with an active character has appeared earlier in
    the current paragraph.  Besides its string ``value``, a member holds:

    * ``short``: the name a trace prints, with "subjective" as "subj".
    * ``level``: the association level that introduces it.  An element
      of a category of level k is subjective in exactly the situations
      whose level is at most k.
    * ``sc_expected``: a subjective sentence may fall back on the last
      subjective character, since one has appeared in the scene.
    * ``active_expected``: it may fall back on the last active
      character, since one appeared earlier in the paragraph and no
      subjective sentence has since.
    * ``after_break``, ``after_objective`` and ``after_active``: the
      situation after a paragraph break, after an objective sentence
      without an active character, and after one with.  A scene break
      always leads to presubjective-nonactive, and a subjective
      sentence to continuing-subjective.
    """

    # value, level, sc_expected, active_expected,
    # after_break, after_objective, after_active
    PRESUBJECTIVE_NONACTIVE = (
        "presubjective-nonactive", 4, False, False,
        "presubjective-nonactive", "presubjective-nonactive",
        "presubjective-active")
    PRESUBJECTIVE_ACTIVE = (
        "presubjective-active", 3, False, True,
        "presubjective-nonactive", "presubjective-active",
        "presubjective-active")
    CONTINUING_SUBJECTIVE = (
        "continuing-subjective", 1, True, False,
        "broken-subjective", "interrupted-subjective",
        "interrupted-subjective")
    BROKEN_SUBJECTIVE = (
        "broken-subjective", 2, True, False,
        "broken-subjective", "postsubjective-nonactive",
        "postsubjective-active")
    INTERRUPTED_SUBJECTIVE = (
        "interrupted-subjective", 2, True, False,
        "postsubjective-nonactive", "interrupted-subjective",
        "interrupted-subjective")
    POSTSUBJECTIVE_NONACTIVE = (
        "postsubjective-nonactive", 3, True, False,
        "postsubjective-nonactive", "postsubjective-nonactive",
        "postsubjective-active")
    POSTSUBJECTIVE_ACTIVE = (
        "postsubjective-active", 3, True, True,
        "postsubjective-nonactive", "postsubjective-active",
        "postsubjective-active")

    def __new__(cls, value, level, sc_expected, active_expected, *after):
        member = object.__new__(cls)
        member._value_ = value
        member.short = value.replace("subjective", "subj")
        member.level = level
        member.sc_expected = sc_expected
        member.active_expected = active_expected
        member.after_break, member.after_objective, member.after_active = after
        return member


# the successor columns name their members by value until all exist
for _s in TextSituation:
    _s.after_break, _s.after_objective, _s.after_active = map(
        TextSituation, (_s.after_break, _s.after_objective, _s.after_active))
del _s


@dataclass(frozen=True, slots=True)
class PseCategory:
    """One category of potential subjective element.

    ``level`` is the highest association level: the category counts as a
    subjective element exactly in the situations whose ``level`` is at
    most this one.
    ``excluded`` marks categories that are never used as evidence when
    identifying the subjective character of a private-state sentence
    (they can legitimately appear, non-subordinated, in private-state
    reports).
    """

    name: str
    level: int
    excluded: bool = False

    def __post_init__(self) -> None:
        name, level = self.name, self.level
        # a document names it, and a trace prints it on a line of its own
        if not isinstance(name, str) or not name:
            raise RegistryError(
                f"category name {name!r} must be a non-empty string")
        if not SEPARATORS.isdisjoint(name):
            raise RegistryError(f"category name {name!r} must not hold a tab "
                                "or line break")
        if has_lone_surrogate(name):
            raise RegistryError(f"category name {name!r} must not hold a "
                                "lone surrogate")
        if not isinstance(level, int) or isinstance(level, bool):
            raise RegistryError(
                f"category {self.name!r}: level must be an integer")
        if not 1 <= level <= 4:
            raise RegistryError(
                f"category {self.name!r}: level must be in 1..4, got {level}")


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


class SeenCharacters(Set):
    """A read-only set: the first ``length`` names of a log that holds
    names in the order they were first seen.  It is equal to, and hashes
    like, the frozenset of the same names.

    Views of one log share it: ``rank`` maps each logged name to its
    place, and a name is in a view when its place is below the view's
    length.  ``grow`` appends to the log only for its head view, the one
    as long as the log, so no view ever changes.
    """

    __slots__ = ("_rank", "_length")

    def __init__(self, rank: dict[str, int], length: int) -> None:
        self._rank = rank
        self._length = length

    def __contains__(self, name) -> bool:
        return self._rank.get(name, self._length) < self._length

    def __len__(self) -> int:
        return self._length

    def __iter__(self):
        return islice(self._rank, self._length)

    def issuperset(self, names) -> bool:
        """As ``frozenset.issuperset`` of a set, so that a caller tests
        either kind with one call and no reflected comparison."""
        rank = self._rank
        if len(rank) == self._length:  # the head: its names are the keys
            return rank.keys() >= names
        return all(map(self.__contains__, names))

    def __or__(self, other):
        return grow(self, other) if isinstance(other, Set) else NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self))

    def __repr__(self) -> str:
        return f"SeenCharacters({sorted(self)!r})"

    @classmethod
    def _from_iterable(cls, names) -> Characters:
        # what the other Set operators build: a plain frozenset
        return frozenset(names)


# a union of at most this many names stays a frozenset: copying it costs
# little, and the fold's subset tests on it run in C, not in a view's method
SMALL = 32


def grow(seen: Characters | SeenCharacters, who: Characters
         ) -> Characters | SeenCharacters:
    """``seen | who``: ``seen`` itself when it holds every name of
    ``who``; else, past ``SMALL`` names, a view of a log that ends in
    ``who``'s new names, sorted.  That log is ``seen``'s own when
    ``seen`` is its head; an older view copies its names first, and a
    frozenset starts a log of its names, sorted."""
    if seen.issuperset(who):
        return seen
    if type(seen) is SeenCharacters:
        rank, length = seen._rank, seen._length
        if len(rank) > length:
            rank = dict(islice(rank.items(), length))
    elif len(union := seen | who) <= SMALL:
        return union
    else:
        rank = {name: place for place, name in enumerate(sorted(seen))}
    for name in sorted(who):  # not who - rank.keys(), which walks the log
        rank.setdefault(name, len(rank))
    return SeenCharacters(rank, len(rank))


@dataclass(frozen=True, slots=True)
class Context:
    """The tracking state carried from one input item to the next.
    ``previous_scs`` only grows within a fold, so past ``SMALL`` names
    the fold keeps it as a view of one log (``grow``), not a new
    frozenset per growth."""

    last_sc: Characters
    last_active_character: Characters
    previous_scs: Characters | SeenCharacters
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
_UNDER = "under must be a frozenset of clause ids"


@dataclass(frozen=True, slots=True)
class StateOfAffairs:
    """What a clause (or a private-state head noun) is about.

    ``who`` is the experiencer or actor; empty means unspecified.
    """

    id: str
    type: SoaType
    who: Characters = NOBODY


@dataclass(frozen=True, slots=True)
class VerbFeatures:
    """Tense/aspect/mood flags of one clause's main verb phrase."""

    simple_past: bool = False
    negated: bool = False
    habitual: bool = False
    modal: bool = False
    past_perfective: bool = False
    progressive: bool = False


# the 64 VerbFeatures values, each built once, by their flags in field
# order; a parse shares them, so FeatureSet knows them by identity first
VERB_FEATURES = {flags: VerbFeatures(*flags) for flags in product(
    (False, True), repeat=len(VerbFeatures.__slots__))}
_VERB_IDS = frozenset(map(id, VERB_FEATURES.values()))


@dataclass(frozen=True, slots=True)
class Clause:
    """One clause; ``under`` names the clauses it is subordinated to.

    Exactly one clause per sentence has ``under == frozenset()``: the
    main clause.  For quoted speech the main clause is the communicative
    action and carries the discourse parenthetical's verb features.
    """

    id: str
    soa: StateOfAffairs
    under: frozenset[str] = frozenset()
    vp: VerbFeatures = VerbFeatures()


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class FeatureSet:
    """The annotations of a single sentential input item.  Building one
    checks every rule that relates its fields, and raises ValidationError
    for the first one broken.  A clause's and the head noun's state of
    affairs must be an element of ``soas``, not an equal copy."""

    clauses: tuple[Clause, ...]
    soas: tuple[StateOfAffairs, ...]
    pses: tuple[Pse, ...] = ()
    parenthetical: Characters | None = None
    head_noun_private_state: StateOfAffairs | None = None
    quoted_speech: bool = False
    # the main clause, found once at construction and never compared
    main: Clause = field(init=False, repr=False, compare=False)
    # the states of affairs that may read as private states, in the order
    # Engine.choose_state_of_affairs prefers them
    private_candidates: tuple[StateOfAffairs, ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        clauses, soas, pses = self.clauses, self.soas, self.pses
        # each id a non-empty str that a set can hold and the writer can write
        for pse in pses:
            if not (isinstance(pse.id, str) and pse.id and pse.id.isascii()):
                _check_id("element", pse.id)
            if not isinstance(pse.category, PseCategory):
                raise ValidationError(f"element {pse.id!r} has unknown "
                                      f"category {pse.category!r}")
        for soa in soas:
            if not (isinstance(soa.id, str) and soa.id and soa.id.isascii()):
                _check_id("state-of-affairs", soa.id)
            if not isinstance(soa.type, SoaType):
                raise ValidationError(f"state of affairs {soa.id!r} has "
                                      f"unknown type {soa.type!r}")
        for clause in clauses:
            if not (isinstance(clause.id, str) and clause.id
                    and clause.id.isascii()):
                _check_id("clause", clause.id)
            vp = clause.vp
            if id(vp) not in _VERB_IDS and not (
                    type(vp) is VerbFeatures and all(
                        type(getattr(vp, flag)) is bool
                        for flag in VerbFeatures.__slots__)):
                raise ValidationError(f"clause {clause.id!r} has unknown "
                                      f"verb features {vp!r}")
        # a list of one holds no duplicate, so only longer lists build sets
        by_id = len(clauses) > 1 and {c.id: c for c in clauses}
        for what, objects, ids in (
                ("state-of-affairs", soas, soas[1:] and {a.id for a in soas}),
                ("clause", clauses, by_id),
                ("element", pses, pses[1:] and {p.id for p in pses})):
            if ids and len(ids) < len(objects):
                seen: set[str] = set()
                for obj in objects:
                    if obj.id in seen:
                        raise ValidationError(
                            f"duplicate {what} id {obj.id!r}")
                    seen.add(obj.id)
        # by identity: hashing each state of affairs would cost more
        known = set(map(id, soas))
        mains = []
        ids = set(by_id) if by_id else {clauses[0].id} if clauses else set()
        for clause in clauses:
            if id(clause.soa) not in known:
                raise ValidationError(
                    f"clause {clause.id!r} references unknown state of "
                    f"affairs {clause.soa!r}")
            if not isinstance(clause.under, frozenset):
                raise ValidationError(f"clause {clause.id!r}: {_UNDER}")
            if not clause.under:
                mains.append(clause)
            elif not clause.under <= ids:
                raise _unknown_clauses(f"clause {clause.id!r}", clause.under,
                                       ids)
        if not clauses:
            raise ValidationError("at least one clause required")
        if not mains:
            raise ValidationError(
                "no main clause (every clause is subordinated)")
        if len(mains) > 1:
            names = ", ".join(sorted(c.id for c in mains))
            raise ValidationError(f"multiple main clauses ({names})")
        if by_id:
            _check_acyclic(by_id)
        for pse in pses:
            if not isinstance(pse.under, frozenset):
                raise ValidationError(f"element {pse.id!r}: {_UNDER}")
            if not pse.under <= ids:
                raise _unknown_clauses(f"element {pse.id!r}", pse.under, ids)
        if self.parenthetical is not None and not self.parenthetical:
            raise ValidationError(
                "parenthetical subject must name at least one character")
        head = self.head_noun_private_state
        if head is not None:
            if id(head) not in known:
                raise ValidationError("headNounPrivateState references "
                                      f"unknown state of affairs {head!r}")
            if head.type is not SoaType.PRIVATE_STATE:
                raise ValidationError(
                    f"headNounPrivateState {head.id!r} must be a "
                    "private-state state of affairs")
        if type(self.quoted_speech) is not bool:
            raise ValidationError("quoted_speech must be a bool, not "
                                  f"{self.quoted_speech!r}")
        if self.quoted_speech and mains[0].soa.type is not SoaType.ACTION:
            raise ValidationError(
                "quoted speech must be about a communicative action (main "
                "state of affairs of type 'action')")
        object.__setattr__(self, "main", main := mains[0])
        candidates = [main.soa] if main.soa.type in PRIVATE_SOA_TYPES else []
        if head is not None:
            candidates.append(head)
        if len(clauses) > 1:
            private = [c for c in clauses if c.soa.type in PRIVATE_SOA_TYPES]
            private_ids = {c.id for c in private}
            candidates += [c.soa for c in private
                           if c.under and private_ids.isdisjoint(c.under)]
        object.__setattr__(self, "private_candidates", tuple(candidates))

    def clause_about(self, soa: StateOfAffairs) -> Clause | None:
        """The clause a state of affairs belongs to, the main clause
        first.  None for the head-noun one: a noun phrase has no clausal
        scope for an element to sit in."""
        if soa is not self.head_noun_private_state:
            if soa is self.main.soa:
                return self.main
            for clause in self.clauses:
                if clause.soa is soa:
                    return clause
        return None


def _check_id(what, value) -> None:
    """Refuse an id that is not a non-empty str the writer can write."""
    if not isinstance(value, str):
        raise ValidationError(f"{what} id {value!r} must be a string")
    if not value:
        raise ValidationError(f"{what} id must be a non-empty string")
    if has_lone_surrogate(value):
        raise ValidationError(
            f"{what} id {value!r} must not hold a lone surrogate")


def _unknown_clauses(owner, under, ids) -> ValidationError:
    """The error for an ``under`` that names clauses not in ``ids``; one
    holding an id that is not a str is refused as such, since the
    unknown ids could not be sorted to name them."""
    if not all(map(isinstance, under, _STR)):
        return ValidationError(f"{owner}: {_UNDER}")
    return ValidationError(f"{owner} subordinated to unknown clause(s) "
                           f"{sorted(under - ids)}")


def _check_acyclic(clauses: dict[str, Clause], order=iter) -> None:
    """Depth-first with an explicit stack, so that no chain is too long.
    Only once a cycle is found is each ``under`` walked in sorted order,
    so that the message names the same cycle under every hash seed."""
    finished: dict[str, bool] = {}  # False while on the stack
    for start in clauses:
        if start in finished:
            continue
        stack = [(start, order(clauses[start].under))]
        finished[start] = False
        while stack:
            node, parents = stack[-1]
            parent = next(parents, None)
            if parent is None:
                stack.pop()
                finished[node] = True
            elif parent not in finished:
                stack.append((parent, order(clauses[parent].under)))
                finished[parent] = False
            elif not finished[parent]:
                if order is iter:
                    _check_acyclic(clauses, lambda under: iter(sorted(under)))
                cycle = " -> ".join([n for n, _ in stack] + [parent])
                raise ValidationError(f"clause subordination cycle: {cycle}")


@dataclass(frozen=True, slots=True)
class Interpretation:
    """The verdict on one sentence: subjective of a character set, or
    objective with an (often empty) active character set."""

    subjective: bool
    characters: Characters

    @property
    def kind(self) -> str:
        return "subjective" if self.subjective else "objective"


@dataclass(frozen=True, slots=True)
class Sentence:
    """One annotated sentence, with its text and gold verdict if given."""

    id: str
    features: FeatureSet
    text: str | None = None
    gold: Interpretation | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.features, FeatureSet):
            raise ValidationError("features must be a FeatureSet, not "
                                  f"{self.features!r}")
        if not (self.text is None or isinstance(self.text, str)):
            raise ValidationError(f"text must be a string or None, not "
                                  f"{self.text!r}")
        if self.text is not None and has_lone_surrogate(self.text):
            raise ValidationError("text must not hold a lone surrogate")
        if not (self.gold is None or isinstance(self.gold, Interpretation)):
            raise ValidationError("gold must be an Interpretation or None, "
                                  f"not {self.gold!r}")
        if self.gold is not None and type(self.gold.subjective) is not bool:
            raise ValidationError("gold.subjective must be a bool, not "
                                  f"{self.gold.subjective!r}")
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError("sentence id must be a non-empty string")
        # the id heads a tab-separated verdict line, which it must not split
        if not SEPARATORS.isdisjoint(self.id):
            raise ValidationError(f"sentence id {self.id!r} must not hold a "
                                  "tab or line break")
        if has_lone_surrogate(self.id):
            raise ValidationError(f"sentence id {self.id!r} must not hold a "
                                  "lone surrogate")


@dataclass(frozen=True, slots=True)
class ParagraphBreak:
    """The end of a paragraph."""


@dataclass(frozen=True, slots=True)
class SceneBreak:
    """The end of a scene."""


InputItem = Sentence | ParagraphBreak | SceneBreak
