"""Reading, validating, and writing annotation documents and registries.

A document is JSON text, or bytes in UTF-8 (or UTF-16/32):

    {"title": str,                                        # optional
     "roster": [str, ...],
     "preamble": {"situation": str, "lastSC": [str], "previousSCs": [str],
                  "lastActiveCharacter": [str]},          # optional
     "items": [
        {"kind": "scene-break"} |
        {"kind": "paragraph-break"} |
        {"kind": "sentence", "id": str, "text": str,      # text optional
         "gold": {"type": "subjective"|"objective",
                  "characters": [str]},                   # optional
         "features": {
            "quotedSpeech": bool,
            "parenthetical": [str],                       # optional
            "headNounPrivateState": str,                  # optional soa id
            "soas":    [{"id": str, "type": str, "who": [str]}],
            "clauses": [{"id": str, "soa": str, "under": [str],
                         "vp": {"simplePast": bool, "negated": bool,
                                "habitual": bool, "modal": bool,
                                "pastPerfective": bool, "progressive": bool}}],
            "pses":    [{"id": str, "category": str, "under": [str]}]}}]}

Absent lists and "vp" are empty, absent flags false; sentence ids are
unique per document, other ids per list.  Text that is not JSON, or
bytes that do not decode, raise ParseError worded as the json module
words it; so does a document that is not an object.  Any other fault,
a lone surrogate among them, raises a ValidationError (RegistryError in
a registry) that names its place: the model refuses one in each string
it keeps, and any other string is refused as unknown or off-roster.

A registry file is a JSON object mapping a category name to
``{"level": 1..4, "excluded": bool}``; entries override the built-in
defaults, and categories the file does not mention keep them.
"""

from __future__ import annotations

import codecs
import itertools
import json
import re
from dataclasses import dataclass
from json.encoder import encode_basestring as _string

from .model import (
    Characters,
    Clause,
    Context,
    FeatureSet,
    INITIAL_CONTEXT,
    InputItem,
    Interpretation,
    NOBODY,
    ParagraphBreak,
    ParseError,
    PovTrackError,
    Pse,
    PseCategory,
    RegistryError,
    SEPARATORS,
    SceneBreak,
    SeenCharacters,
    Sentence,
    SoaType,
    StateOfAffairs,
    TextSituation,
    ValidationError,
    VERB_FEATURES,
    DEFAULT_REGISTRY,
    all_names,
    has_lone_surrogate,
)

# the "vp" flags in VerbFeatures field order
_VP_KEYS = ("simplePast", "negated", "habitual", "modal", "pastPerfective",
            "progressive")
_VP_FIELDS = frozenset(_VP_KEYS)
_ABSENT = (False,) * len(_VP_KEYS)
_BOOLS = (bool,) * len(_VP_KEYS)
_CONTEXT_SETS = ("lastSC", "previousSCs", "lastActiveCharacter")
_BREAK_KEYS = frozenset({"kind"})
_SENTENCE_KEYS = frozenset({"kind", "id", "text", "gold", "features"})
_GOLD_KEYS = frozenset({"type", "characters"})
_FEATURE_KEYS = frozenset({"quotedSpeech", "parenthetical",
                           "headNounPrivateState", "soas", "clauses", "pses"})
_SOA_KEYS = frozenset({"id", "type", "who"})
_CLAUSE_KEYS = frozenset({"id", "soa", "under", "vp"})
_PSE_KEYS = frozenset({"id", "category", "under"})
# the stdlib scanner, which decodes the one JSON value at an index, and
# the first character after the whitespace JSON allows between tokens,
# or a trailing comma with the "]" after it, which Pythons word apart
_SCAN = json.JSONDecoder().scan_once
_SPACE = json.decoder.WHITESPACE.pattern
_TOKEN = re.compile(f"{_SPACE}(,{_SPACE}]|.?){_SPACE}", re.DOTALL).match
_TOP_KEYS = frozenset({"title", "roster", "preamble", "items"})
_STR = itertools.repeat(str)  # isinstance's second argument, for map
# each member by its value, as Enum(value) finds it
_SOA_TYPES, _SITUATIONS = ({m.value: m for m in enum}
                           for enum in (SoaType, TextSituation))


@dataclass(frozen=True, slots=True)
class Document:
    """Building one checks the rules that need the whole document, and
    raises ValidationError for the first one broken."""

    title: str
    roster: Characters
    items: tuple[InputItem, ...]
    initial_context: Context = INITIAL_CONTEXT

    def __post_init__(self) -> None:
        if not isinstance(self.title, str):
            raise ValidationError("title must be a string")
        if has_lone_surrogate(self.title):
            raise ValidationError("title must not hold a lone surrogate")
        roster, seen = self.roster, set()
        _check_names(roster, "roster ")  # every other name set is in it
        if not isinstance(self.items, tuple):
            raise ValidationError("items must be a tuple, not "
                                  f"{type(self.items).__name__}")
        for i, item in enumerate(self.items):
            if not isinstance(item, Sentence):
                if not isinstance(item, (ParagraphBreak, SceneBreak)):
                    raise ValidationError(f"items[{i}]: unknown kind {item!r}")
                continue
            if item.id in seen:
                raise ValidationError(
                    f"items[{i}]: duplicate sentence id {item.id!r}")
            seen.add(item.id)
            for j, soa in enumerate(item.features.soas):
                if not (isinstance(soa.who, frozenset) and soa.who <= roster):
                    _check_names(soa.who, f"sentence {item.id}: "
                                 f"features.soas[{j}].who: ", roster)
            names = item.features.parenthetical
            if not (names is None or isinstance(names, frozenset)
                    and names <= roster):
                _check_names(names, f"sentence {item.id}: "
                             "features.parenthetical: ", roster)
            # a gold label may name a character the roster lacks
            names = NOBODY if item.gold is None else item.gold.characters
            if not (isinstance(names, frozenset) and names <= roster):
                _check_names(names, f"sentence {item.id}: gold.characters: ")
        ctx = self.initial_context
        if not isinstance(ctx, Context):
            raise ValidationError(f"preamble must be a Context, not {ctx!r}")
        if not isinstance(ctx.situation, TextSituation):
            raise ValidationError("preamble.situation: not a TextSituation: "
                                  f"{ctx.situation!r}")
        previous = ctx.previous_scs
        # a step's context may hold a view of its fold's log
        if isinstance(previous, SeenCharacters):
            previous = frozenset(previous)
        for key, names in zip(_CONTEXT_SETS, (
                ctx.last_sc, previous, ctx.last_active_character)):
            _check_names(names, f"preamble.{key}: ", roster)
        if ctx.last_sc and not ctx.last_sc <= previous:
            raise ValidationError("preamble: lastSC must be a subset of "
                                  "previousSCs when non-empty")

    def sentences(self) -> tuple[Sentence, ...]:
        return tuple(i for i in self.items if isinstance(i, Sentence))


# ---------------------------------------------------------------------------
# registries


def parse_registry(text: str | bytes) -> dict[str, PseCategory]:
    data = _Text(text, "registry: ", _REGISTRY_SCAN).value()
    if not isinstance(data, dict):
        raise RegistryError("registry: top level must be a JSON object")
    registry = dict(DEFAULT_REGISTRY)
    for name, entry in data.items():
        where = f"category {name!r}"
        base = registry.get(name)
        try:
            _object(entry, {"level", "excluded"}, where)
            if "level" not in entry and base is None:
                raise RegistryError(f"{where}: new category needs a level")
            level = entry["level"] if "level" in entry else base.level
            registry[name] = PseCategory(name, level, _flag(
                entry, "excluded", where, base is not None and base.excluded))
        except PovTrackError as exc:
            raise RegistryError(f"registry: {exc}") from None
    return registry


def load_registry(path) -> dict[str, PseCategory]:
    with open(path, "rb") as handle:
        return parse_registry(handle.read())


def _reject_duplicate_keys(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise RegistryError(f"registry: duplicate key {key!r}")
        out[key] = value
    return out


_REGISTRY_SCAN = json.JSONDecoder(
    object_pairs_hook=_reject_duplicate_keys).scan_once


# ---------------------------------------------------------------------------
# documents


def parse_document(text: str | bytes,
                   registry: dict[str, PseCategory] | None = None) -> Document:
    """Parse and fully validate one document.

    Each potential subjective element's category name is resolved once,
    here, in the registry (the built-in one when none is given): the
    element holds the ``PseCategory``, and a name the registry lacks is
    refused.

    Items are decoded and built one at a time, so neither the document's
    decoded JSON nor, for bytes, its decoded text is held whole (see
    ``_Text``).  The first fault met is raised: a bad registry, the
    text's faults as it is read, a top level other than an object of the
    known fields (items after an unknown one are decoded, not built), then
    the roster, "items" not an array, the preamble, title and ``Document``.
    A lone surrogate is refused by the check on the string holding it,
    in that check's turn.
    """
    registry = _checked_registry(registry)
    text, sets, fields = _Text(text, ""), _Shared(), {}
    if text.first != "{":
        text.value()
        raise ParseError("top level must be a JSON object")
    head = ""  # the scanner's stand-in for the object before the token
    token = text.token() if text.startswith("}") else ","
    while token == ",":
        if not text.startswith('"'):
            text.fault(head)
        key = text.scan()
        if text.token() != ":":
            text.fault('{""')
        # a field read again replaces the first, as in the json module
        if key == "items" and text.startswith("[") and (
                fields.keys() <= _TOP_KEYS):
            fields[key] = _scan_items(text, registry, sets)
        else:
            fields[key] = text.scan()
        token, head = text.token(), '{"":null'
    if token != "}":
        text.fault(head)
    text.end()
    _object(fields, _TOP_KEYS, "top level")
    roster = _characters(fields.get("roster", []), "roster", sets)
    items = tuple(_array(fields.get("items", []), "items"))
    initial = _parse_preamble(fields.get("preamble"), sets)
    return Document(fields.get("title", ""), roster, items, initial)


def load_document(path,
                  registry: dict[str, PseCategory] | None = None) -> Document:
    with open(path, "rb") as handle:
        return parse_document(handle.read(), registry)


def _scan_items(text, registry, sets) -> list:
    """The items of the JSON array next in ``text``, read past it and the
    whitespace after it.  Each item is decoded on its own and built once
    the next is read: its decoded JSON is freed soon after, and a syntax
    fault right after it is met first."""
    text.token()  # the "["
    items, held = [], []
    token = text.token() if text.startswith("]") else ","
    while token != "]":
        held.append(text.scan())
        token = text.token()
        if token not in (",", "]"):
            text.fault("[null")
        # the item before this one, or every item at the "]"
        while len(held) > (token == ","):
            items.append(_parse_item(held.pop(0), f"items[{len(items)}]",
                                     registry, sets))
    return items


# the bytes a parse decodes at a time
_WINDOW = 1 << 16


class _Text:
    """JSON text read from ``pos`` on: a str whole, as it is given, or
    bytes decoded strictly a window at a time.  A read that the window's
    end may have cut short is retried on a wider window, and the text
    read before it is then dropped.  A fault raises ParseError worded,
    and placed, as the json module words it in the strictly decoded text:
    ``at`` is where the last token read sits, and ``lines`` and ``last``
    count and place the line breaks dropped."""

    def __init__(self, raw, where, scanner=_SCAN):
        self.pos = self.offset = self.lines = 0
        self.last, self.where, self.scanner = -1, where, scanner
        if isinstance(raw, str):
            self.text, self.raw = raw, None
        elif isinstance(raw, (bytes, bytearray)):
            self.text, self.raw = "", raw
            encoding = json.detect_encoding(raw)
            # bytes.decode places a fault from after a UTF-8 BOM
            self.offset = self.skip = 3 if encoding == "utf-8-sig" else 0
            self.decoder = codecs.getincrementaldecoder(
                encoding.removesuffix("-sig"))()
        else:
            raise TypeError("the JSON object must be str, bytes or "
                            f"bytearray, not {type(raw).__name__}")
        self.first = self.token()  # the json module refuses a leading BOM
        if self.first == "\ufeff" and not self.at:
            self.fail(json.JSONDecodeError(
                "Unexpected UTF-8 BOM (decode using utf-8-sig)", "", 0))

    def _more(self) -> bool:
        """Decode the next window after the unread text, at least twice
        that text's length, so that a long value is read in O(n); false
        once the input is used up."""
        raw, start, text, pos = self.raw, self.offset, self.text, self.pos
        if raw is None:
            return False
        found = text.rfind("\n", 0, pos)
        self.lines += found >= 0 and text.count("\n", 0, pos)
        self.last = (self.last if found < 0 else found) - pos
        self.text, self.pos = self.text[self.pos:], 0  # drop the text read
        self.offset = end = start + max(_WINDOW, 2 * len(self.text))
        if end >= len(raw):
            self.raw = None
        try:
            # sliced, not viewed: a view would pin a bytearray's size
            self.text += self.decoder.decode(raw[start:end], self.raw is None)
        except UnicodeDecodeError as exc:
            # the decoder had held back the bytes of a character cut short
            at = exc.start + start - len(self.decoder.getstate()[0])
            at, size = at - self.skip, exc.end - exc.start
            bad = (f"byte 0x{exc.object[exc.start]:02x} in position {at}"
                   if size == 1 else f"bytes in position {at}-{at + size - 1}")
            self.fail(ValueError(f"'{exc.encoding}' codec can't decode {bad}: "
                                 f"{exc.reason}"))
        return True

    def startswith(self, char) -> bool:
        """Whether ``char`` is next: a token() before it settles that."""
        return self.text.startswith(char, self.pos)

    def token(self) -> str:
        """The token after the whitespace at ``pos`` ("" at the end), at
        ``at``; ``pos`` moves past it and the whitespace after it."""
        while True:
            found = _TOKEN(self.text, self.pos)
            if found.end() < len(self.text) or not self._more():
                self.pos, self.at = found.end(), found.start(1)
                return found[1]

    def scan(self):
        """The JSON value at ``pos``, which moves past it.  A number cut
        by the window's end still decodes, as 1 of 1.5 or 1e+5: a value is
        taken only with three characters after it, or at the input's end.
        A fault is raised once more text could not change it."""
        while True:
            try:
                value, end = self.scanner(self.text, self.pos)
            except (ValueError, StopIteration, RecursionError) as exc:
                if self._settled(exc) or not self._more():
                    self.fail(exc)
                continue
            if end + 3 <= len(self.text) or not self._more():
                self.pos = end
                return value

    def _settled(self, exc) -> bool:
        """Whether more text would leave a fault as it is.  The scanner looks
        9 characters past one (-Infinity), unterminated strings aside, and
        an integer's digit count may grow if the text ends in 1, 1. or 1e-."""
        if isinstance(exc, StopIteration):
            return exc.value + 16 <= len(self.text)
        if isinstance(exc, json.JSONDecodeError):
            return (not exc.msg.startswith("Unterminated string")
                    and exc.pos + 16 <= len(self.text))
        return not re.search(r"[0-9](\.|[eE][-+]?)?\Z", self.text[-3:])

    def value(self):
        """The one JSON value from the last token to the text's end."""
        self.pos = self.at
        value = self.scan()
        self.end()
        return value

    def end(self) -> None:
        if self.token():
            self.fail(json.JSONDecodeError("Extra data", "", self.at))

    def fault(self, head) -> None:
        """Raise the fault the scanner meets in ``head``, a stand-in for
        the container read so far that no token extends, and the text
        from the last token on."""
        try:
            _SCAN(head + self.text[self.at:], 0)
        except (ValueError, StopIteration) as exc:
            self.fail(exc, self.at - len(head))
        raise AssertionError(f"{head!r} and the text after it scanned")

    def fail(self, exc, shift=0) -> None:
        """Raise the ParseError of a fault the scanner raised, placed
        ``shift`` characters on in the window."""
        if isinstance(exc, StopIteration):
            exc = json.JSONDecodeError("Expecting value", "", exc.value)
        message = f"cannot decode JSON: {exc}"
        if isinstance(exc, json.JSONDecodeError):
            place = exc.pos + shift
            found = self.text.rfind("\n", 0, place)
            line = self.lines + self.text.count("\n", 0, place) + 1
            col = place - (self.last if found < 0 else found)
            message = f"invalid JSON at line {line}, column {col}: {exc.msg}"
        raise ParseError(self.where + message) from None


def _checked_registry(registry) -> dict[str, PseCategory]:
    """The registry to resolve category names in, the built-in one when
    none is given.  An element keeps only the category, so each name
    must be its category's key."""
    registry = DEFAULT_REGISTRY if registry is None else registry
    for name, category in registry.items():
        if not isinstance(category, PseCategory) or category.name != name:
            raise RegistryError(f"registry: {name!r} must map to a "
                                f"PseCategory named {name!r}")
    return registry


def _parse_preamble(raw, sets) -> Context:
    if raw is None:
        return INITIAL_CONTEXT
    _object(raw, {"situation", *_CONTEXT_SETS}, "preamble")
    situation = _member(_SITUATIONS, raw.get(
        "situation", TextSituation.PRESUBJECTIVE_NONACTIVE.value),
        "preamble", "text situation")
    last_sc, previous, last_active = (
        _characters(raw.get(key, []), f"preamble.{key}", sets)
        for key in _CONTEXT_SETS)
    return Context(last_sc, last_active, previous, situation)


def _parse_item(raw, where, registry, sets) -> InputItem:
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: must be an object")
    kind = raw.get("kind")
    if kind in ("scene-break", "paragraph-break"):
        _object(raw, _BREAK_KEYS, where)
        return SceneBreak() if kind == "scene-break" else ParagraphBreak()
    if kind != "sentence":
        raise ValidationError(f"{where}: unknown kind {kind!r}")
    _object(raw, _SENTENCE_KEYS, where)
    sid = _id(raw, where, "sentence")
    try:
        text = raw.get("text")
        if text is not None and not isinstance(text, str):
            raise ValidationError("text must be a string")
        features = _parse_features(raw.get("features"), registry, sets)
        gold = raw.get("gold")
        if gold is not None:
            _object(gold, _GOLD_KEYS, "gold")
            if gold.get("type") not in ("subjective", "objective"):
                raise ValidationError(
                    "gold.type must be 'subjective' or 'objective'")
            gold = sets.label(gold["type"] == "subjective", _characters(
                gold.get("characters", []), "gold.characters", sets))
    except ValidationError as exc:
        raise ValidationError(f"sentence {sid}: {exc}") from None
    try:
        return Sentence(id=sid, features=features, text=text, gold=gold)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _parse_features(raw, registry, sets) -> FeatureSet:
    _object(raw, _FEATURE_KEYS, "features")
    soas = _entries(raw.get("soas", []), "features.soas",
                    lambda entry: _parse_soa(entry, sets))
    # an unknown id stays a string, which FeatureSet refuses
    by_id = {soa.id: soa for soa in soas}
    clauses = _entries(raw.get("clauses", []), "features.clauses",
                       lambda entry: _parse_clause(entry, by_id, sets))
    pses = _entries(raw.get("pses", []), "features.pses",
                    lambda entry: _parse_pse(entry, registry, sets))
    parenthetical = raw.get("parenthetical")
    if parenthetical is not None:
        parenthetical = _characters(parenthetical, "features.parenthetical",
                                    sets)
    quoted = _flag(raw, "quotedSpeech", "features")
    head = raw.get("headNounPrivateState")
    if isinstance(head, str):
        head = by_id.get(head, head)
    return FeatureSet(clauses, soas, pses, parenthetical, head, quoted)


def _entries(value, where, parse) -> tuple:
    """``parse`` of each entry of an array.  The entry readers name their
    place "", so a message holds only what follows it, and the entry's
    place ``where[i]`` is written only when one fails."""
    out = []
    for entry in _array(value, where):
        try:
            out.append(parse(entry))
        except ValidationError as exc:
            raise ValidationError(f"{where}[{len(out)}]{exc}") from None
    return tuple(out)


def _parse_soa(raw, sets) -> StateOfAffairs:
    _object(raw, _SOA_KEYS, "")
    return StateOfAffairs(
        sets[_id(raw, "", "state-of-affairs")],
        _member(_SOA_TYPES, raw.get("type", ""), "", "state-of-affairs type"),
        _characters(raw.get("who", []), ".who", sets))


def _parse_clause(raw, soas, sets) -> Clause:
    _object(raw, _CLAUSE_KEYS, "")
    clause_id = sets[_id(raw, "", "clause")]
    soa = raw.get("soa")
    if not isinstance(soa, str):
        raise ValidationError(": soa must be a string")
    under = _under(raw, sets)
    vp = _object(raw.get("vp", {}), _VP_FIELDS, ".vp")
    flags = tuple(map(vp.get, _VP_KEYS, _ABSENT))
    # 1 and 0 would find the entries of True and False
    if not all(map(isinstance, flags, _BOOLS)):
        key = next(k for k, v in zip(_VP_KEYS, flags)
                   if not isinstance(v, bool))
        raise ValidationError(f": vp.{key} must be a boolean")
    return Clause(clause_id, soas.get(soa, soa), under, VERB_FEATURES[flags])


def _parse_pse(raw, registry, sets) -> Pse:
    _object(raw, _PSE_KEYS, "")
    pse_id = sets[_id(raw, "", "element")]
    category = raw.get("category")
    if not isinstance(category, str) or not category:
        raise ValidationError(": category must be a non-empty string")
    # an unknown name stays a name, which FeatureSet refuses
    return Pse(pse_id, registry.get(category, category), _under(raw, sets))


# -- field readers: each checks one shape and names the place that breaks it


def _object(value, keys, where) -> dict:
    if not isinstance(value, dict):
        raise ValidationError(f"{where}: must be an object")
    if not value.keys() <= keys:
        raise ValidationError(f"{where}: unknown field(s) "
                              f"{sorted(value.keys() - keys)}")
    return value


def _id(raw, where, what) -> str:
    value = raw.get("id")
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{where}: {what} id must be a non-empty string")
    return value


def _under(raw, sets) -> frozenset[str]:
    value = raw.get("under", [])
    if not isinstance(value, list) or not all(map(isinstance, value, _STR)):
        raise ValidationError(": under must be an array of clause ids")
    return sets[tuple(value)]


def _flag(raw, key, where, default=False) -> bool:
    value = raw.get(key, default)
    if not isinstance(value, bool):
        raise ValidationError(f"{where}: {key} must be a boolean")
    return value


def _characters(value, where, sets) -> Characters:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: must be an array of names")
    if not all_names(value):
        raise ValidationError(f"{where}: names must be non-empty strings")
    return sets[tuple(value)]


class _Shared(dict):
    """One parse's table, so that the equal values it reads share one
    object: each id or name maps to the first equal str met, and each
    tuple of names to the one frozenset of them, built of those strs the
    first time the tuple is met.  ``label`` gives each gold label's
    (subjective, characters) one Interpretation."""

    def __init__(self) -> None:
        super().__init__({(): NOBODY})
        self.labels: dict[tuple[bool, Characters], Interpretation] = {}

    def __missing__(self, key):
        # setdefault, not self[name]: a new name costs no Python call
        found = self[key] = (key if isinstance(key, str)
                             else frozenset(map(self.setdefault, key, key)))
        return found

    def label(self, subjective, characters) -> Interpretation:
        key = (subjective, characters)
        found = self.labels.get(key)
        if found is None:
            found = self.labels[key] = Interpretation(subjective, characters)
        return found


def _check_names(names, where, roster=None) -> None:
    """Refuse all but printable, encodable names; ``where`` heads each
    message."""
    if not isinstance(names, frozenset) or not all_names(names):
        raise ValidationError(f"{where}must be a frozenset of non-empty "
                              "strings")
    if roster is not None and not names <= roster:
        raise ValidationError(
            f"{where}character(s) {sorted(names - roster)} not in roster")
    if broken := [name for name in names if not SEPARATORS.isdisjoint(name)]:
        raise ValidationError(f"{where}name {min(broken)!r} must not hold a "
                              "tab or line break")
    if has_lone_surrogate("".join(names)):
        broken = [name for name in names if has_lone_surrogate(name)]
        raise ValidationError(f"{where}name {min(broken)!r} must not hold a "
                              "lone surrogate")


def _member(members, value, where, what):
    try:
        return members[value]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        raise ValidationError(f"{where}: unknown {what} {value!r}") from None


def _array(value, where) -> list:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: must be an array")
    return value


# ---------------------------------------------------------------------------
# gold-label checks and serialization


def validate_gold(document: Document) -> list[str]:
    """Non-fatal problems with a document's gold labels."""
    warnings = []
    sentences = document.sentences()
    labelled = [s for s in sentences if s.gold is not None]
    if labelled and len(labelled) < len(sentences):
        for sentence in sentences:
            if sentence.gold is None:
                warnings.append(f"sentence {sentence.id} has no gold label "
                                "but other sentences do")
    for sentence in labelled:
        off = sentence.gold.characters - document.roster
        if off:
            warnings.append(f"sentence {sentence.id}: gold character(s) "
                            f"{sorted(off)} not in roster")
    return warnings


def dumps_document(document: Document) -> str:
    """``json.dumps(..., indent=2, ensure_ascii=False)`` of the dict view,
    written from the model, since that encoder indents in pure Python."""
    ctx = document.initial_context
    fields = [f'"title": {_string(document.title)}',
              f'"roster": {_names(document.roster, 1)}']
    if ctx != INITIAL_CONTEXT:
        sets = ctx.last_sc, ctx.previous_scs, ctx.last_active_character
        fields.append('"preamble": ' + _json([
            f'"situation": "{ctx.situation.value}"', *(
                f'"{key}": {_names(names, 2)}'
                for key, names in zip(_CONTEXT_SETS, sets))], 1, "{}"))
    # a parse shares one frozenset between a gold label and a who, which
    # are written at different depths, so each depth has its own table
    at4, at6 = _Written(4), _Written(6)
    items = [_BREAKS.get(type(item)) or _sentence_json(item, at4, at6)
             for item in document.items]
    fields.append(f'"items": {_json(items, 1)}')
    return _json(fields, 0, "{}")


# a line break and the indent of each depth of dumps_document's text
_LINE = tuple("\n" + "  " * depth for depth in range(8))
_L2, _L3, _L4, _L5, _L6 = _LINE[2:7]


def _json(parts, depth, brackets="[]") -> str:
    """An array, or object, of written parts, a line each at depth + 1."""
    if not parts:
        return brackets
    line = _LINE[depth + 1]
    return (f"{brackets[0]}{line}{(',' + line).join(parts)}{_LINE[depth]}"
            f"{brackets[1]}")


def _names(names, depth) -> str:
    return _json(list(map(_string, sorted(names))), depth) if names else "[]"


class _Written(dict):
    """What ``_names`` writes for each name set at one depth, filled on
    first use: a set is immutable and equal sets write equal text."""

    __slots__ = ("depth",)

    def __init__(self, depth) -> None:
        self.depth = depth

    def __missing__(self, names) -> str:
        text = self[names] = _names(names, self.depth)
        return text


_BREAKS = {kind: _json([f'"kind": "{name}"'], 2, "{}") for kind, name in (
    (SceneBreak, "scene-break"), (ParagraphBreak, "paragraph-break"))}
# the "vp" object of each of the 64 VerbFeatures values
_VP_JSON = {vp: _json([f'"{key}": true' for key, on in zip(_VP_KEYS, flags)
                       if on], 6, "{}")
            for flags, vp in VERB_FEATURES.items()}
# by identity, since hashing a frozen dataclass runs in Python
_VP_BY_ID = {id(vp): text for vp, text in _VP_JSON.items()}


def _sentence_json(s: Sentence, at4: _Written, at6: _Written) -> str:
    out = f'{{{_L3}"kind": "sentence",{_L3}"id": {_string(s.id)}'
    if s.text is not None:
        out += f',{_L3}"text": {_string(s.text)}'
    if s.gold is not None:
        out += (f',{_L3}"gold": {{{_L4}"type": "{s.gold.kind}",{_L4}'
                f'"characters": {at4[s.gold.characters]}{_L3}}}')
    fs = s.features
    out += (f',{_L3}"features": {{{_L4}"quotedSpeech": '
            f'{"true" if fs.quoted_speech else "false"}')
    if fs.parenthetical is not None:
        out += f',{_L4}"parenthetical": {at4[fs.parenthetical]}'
    if fs.head_noun_private_state is not None:
        out += (f',{_L4}"headNounPrivateState": '
                f'{_string(fs.head_noun_private_state.id)}')
    soas = [f'{{{_L6}"id": {_string(a.id)},{_L6}"type": "{a.type.value}",'
            f'{_L6}"who": {at6[a.who]}{_L5}}}' for a in fs.soas]
    clauses = [f'{{{_L6}"id": {_string(c.id)},{_L6}"soa": {_string(c.soa.id)},'
               f'{_L6}"under": {at6[c.under]},{_L6}"vp": '
               f'{_VP_BY_ID.get(id(c.vp)) or _VP_JSON[c.vp]}{_L5}}}'
               for c in fs.clauses]
    pses = [f'{{{_L6}"id": {_string(p.id)},{_L6}"category": '
            f'{_string(p.category.name)},{_L6}"under": '
            f'{at6[p.under]}{_L5}}}' for p in fs.pses]
    return (f'{out},{_L4}"soas": {_json(soas, 4)},{_L4}"clauses": '
            f'{_json(clauses, 4)},{_L4}"pses": {_json(pses, 4)}{_L3}}}{_L2}}}')
