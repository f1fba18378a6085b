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
unique per document, other ids per list.  Undecodable input (a
string holding a lone surrogate included), or a document that is not
an object, raises ParseError; any other fault a ValidationError
(RegistryError in a registry) that names its place.

A registry file is a JSON object mapping a category name to
``{"level": 1..4, "excluded": bool}``; entries override the built-in
defaults, and categories the file does not mention keep them.
"""

from __future__ import annotations

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
    ParagraphBreak,
    ParseError,
    PovTrackError,
    Pse,
    PseCategory,
    RegistryError,
    SceneBreak,
    Sentence,
    SoaType,
    StateOfAffairs,
    TextSituation,
    ValidationError,
    VerbFeatures,
    DEFAULT_REGISTRY,
)

_VP_KEYS = {
    "simplePast": "simple_past",
    "negated": "negated",
    "habitual": "habitual",
    "modal": "modal",
    "pastPerfective": "past_perfective",
    "progressive": "progressive",
}
_CONTEXT_SETS = ("lastSC", "previousSCs", "lastActiveCharacter")
_BREAK_KEYS = frozenset({"kind"})
_SENTENCE_KEYS = frozenset({"kind", "id", "text", "gold", "features"})
_GOLD_KEYS = frozenset({"type", "characters"})
_FEATURE_KEYS = frozenset({"quotedSpeech", "parenthetical",
                           "headNounPrivateState", "soas", "clauses", "pses"})
_SOA_KEYS = frozenset({"id", "type", "who"})
_CLAUSE_KEYS = frozenset({"id", "soa", "under", "vp"})
_PSE_KEYS = frozenset({"id", "category", "under"})
# half of a UTF-16 pair, and the JSON escape that can spell one
_SURROGATE = re.compile("[\ud800-\udfff]")
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


@dataclass(frozen=True)
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
        roster, seen = self.roster, set()
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
                if not soa.who <= roster:
                    raise _off_roster(soa.who, roster, f"sentence {item.id}: "
                                      f"features.soas[{j}].who")
            parenthetical = item.features.parenthetical
            if parenthetical is not None and not parenthetical <= roster:
                raise _off_roster(parenthetical, roster, f"sentence "
                                  f"{item.id}: features.parenthetical")
        ctx = self.initial_context
        for key, names in zip(_CONTEXT_SETS, (
                ctx.last_sc, ctx.previous_scs, ctx.last_active_character)):
            if not names <= roster:
                raise _off_roster(names, roster, f"preamble.{key}")
        if ctx.last_sc and not ctx.last_sc <= ctx.previous_scs:
            raise ValidationError("preamble: lastSC must be a subset of "
                                  "previousSCs when non-empty")

    def sentences(self) -> tuple[Sentence, ...]:
        return tuple(i for i in self.items if isinstance(i, Sentence))


# ---------------------------------------------------------------------------
# registries


def parse_registry(text: str | bytes) -> dict[str, PseCategory]:
    data = _decode(text, "registry: ", _reject_duplicate_keys)
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
            raise RegistryError(f"duplicate key {key!r}")
        out[key] = value
    return out


def _decode(raw, where, object_pairs_hook=None):
    """``json.loads``, raising ParseError for bad syntax and equally for
    bytes that are not UTF-8, too-long numbers, too-deep nesting and
    strings holding a lone surrogate, which no output could encode."""
    text = raw
    try:
        if isinstance(raw, (bytes, bytearray)):
            # strictly, unlike json.loads: UTF-8 has no encoded surrogates
            text = raw.decode(json.detect_encoding(raw))
        data = json.loads(text, object_pairs_hook=object_pairs_hook)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{where}cannot decode JSON: {exc}") from None
    # one scan for an escape that could spell a lone surrogate, and only
    # a hit walks the decoded value; the code point itself can only be
    # in a str the caller passed, since decoding bytes strictly refuses it
    if _SURROGATE_ESCAPE.search(text) or (
            text is raw and not text.isascii() and _SURROGATE.search(text)):
        _reject_lone_surrogates(data, where)
    return data


def _reject_lone_surrogates(data, where) -> None:
    """Raise ParseError naming a string, or a field name, that holds a
    lone surrogate.  Escapes that pair up decode to one character and
    pass.  A value met again, as in a cyclic dict, is not walked twice."""
    stack = [("", data)]
    seen: set[int] = set()
    while stack:
        place, value = stack.pop()
        if id(value) in seen:
            continue
        seen.add(id(value))
        if isinstance(value, dict):
            for key, child in value.items():
                found = isinstance(key, str) and _SURROGATE.search(key)
                if found:
                    raise ParseError(f"{where}{place or 'top level'}: field "
                                     "name has a lone surrogate "
                                     f"{ascii(found.group())}")
                stack.append((f"{place}.{key}" if place else key, child))
        elif isinstance(value, list):
            stack.extend((f"{place}[{i}]", child)
                         for i, child in enumerate(value))
        elif isinstance(value, str):
            found = _SURROGATE.search(value)
            if found:
                raise ParseError(f"{where}{place or 'top level'}: lone "
                                 f"surrogate {ascii(found.group())}")


# ---------------------------------------------------------------------------
# documents


def parse_document(text: str | bytes,
                   registry: dict[str, PseCategory] | None = None) -> Document:
    """Parse and fully validate one document.

    Each potential subjective element's category name is resolved once,
    here, in the registry (the built-in one when none is given): the
    element holds the ``PseCategory``, and a name the registry lacks is
    refused.
    """
    return _build_document(_decode(text, ""), registry)


def load_document(path,
                  registry: dict[str, PseCategory] | None = None) -> Document:
    with open(path, "rb") as handle:
        return parse_document(handle.read(), registry)


def document_from_dict(data,
                       registry: dict[str, PseCategory] | None = None
                       ) -> Document:
    """Validate and build a document from already-decoded JSON data."""
    _reject_lone_surrogates(data, "")
    return _build_document(data, registry)


def _build_document(data, registry) -> Document:
    """The document in decoded JSON free of lone surrogates."""
    registry = DEFAULT_REGISTRY if registry is None else registry
    # an element keeps only the category, so its name must be the key
    for name, category in registry.items():
        if not isinstance(category, PseCategory) or category.name != name:
            raise RegistryError(f"registry: {name!r} must map to a "
                                f"PseCategory named {name!r}")
    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object")
    _object(data, {"title", "roster", "preamble", "items"}, "top level")
    roster = _characters(data.get("roster", []), "roster")
    raw_items = _array(data.get("items", []), "items")
    items = tuple(_parse_item(raw, f"items[{i}]", registry)
                  for i, raw in enumerate(raw_items))
    initial = _parse_preamble(data.get("preamble"))
    return Document(data.get("title", ""), roster, items, initial)


def _parse_preamble(raw) -> Context:
    if raw is None:
        return INITIAL_CONTEXT
    _object(raw, {"situation", *_CONTEXT_SETS}, "preamble")
    situation = _member(TextSituation, raw.get(
        "situation", TextSituation.PRESUBJECTIVE_NONACTIVE.value),
        "preamble", "text situation")
    last_sc, previous, last_active = (
        _characters(raw.get(key, []), f"preamble.{key}")
        for key in _CONTEXT_SETS)
    return Context(last_sc, last_active, previous, situation)


def _parse_item(raw, where, registry) -> InputItem:
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
    text = raw.get("text")
    if text is not None and not isinstance(text, str):
        raise ValidationError(f"sentence {sid}: text must be a string")
    features = _parse_features(raw.get("features"), sid, registry)
    gold = raw.get("gold")
    if gold is not None:
        _object(gold, _GOLD_KEYS, f"sentence {sid}: gold")
        if gold.get("type") not in ("subjective", "objective"):
            raise ValidationError(f"sentence {sid}: gold.type must be "
                                  "'subjective' or 'objective'")
        who = _characters(gold.get("characters", []),
                          f"sentence {sid}: gold.characters")
        gold = Interpretation(gold["type"] == "subjective", who)
    try:
        return Sentence(id=sid, features=features, text=text, gold=gold)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _parse_features(raw, sid, registry) -> FeatureSet:
    where = f"sentence {sid}: features"
    _object(raw, _FEATURE_KEYS, where)

    soas: list[StateOfAffairs] = []
    for i, entry in enumerate(_array(raw.get("soas", []), f"{where}.soas")):
        place = f"{where}.soas[{i}]"
        _object(entry, _SOA_KEYS, place)
        soa_id = _id(entry, place, "state-of-affairs")
        soa_type = _member(SoaType, entry.get("type", ""), place,
                           "state-of-affairs type")
        who = _characters(entry.get("who", []), f"{place}.who")
        soas.append(StateOfAffairs(soa_id, soa_type, who))

    clauses: list[Clause] = []
    for i, entry in enumerate(_array(raw.get("clauses", []),
                                     f"{where}.clauses")):
        place = f"{where}.clauses[{i}]"
        _object(entry, _CLAUSE_KEYS, place)
        clause_id = _id(entry, place, "clause")
        soa = entry.get("soa")
        if not isinstance(soa, str):
            raise ValidationError(f"{place}: soa must be a string")
        under = _under(entry, place)
        vp = _object(entry.get("vp", {}), _VP_KEYS.keys(), f"{place}.vp")
        flags = {}
        for key, attr in _VP_KEYS.items():
            value = vp.get(key, False)
            if not isinstance(value, bool):
                raise ValidationError(f"{place}: vp.{key} must be a boolean")
            flags[attr] = value
        clauses.append(Clause(clause_id, soa, under, VerbFeatures(**flags)))

    pses: list[Pse] = []
    for i, entry in enumerate(_array(raw.get("pses", []), f"{where}.pses")):
        place = f"{where}.pses[{i}]"
        _object(entry, _PSE_KEYS, place)
        pse_id = _id(entry, place, "element")
        category = entry.get("category")
        if not isinstance(category, str) or not category:
            raise ValidationError(f"{place}: category must be a non-empty "
                                  "string")
        # an unknown name stays a name, which FeatureSet refuses
        pses.append(Pse(pse_id, registry.get(category, category),
                        _under(entry, place)))

    parenthetical = raw.get("parenthetical")
    if parenthetical is not None:
        parenthetical = _characters(parenthetical, f"{where}.parenthetical")
    quoted = _flag(raw, "quotedSpeech", where)
    try:
        return FeatureSet(tuple(clauses), tuple(soas), tuple(pses),
                          parenthetical, raw.get("headNounPrivateState"),
                          quoted)
    except ValidationError as exc:
        raise ValidationError(f"sentence {sid}: {exc}") from None


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


def _under(raw, where) -> frozenset[str]:
    value = raw.get("under", [])
    if (not isinstance(value, list)
            or not all(isinstance(u, str) for u in value)):
        raise ValidationError(f"{where}: under must be an array of clause "
                              "ids")
    return frozenset(value)


def _flag(raw, key, where, default=False) -> bool:
    value = raw.get(key, default)
    if not isinstance(value, bool):
        raise ValidationError(f"{where}: {key} must be a boolean")
    return value


def _characters(value, where) -> Characters:
    if not isinstance(value, list):
        raise ValidationError(f"{where}: must be an array of names")
    for name in value:
        if not isinstance(name, str) or not name:
            raise ValidationError(f"{where}: names must be non-empty strings")
    return frozenset(value)


def _off_roster(names, roster, where) -> ValidationError:
    return ValidationError(f"{where}: character(s) "
                           f"{sorted(names - roster)} not in roster")


def _member(enum, value, where, what):
    try:
        return enum(value)
    except ValueError:
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


def document_to_dict(document: Document) -> dict:
    """The parsed view of ``dumps_document``'s text."""
    return json.loads(dumps_document(document))


def dumps_document(document: Document) -> str:
    """``json.dumps(..., indent=2, ensure_ascii=False)`` of the dict view,
    written from the model, since that encoder indents in pure Python.  A
    field of a type with no JSON text raises ValidationError naming its
    sentence."""
    ctx = document.initial_context
    fields = [f'"title": {_string(document.title)}',
              f'"roster": {_names(document.roster, 1)}']
    if ctx != INITIAL_CONTEXT:
        sets = ctx.last_sc, ctx.previous_scs, ctx.last_active_character
        fields.append('"preamble": ' + _json([
            f'"situation": "{ctx.situation.value}"', *(
                f'"{key}": {_names(names, 2)}'
                for key, names in zip(_CONTEXT_SETS, sets))], 1, "{}"))
    items = []
    for item in document.items:
        try:
            items.append(_BREAKS.get(type(item)) or _sentence_json(item))
        except (AttributeError, KeyError, TypeError) as exc:
            raise ValidationError(f"sentence {item.id}: cannot be written: "
                                  f"{exc}") from None
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


_BREAKS = {kind: _json([f'"kind": "{name}"'], 2, "{}") for kind, name in (
    (SceneBreak, "scene-break"), (ParagraphBreak, "paragraph-break"))}
# the "vp" object of each of the 64 VerbFeatures values
_VP_JSON = {vp: _json([f'"{key}": true' for key, attr in _VP_KEYS.items()
                       if getattr(vp, attr)], 6, "{}")
            for vp in itertools.starmap(VerbFeatures, itertools.product(
                (False, True), repeat=len(_VP_KEYS)))}


def _sentence_json(s: Sentence) -> str:
    out = f'{{{_L3}"kind": "sentence",{_L3}"id": {_string(s.id)}'
    if s.text is not None:
        out += f',{_L3}"text": {_string(s.text)}'
    if s.gold is not None:
        out += (f',{_L3}"gold": {{{_L4}"type": "{s.gold.kind}",{_L4}'
                f'"characters": {_names(s.gold.characters, 4)}{_L3}}}')
    fs = s.features
    out += (f',{_L3}"features": {{{_L4}"quotedSpeech": '
            f'{"true" if fs.quoted_speech else "false"}')
    if fs.parenthetical is not None:
        out += f',{_L4}"parenthetical": {_names(fs.parenthetical, 4)}'
    if fs.head_noun_private_state is not None:
        out += (f',{_L4}"headNounPrivateState": '
                f'{_string(fs.head_noun_private_state)}')
    soas = [f'{{{_L6}"id": {_string(a.id)},{_L6}"type": "{a.type.value}",'
            f'{_L6}"who": {_names(a.who, 6)}{_L5}}}' for a in fs.soas]
    clauses = [f'{{{_L6}"id": {_string(c.id)},{_L6}"soa": {_string(c.soa)},'
               f'{_L6}"under": {_names(c.under, 6)},{_L6}"vp": '
               f'{_VP_JSON[c.vp]}{_L5}}}' for c in fs.clauses]
    pses = [f'{{{_L6}"id": {_string(p.id)},{_L6}"category": '
            f'{_string(p.category.name)},{_L6}"under": '
            f'{_names(p.under, 6)}{_L5}}}' for p in fs.pses]
    return (f'{out},{_L4}"soas": {_json(soas, 4)},{_L4}"clauses": '
            f'{_json(clauses, 4)},{_L4}"pses": {_json(pses, 4)}{_L3}}}{_L2}}}')
