"""Reading, validating, and writing annotation documents and registries.

A document is UTF-8 JSON:

    {"title": str,
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

A registry file is a JSON object mapping a category name to
``{"level": 1..4, "excluded": bool}``; entries override the built-in
defaults, and categories the file does not mention keep them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Document:
    title: str
    roster: Characters
    items: tuple[InputItem, ...]
    initial_context: Context = INITIAL_CONTEXT

    def sentences(self) -> tuple[Sentence, ...]:
        return tuple(i for i in self.items if isinstance(i, Sentence))


# ---------------------------------------------------------------------------
# registries


def parse_registry(text: str | bytes) -> dict[str, PseCategory]:
    try:
        data = json.loads(text, object_pairs_hook=_reject_duplicate_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"registry: invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from None
    if not isinstance(data, dict):
        raise RegistryError("registry: top level must be a JSON object")
    registry = dict(DEFAULT_REGISTRY)
    for name, entry in data.items():
        if not isinstance(entry, dict):
            raise RegistryError(f"registry: category {name!r}: entry must be "
                                "an object")
        unknown = set(entry) - {"level", "excluded"}
        if unknown:
            raise RegistryError(f"registry: category {name!r}: unknown "
                                f"field(s) {sorted(unknown)}")
        base = registry.get(name)
        if "level" in entry:
            level = entry["level"]
            if not isinstance(level, int) or isinstance(level, bool):
                raise RegistryError(f"registry: category {name!r}: level must "
                                    "be an integer")
        elif base is not None:
            level = base.level
        else:
            raise RegistryError(f"registry: new category {name!r} must "
                                "specify a level")
        if "excluded" in entry:
            excluded = entry["excluded"]
            if not isinstance(excluded, bool):
                raise RegistryError(f"registry: category {name!r}: excluded "
                                    "must be a boolean")
        else:
            excluded = base.excluded if base is not None else False
        registry[name] = PseCategory(name, level, excluded)
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


# ---------------------------------------------------------------------------
# documents


def parse_document(text: str | bytes,
                   registry: dict[str, PseCategory] | None = None) -> Document:
    """Parse and fully validate one document.

    Every potential-subjective-element category in the document must
    resolve in the registry, the built-in one when none is given.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from None
    return document_from_dict(data, registry)


def load_document(path,
                  registry: dict[str, PseCategory] | None = None) -> Document:
    with open(path, "rb") as handle:
        return parse_document(handle.read(), registry)


def document_from_dict(data,
                       registry: dict[str, PseCategory] | None = None
                       ) -> Document:
    registry = DEFAULT_REGISTRY if registry is None else registry
    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object")
    unknown = set(data) - {"title", "roster", "preamble", "items"}
    if unknown:
        raise ValidationError(f"unknown top-level field(s) {sorted(unknown)}")
    title = data.get("title", "")
    if not isinstance(title, str):
        raise ValidationError("title must be a string")
    roster = _character_list(data.get("roster", []), "roster")
    raw_items = data.get("items", [])
    if not isinstance(raw_items, list):
        raise ValidationError("items must be an array")

    items: list[InputItem] = []
    seen_ids: set[str] = set()
    for position, raw in enumerate(raw_items):
        items.append(_parse_item(raw, position, roster, registry, seen_ids))

    initial = _parse_preamble(data.get("preamble"), roster)
    return Document(title=title, roster=roster, items=tuple(items),
                    initial_context=initial)


def _parse_preamble(raw, roster: Characters) -> Context:
    if raw is None:
        return INITIAL_CONTEXT
    if not isinstance(raw, dict):
        raise ValidationError("preamble must be an object")
    unknown = set(raw) - {"situation", "lastSC", "previousSCs",
                          "lastActiveCharacter"}
    if unknown:
        raise ValidationError(f"preamble: unknown field(s) {sorted(unknown)}")
    situation = _member(TextSituation, raw.get(
        "situation", TextSituation.PRESUBJECTIVE_NONACTIVE.value),
        "text situation")
    last_sc = _character_list(raw.get("lastSC", []), "preamble.lastSC")
    previous = _character_list(raw.get("previousSCs", []),
                               "preamble.previousSCs")
    last_active = _character_list(raw.get("lastActiveCharacter", []),
                                  "preamble.lastActiveCharacter")
    for field_name, chars in (("lastSC", last_sc), ("previousSCs", previous),
                              ("lastActiveCharacter", last_active)):
        off = chars - roster
        if off:
            raise ValidationError(f"preamble.{field_name}: character(s) "
                                  f"{sorted(off)} not in roster")
    if last_sc and not last_sc <= previous:
        raise ValidationError("preamble: lastSC must be a subset of "
                              "previousSCs when non-empty")
    return Context(last_sc, last_active, previous, situation)


def _parse_item(raw, position, roster, registry, seen_ids) -> InputItem:
    where = f"items[{position}]"
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: must be an object")
    kind = raw.get("kind")
    if kind == "scene-break":
        _only_keys(raw, {"kind"}, where)
        return SceneBreak()
    if kind == "paragraph-break":
        _only_keys(raw, {"kind"}, where)
        return ParagraphBreak()
    if kind != "sentence":
        raise ValidationError(f"{where}: unknown kind {kind!r}")
    _only_keys(raw, {"kind", "id", "text", "gold", "features"}, where)
    sid = raw.get("id")
    if not isinstance(sid, str) or not sid:
        raise ValidationError(f"{where}: sentence id must be a non-empty "
                              "string")
    if sid in seen_ids:
        raise ValidationError(f"duplicate sentence id {sid!r}")
    seen_ids.add(sid)
    text = raw.get("text")
    if text is not None and not isinstance(text, str):
        raise ValidationError(f"sentence {sid}: text must be a string")
    features = _parse_features(raw.get("features"), sid, roster, registry)
    gold = _parse_gold(raw.get("gold"), sid)
    return Sentence(id=sid, features=features, text=text, gold=gold)


def _parse_gold(raw, sid) -> Interpretation | None:
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ValidationError(f"sentence {sid}: gold must be an object")
    _only_keys(raw, {"type", "characters"}, f"sentence {sid}: gold")
    kind = raw.get("type")
    if kind not in ("subjective", "objective"):
        raise ValidationError(f"sentence {sid}: gold.type must be "
                              "'subjective' or 'objective'")
    who = _character_list(raw.get("characters", []),
                          f"sentence {sid}: gold.characters")
    return Interpretation(kind == "subjective", who)


def _parse_features(raw, sid, roster, registry) -> FeatureSet:
    where = f"sentence {sid}: features"
    if not isinstance(raw, dict):
        raise ValidationError(f"{where}: required and must be an object")
    _only_keys(raw, {"quotedSpeech", "parenthetical", "headNounPrivateState",
                     "soas", "clauses", "pses"}, where)

    soas = []
    soa_ids: set[str] = set()
    for i, entry in enumerate(_array(raw, "soas", where)):
        soas.append(_parse_soa(entry, f"{where}.soas[{i}]", sid, roster,
                               soa_ids))

    clauses = []
    clause_ids: set[str] = set()
    for i, entry in enumerate(_array(raw, "clauses", where)):
        clauses.append(_parse_clause(entry, f"{where}.clauses[{i}]",
                                     clause_ids))
    for clause in clauses:
        if clause.soa not in soa_ids:
            raise ValidationError(
                f"sentence {sid}: clause {clause.id!r} references unknown "
                f"state of affairs {clause.soa!r}")
        missing = clause.under - clause_ids
        if missing:
            raise ValidationError(
                f"sentence {sid}: clause {clause.id!r} subordinated to "
                f"unknown clause(s) {sorted(missing)}")
    mains = [c for c in clauses if not c.under]
    if not clauses:
        raise ValidationError(f"sentence {sid}: at least one clause required")
    if len(mains) == 0:
        raise ValidationError(f"sentence {sid}: no main clause (every clause "
                              "is subordinated)")
    if len(mains) > 1:
        raise ValidationError(
            f"sentence {sid}: multiple main clauses "
            f"({', '.join(sorted(c.id for c in mains))})")
    _check_acyclic(clauses, sid)

    pses = []
    pse_ids: set[str] = set()
    for i, entry in enumerate(_array(raw, "pses", where)):
        pse = _parse_pse(entry, f"{where}.pses[{i}]", pse_ids)
        missing = pse.under - clause_ids
        if missing:
            raise ValidationError(
                f"sentence {sid}: element {pse.id!r} subordinated to unknown "
                f"clause(s) {sorted(missing)}")
        if pse.category not in registry:
            raise ValidationError(
                f"sentence {sid}: element {pse.id!r} has unknown category "
                f"{pse.category!r}")
        pses.append(pse)

    parenthetical = None
    if raw.get("parenthetical") is not None:
        parenthetical = _character_list(raw["parenthetical"],
                                        f"{where}.parenthetical")
        if not parenthetical:
            raise ValidationError(f"sentence {sid}: parenthetical subject "
                                  "must name at least one character")
        off = parenthetical - roster
        if off:
            raise ValidationError(f"sentence {sid}: parenthetical "
                                  f"character(s) {sorted(off)} not in roster")

    head = raw.get("headNounPrivateState")
    if head is not None:
        if not isinstance(head, str) or head not in soa_ids:
            raise ValidationError(
                f"sentence {sid}: headNounPrivateState references unknown "
                f"state of affairs {head!r}")
        head_soa = next(s for s in soas if s.id == head)
        if head_soa.type is not SoaType.PRIVATE_STATE:
            raise ValidationError(
                f"sentence {sid}: headNounPrivateState {head!r} must be a "
                "private-state state of affairs")

    quoted = raw.get("quotedSpeech", False)
    if not isinstance(quoted, bool):
        raise ValidationError(f"sentence {sid}: quotedSpeech must be a "
                              "boolean")
    fs = FeatureSet(clauses=tuple(clauses), soas=tuple(soas),
                    pses=tuple(pses), parenthetical=parenthetical,
                    head_noun_private_state=head, quoted_speech=quoted)
    if quoted:
        main_soa = fs.soa_by_id(fs.main_clause().soa)
        if main_soa.type is not SoaType.ACTION:
            raise ValidationError(
                f"sentence {sid}: quoted speech must be about a "
                "communicative action (main state of affairs of type "
                "'action')")
    return fs


def _parse_soa(entry, where, sid, roster, seen) -> StateOfAffairs:
    if not isinstance(entry, dict):
        raise ValidationError(f"{where}: must be an object")
    _only_keys(entry, {"id", "type", "who"}, where)
    soa_id = entry.get("id")
    if not isinstance(soa_id, str) or not soa_id:
        raise ValidationError(f"{where}: id must be a non-empty string")
    if soa_id in seen:
        raise ValidationError(f"sentence {sid}: duplicate state-of-affairs "
                              f"id {soa_id!r}")
    seen.add(soa_id)
    soa_type = _member(SoaType, entry.get("type", ""),
                       "state-of-affairs type")
    who = _character_list(entry.get("who", []), f"{where}.who")
    off = who - roster
    if off:
        raise ValidationError(f"sentence {sid}: state of affairs {soa_id!r} "
                              f"names character(s) {sorted(off)} not in "
                              "roster")
    return StateOfAffairs(soa_id, soa_type, who)


def _parse_clause(entry, where, seen) -> Clause:
    if not isinstance(entry, dict):
        raise ValidationError(f"{where}: must be an object")
    _only_keys(entry, {"id", "soa", "under", "vp"}, where)
    clause_id = entry.get("id")
    if not isinstance(clause_id, str) or not clause_id:
        raise ValidationError(f"{where}: id must be a non-empty string")
    if clause_id in seen:
        raise ValidationError(f"{where}: duplicate clause id {clause_id!r}")
    seen.add(clause_id)
    soa = entry.get("soa")
    if not isinstance(soa, str):
        raise ValidationError(f"{where}: soa must be a string")
    under = entry.get("under", [])
    if (not isinstance(under, list)
            or not all(isinstance(u, str) for u in under)):
        raise ValidationError(f"{where}: under must be an array of clause "
                              "ids")
    vp_raw = entry.get("vp", {})
    if not isinstance(vp_raw, dict):
        raise ValidationError(f"{where}: vp must be an object")
    unknown = set(vp_raw) - set(_VP_KEYS)
    if unknown:
        raise ValidationError(f"{where}: unknown vp flag(s) "
                              f"{sorted(unknown)}")
    flags = {}
    for key, attr in _VP_KEYS.items():
        value = vp_raw.get(key, False)
        if not isinstance(value, bool):
            raise ValidationError(f"{where}: vp.{key} must be a boolean")
        flags[attr] = value
    return Clause(clause_id, soa, frozenset(under), VerbFeatures(**flags))


def _parse_pse(entry, where, seen) -> Pse:
    if not isinstance(entry, dict):
        raise ValidationError(f"{where}: must be an object")
    _only_keys(entry, {"id", "category", "under"}, where)
    pse_id = entry.get("id")
    if not isinstance(pse_id, str) or not pse_id:
        raise ValidationError(f"{where}: id must be a non-empty string")
    if pse_id in seen:
        raise ValidationError(f"{where}: duplicate element id {pse_id!r}")
    seen.add(pse_id)
    category = entry.get("category")
    if not isinstance(category, str) or not category:
        raise ValidationError(f"{where}: category must be a non-empty string")
    under = entry.get("under", [])
    if (not isinstance(under, list)
            or not all(isinstance(u, str) for u in under)):
        raise ValidationError(f"{where}: under must be an array of clause "
                              "ids")
    return Pse(pse_id, category, frozenset(under))


def _check_acyclic(clauses, sid) -> None:
    under = {c.id: c.under for c in clauses}
    states: dict[str, int] = {}  # 0 on stack, 1 done

    def visit(node, stack):
        if states.get(node) == 1:
            return
        if states.get(node) == 0:
            cycle = " -> ".join(stack + [node])
            raise ValidationError(f"sentence {sid}: clause subordination "
                                  f"cycle: {cycle}")
        states[node] = 0
        for parent in sorted(under[node]):
            visit(parent, stack + [node])
        states[node] = 1

    for clause_id in under:
        visit(clause_id, [])


def _member(enum, value, what):
    try:
        return enum(value)
    except ValueError:
        raise ValidationError(f"unknown {what} {value!r}") from None


def _character_list(raw, where) -> Characters:
    if not isinstance(raw, list):
        raise ValidationError(f"{where}: must be an array of names")
    for name in raw:
        if not isinstance(name, str) or not name:
            raise ValidationError(f"{where}: names must be non-empty strings")
    return frozenset(raw)


def _array(raw, key, where):
    value = raw.get(key, [])
    if not isinstance(value, list):
        raise ValidationError(f"{where}.{key}: must be an array")
    return value


def _only_keys(raw, allowed, where) -> None:
    unknown = set(raw) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown field(s) {sorted(unknown)}")


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
    out: dict = {"title": document.title,
                 "roster": sorted(document.roster)}
    if document.initial_context != INITIAL_CONTEXT:
        ctx = document.initial_context
        out["preamble"] = {
            "situation": ctx.situation.value,
            "lastSC": sorted(ctx.last_sc),
            "previousSCs": sorted(ctx.previous_scs),
            "lastActiveCharacter": sorted(ctx.last_active_character),
        }
    out["items"] = [_item_to_dict(item) for item in document.items]
    return out


def dumps_document(document: Document) -> str:
    return json.dumps(document_to_dict(document), indent=2,
                      ensure_ascii=False)


def _item_to_dict(item: InputItem) -> dict:
    if isinstance(item, SceneBreak):
        return {"kind": "scene-break"}
    if isinstance(item, ParagraphBreak):
        return {"kind": "paragraph-break"}
    out: dict = {"kind": "sentence", "id": item.id}
    if item.text is not None:
        out["text"] = item.text
    if item.gold is not None:
        out["gold"] = {"type": item.gold.kind,
                       "characters": sorted(item.gold.characters)}
    fs = item.features
    features: dict = {"quotedSpeech": fs.quoted_speech}
    if fs.parenthetical is not None:
        features["parenthetical"] = sorted(fs.parenthetical)
    if fs.head_noun_private_state is not None:
        features["headNounPrivateState"] = fs.head_noun_private_state
    features["soas"] = [
        {"id": s.id, "type": s.type.value, "who": sorted(s.who)}
        for s in fs.soas]
    features["clauses"] = [
        {"id": c.id, "soa": c.soa, "under": sorted(c.under),
         "vp": {key: getattr(c.vp, attr) for key, attr in _VP_KEYS.items()
                if getattr(c.vp, attr)}}
        for c in fs.clauses]
    features["pses"] = [
        {"id": p.id, "category": p.category, "under": sorted(p.under)}
        for p in fs.pses]
    out["features"] = features
    return out
