import dataclasses
import json
from functools import partial
from types import SimpleNamespace

import pytest

from povtrack import (
    Clause,
    Context,
    DEFAULT_REGISTRY,
    Document,
    FeatureSet,
    INITIAL_CONTEXT,
    NOBODY,
    Pse,
    PseCategory,
    RegistryError,
    SceneBreak,
    Sentence,
    SoaType,
    StateOfAffairs,
    TextSituation,
    ValidationError,
    parse_document,
    parse_registry,
)
from test_writer import oracle_dict


def up_to(level):
    return PseCategory("x", level).situations


def introduced_at(level):
    """The text situations introduced at exactly this strength level."""
    below = up_to(level - 1) if level > 1 else frozenset()
    return up_to(level) - below


def test_level_sets():
    assert introduced_at(1) == {TextSituation.CONTINUING_SUBJECTIVE}
    assert introduced_at(2) == {TextSituation.BROKEN_SUBJECTIVE,
                                TextSituation.INTERRUPTED_SUBJECTIVE}
    assert introduced_at(3) == {TextSituation.PRESUBJECTIVE_ACTIVE,
                                TextSituation.POSTSUBJECTIVE_NONACTIVE,
                                TextSituation.POSTSUBJECTIVE_ACTIVE}
    assert introduced_at(4) == {TextSituation.PRESUBJECTIVE_NONACTIVE}


def test_level_sets_partition_all_situations():
    union = frozenset()
    for level in range(1, 5):
        current = introduced_at(level)
        assert not union & current
        union |= current
    assert union == frozenset(TextSituation)


@pytest.mark.parametrize("level", [0, 5, -1])
def test_level_out_of_range_rejected(level):
    with pytest.raises(RegistryError, match="level must be in 1..4"):
        introduced_at(level)


def test_association_sets_grow_with_level():
    previous = frozenset()
    for level in range(1, 5):
        current = up_to(level)
        assert previous < current
        previous = current


def test_default_registry_spot_values():
    assert DEFAULT_REGISTRY["question"].level == 4
    assert not DEFAULT_REGISTRY["question"].excluded
    assert DEFAULT_REGISTRY["exclamation"].level == 4
    assert DEFAULT_REGISTRY["progressive"].level == 1
    assert DEFAULT_REGISTRY["past-perfective"].level == 1
    assert DEFAULT_REGISTRY["habitual"].level == 2
    assert DEFAULT_REGISTRY["comparative-like"].level == 3
    assert DEFAULT_REGISTRY["comparative-like"].excluded
    assert DEFAULT_REGISTRY["sentence-fragment"].level == 3
    assert DEFAULT_REGISTRY["evidential-evidence"].level == 3


def test_default_registry_exclusions_exact():
    excluded = {name for name, cat in DEFAULT_REGISTRY.items() if cat.excluded}
    assert excluded == {"habitual", "comparative-like", "as-plus-modifier",
                        "degree-intensifier"}


def test_default_registry_level_membership():
    by_level = {1: set(), 2: set(), 3: set(), 4: set()}
    for name, cat in DEFAULT_REGISTRY.items():
        by_level[cat.level].add(name)
    assert by_level[1] == {"past-perfective", "progressive"}
    assert by_level[2] == {"habitual"}
    assert by_level[4] == {"exclamation", "question"}
    assert len(DEFAULT_REGISTRY) == 26


def test_category_situations_monotone():
    # subjective at level k implies subjective at every lower level
    for cat in DEFAULT_REGISTRY.values():
        for level in range(1, cat.level + 1):
            assert introduced_at(level) <= cat.situations


def test_category_level_validated():
    with pytest.raises(RegistryError):
        PseCategory("bogus", 7)


ACTION = (StateOfAffairs("a1", SoaType.ACTION),)


# -- each annotation rule, checked by the type it constrains -----------------

SOAS = ACTION + (StateOfAffairs("p1", SoaType.PRIVATE_STATE,
                                frozenset({"Zoe"})),)
MAIN = Clause("c1", "a1")
QUESTION = DEFAULT_REGISTRY["question"]


def under(cid, soa, *parents):
    return Clause(cid, soa, frozenset(parents))


def features_json(clauses, soas, pses=(), parenthetical=None,
                  head_noun_private_state=None, quoted_speech=False):
    """The document form of FeatureSet's fields."""
    out = {"quotedSpeech": quoted_speech,
           "soas": [{"id": s.id, "type": s.type.value, "who": sorted(s.who)}
                    for s in soas],
           "clauses": [{"id": c.id, "soa": c.soa, "under": sorted(c.under)}
                       for c in clauses],
           "pses": [{"id": p.id, "category": getattr(p.category, "name",
                                                     p.category),
                     "under": sorted(p.under)} for p in pses]}
    if parenthetical is not None:
        out["parenthetical"] = sorted(parenthetical)
    if head_noun_private_state is not None:
        out["headNounPrivateState"] = head_noun_private_state
    return out


def document(sid="s1", **fields):
    fields = {"clauses": (MAIN,), "soas": SOAS, **fields}
    return json.dumps({"roster": ["Zoe"], "items": [
        {"kind": "sentence", "id": sid, "features": features_json(**fields)}]})


def feature_rule(name, message, **fields):
    fields = {"clauses": (MAIN,), "soas": SOAS, **fields}
    return pytest.param(partial(FeatureSet, **fields),
                        partial(parse_document, document(**fields)),
                        ValidationError, message, "sentence s1: ", id=name)


def id_rule(sid):
    return pytest.param(partial(Sentence, sid, FeatureSet((MAIN,), SOAS)),
                        partial(parse_document, document(sid)),
                        ValidationError,
                        f"sentence id {sid!r} must not hold a tab or line "
                        "break", "items[0]: ", id=f"id-{sid!r}")


S1 = Sentence("s1", FeatureSet((MAIN,), SOAS))


def document_rule(name, message, items=(S1,), title="t",
                  roster=frozenset({"Zoe"}), context=INITIAL_CONTEXT):
    fields = {"title": title, "roster": roster, "items": items,
              "initial_context": context}
    text = json.dumps(oracle_dict(SimpleNamespace(**fields)))
    return pytest.param(partial(Document, **fields),
                        partial(parse_document, text), ValidationError,
                        message, "", id=name)


def preamble_rule(key, context):
    return document_rule(f"off-roster-{key}", f"preamble.{key}: "
                         "character(s) ['Ghost'] not in roster",
                         context=context)


GHOST = frozenset({"Ghost"})
SITUATION = TextSituation.POSTSUBJECTIVE_ACTIVE


def level_rule(level, message):
    return pytest.param(partial(PseCategory, "x", level),
                        partial(parse_registry, json.dumps({"x": {
                            "level": level}})),
                        RegistryError, f"category 'x': level must be {message}",
                        "registry: ", id=f"level-{level!r}")


RULES = [
    feature_rule("missing-soa", "clause 'c1' references unknown state of "
                 "affairs 'a9'", clauses=(Clause("c1", "a9"),)),
    feature_rule("clause-under-missing", "clause 'c2' subordinated to "
                 "unknown clause(s) ['c9']",
                 clauses=(MAIN, under("c2", "a1", "c9"))),
    feature_rule("no-clause", "at least one clause required", clauses=()),
    feature_rule("no-main", "no main clause (every clause is subordinated)",
                 clauses=(under("c1", "a1", "c2"), under("c2", "a1", "c1"))),
    feature_rule("two-mains", "multiple main clauses (c1, c3)",
                 clauses=(MAIN, under("c2", "a1", "c1"), Clause("c3", "a1"))),
    feature_rule("cycle", "clause subordination cycle: c2 -> c3 -> c2",
                 clauses=(MAIN, under("c2", "a1", "c3"),
                          under("c3", "a1", "c2"))),
    feature_rule("element-under-missing", "element 'e1' subordinated to "
                 "unknown clause(s) ['c9']",
                 pses=(Pse("e1", QUESTION, frozenset({"c9"})),)),
    feature_rule("empty-parenthetical", "parenthetical subject must name "
                 "at least one character", parenthetical=frozenset()),
    feature_rule("missing-head-noun", "headNounPrivateState references "
                 "unknown state of affairs 'p9'",
                 head_noun_private_state="p9"),
    feature_rule("head-noun-not-private", "headNounPrivateState 'a1' must "
                 "be a private-state state of affairs",
                 head_noun_private_state="a1"),
    feature_rule("quoted-private-state", "quoted speech must be about a "
                 "communicative action (main state of affairs of type "
                 "'action')", clauses=(Clause("c1", "p1"),),
                 quoted_speech=True),
    feature_rule("duplicate-soa", "duplicate state-of-affairs id 'a1'",
                 soas=SOAS + ACTION),
    feature_rule("duplicate-clause", "duplicate clause id 'c2'",
                 clauses=(MAIN, under("c2", "a1", "c1"),
                          under("c2", "p1", "c1"))),
    feature_rule("duplicate-element", "duplicate element id 'e1'",
                 pses=(Pse("e1", QUESTION),
                       Pse("e1", DEFAULT_REGISTRY["exclamation"]))),
    # a name is not a category: the parser resolves it in the registry
    feature_rule("unknown-category", "element 'e1' has unknown category "
                 "'no-such-thing'", pses=(Pse("e1", "no-such-thing"),)),
    document_rule("title-not-a-string", "title must be a string",
                  title=None),
    pytest.param(partial(Document, "t", frozenset(), ("x",)),
                 partial(parse_document, '{"items": [{"kind": "x"}]}'),
                 ValidationError, "items[0]: unknown kind 'x'", "",
                 id="unknown-item-kind"),
    document_rule("duplicate-sentence-id", "items[2]: duplicate sentence "
                  "id 's1'", items=(S1, SceneBreak(), S1)),
    document_rule("off-roster-who", "sentence s1: features.soas[1].who: "
                  "character(s) ['Zoe'] not in roster", roster=frozenset()),
    document_rule("off-roster-parenthetical", "sentence s1: "
                  "features.parenthetical: character(s) ['Ghost'] not in "
                  "roster", items=(Sentence("s1", FeatureSet(
                      (MAIN,), SOAS, parenthetical=GHOST)),)),
    preamble_rule("lastSC", Context(GHOST, NOBODY, GHOST, SITUATION)),
    preamble_rule("previousSCs", Context(NOBODY, NOBODY, GHOST, SITUATION)),
    preamble_rule("lastActiveCharacter",
                  Context(NOBODY, GHOST, NOBODY, SITUATION)),
    document_rule("preamble-last-sc-not-previous", "preamble: lastSC must "
                  "be a subset of previousSCs when non-empty",
                  context=Context(frozenset({"Zoe"}), NOBODY, NOBODY,
                                  SITUATION)),
    id_rule("a\tb"),
    id_rule("s1\u2028s9"),
    id_rule("s1\x85"),
    level_rule(0, "in 1..4, got 0"),
    level_rule(True, "an integer"),
    level_rule(2.0, "an integer"),
]


@pytest.mark.parametrize("build, parse, error, message, place", RULES)
def test_broken_rule_is_refused_where_the_object_is_built(
        build, parse, error, message, place):
    with pytest.raises(error) as built:
        build()
    assert str(built.value) == message
    with pytest.raises(error) as parsed:
        parse()
    assert str(parsed.value) == place + message


def test_main_clause_takes_no_part_in_eq_hash_or_replace():
    main, sub = Clause("c1", "a1"), Clause("c2", "a1", frozenset({"c1"}))
    features = FeatureSet((sub, main), ACTION)
    assert features.main is main
    other = FeatureSet((sub, main), ACTION)
    object.__setattr__(other, "main", sub)
    assert other == features and hash(other) == hash(features)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(features, main=sub)
    # replace rebuilds the set, and finds the main clause of its clauses
    flipped = dataclasses.replace(
        features, clauses=(Clause("c2", "a1"),
                           Clause("c1", "a1", frozenset({"c2"}))))
    assert flipped.main.id == "c2" and flipped != features
