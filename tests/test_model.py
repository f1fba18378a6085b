import dataclasses
import json
import sys
from functools import partial
from types import SimpleNamespace

import pytest

from povtrack import (
    Clause,
    Context,
    DEFAULT_REGISTRY,
    Document,
    Engine,
    FeatureSet,
    INITIAL_CONTEXT,
    Interpretation,
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
    VerbFeatures,
    dumps_document,
    parse_document,
    parse_registry,
)
from povtrack.model import SeenCharacters
from test_writer import oracle_dict


def up_to(level):
    """The text situations a category of this level is subjective in."""
    category = PseCategory("x", level)
    return frozenset(s for s in TextSituation if s.level <= category.level)


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
    engine = Engine()
    for cat in DEFAULT_REGISTRY.values():
        features = FeatureSet((MAIN,), SOAS, (Pse("e1", cat),))
        fires_in = {s for s in TextSituation if engine.subjective_elements(
            features, Context(NOBODY, NOBODY, NOBODY, s))}
        for level in range(1, cat.level + 1):
            assert introduced_at(level) <= fires_in
        assert fires_in == up_to(cat.level)


def test_category_level_validated():
    with pytest.raises(RegistryError):
        PseCategory("bogus", 7)


A1 = StateOfAffairs("a1", SoaType.ACTION)
ACTION = (A1,)


# -- each annotation rule, checked by the type it constrains -----------------

P1 = StateOfAffairs("p1", SoaType.PRIVATE_STATE, frozenset({"Zoe"}))
SOAS = ACTION + (P1,)
MAIN = Clause("c1", A1)
QUESTION = DEFAULT_REGISTRY["question"]


def under(cid, soa, *parents):
    return Clause(cid, soa, frozenset(parents))


def features_json(clauses, soas, pses=(), parenthetical=None,
                  head_noun_private_state=None, quoted_speech=False):
    """The document form of FeatureSet's fields.  A reference that is
    not a state of affairs, an unknown id say, is written as it is."""
    out = {"quotedSpeech": quoted_speech,
           "soas": [{"id": s.id, "type": s.type.value, "who": sorted(s.who)}
                    for s in soas],
           "clauses": [{"id": c.id, "soa": getattr(c.soa, "id", c.soa),
                        "under": sorted(c.under)} for c in clauses],
           "pses": [{"id": p.id, "category": getattr(p.category, "name",
                                                     p.category),
                     "under": sorted(p.under)} for p in pses]}
    if parenthetical is not None:
        out["parenthetical"] = sorted(parenthetical)
    if head_noun_private_state is not None:
        out["headNounPrivateState"] = getattr(head_noun_private_state, "id",
                                              head_noun_private_state)
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


def name_rules(separator):
    """A roster, a gold and a category name holding ``separator``: each
    would split a verdict or trace line that prints it."""
    name = f"A{separator}B"
    gold = Interpretation(True, frozenset({name}))
    yield document_rule(f"roster-name-{name!r}", f"roster name {name!r} "
                        "must not hold a tab or line break",
                        roster=frozenset({"Zoe", name}))
    yield document_rule(f"gold-name-{name!r}", f"sentence s1: "
                        f"gold.characters: name {name!r} must not hold a "
                        "tab or line break",
                        items=(dataclasses.replace(S1, gold=gold),))
    yield pytest.param(partial(PseCategory, name, 3),
                       partial(parse_registry, json.dumps({name: {
                           "level": 3}})),
                       RegistryError, f"category name {name!r} must not "
                       "hold a tab or line break", "registry: ",
                       id=f"category-name-{name!r}")


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
                 clauses=(MAIN, under("c2", A1, "c9"))),
    feature_rule("no-clause", "at least one clause required", clauses=()),
    feature_rule("no-main", "no main clause (every clause is subordinated)",
                 clauses=(under("c1", A1, "c2"), under("c2", A1, "c1"))),
    feature_rule("two-mains", "multiple main clauses (c1, c3)",
                 clauses=(MAIN, under("c2", A1, "c1"), Clause("c3", A1))),
    feature_rule("cycle", "clause subordination cycle: c2 -> c3 -> c2",
                 clauses=(MAIN, under("c2", A1, "c3"),
                          under("c3", A1, "c2"))),
    # a cycle needs a clause under one written after it: the search for
    # one is skipped only when no clause is
    feature_rule("cycle-written-out-of-order", "clause subordination "
                 "cycle: c3 -> c2 -> c3", clauses=(
                     under("c3", A1, "c2"), MAIN, under("c2", A1, "c3"))),
    feature_rule("self-cycle", "clause subordination cycle: c2 -> c2",
                 clauses=(MAIN, under("c2", A1, "c2"))),
    feature_rule("cycle-after-ordered-clauses", "clause subordination "
                 "cycle: c3 -> c4 -> c3", clauses=(
                     MAIN, under("c2", A1, "c1"), under("c3", A1, "c2", "c4"),
                     under("c4", A1, "c3"))),
    feature_rule("forward-under-missing", "clause 'c2' subordinated to "
                 "unknown clause(s) ['c9']",
                 clauses=(under("c2", A1, "c3", "c9"), MAIN,
                          under("c3", A1, "c1"))),
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
                 head_noun_private_state=A1),
    feature_rule("quoted-private-state", "quoted speech must be about a "
                 "communicative action (main state of affairs of type "
                 "'action')", clauses=(Clause("c1", P1),),
                 quoted_speech=True),
    feature_rule("duplicate-soa", "duplicate state-of-affairs id 'a1'",
                 soas=SOAS + ACTION),
    feature_rule("duplicate-clause", "duplicate clause id 'c2'",
                 clauses=(MAIN, under("c2", A1, "c1"),
                          under("c2", P1, "c1"))),
    feature_rule("duplicate-element", "duplicate element id 'e1'",
                 pses=(Pse("e1", QUESTION),
                       Pse("e1", DEFAULT_REGISTRY["exclamation"]))),
    feature_rule("duplicate-soa-of-two", "duplicate state-of-affairs id "
                 "'a1'", soas=(A1, StateOfAffairs("a1", SoaType.ACTION))),
    feature_rule("duplicate-soa-of-n", "duplicate state-of-affairs id 'p1'",
                 soas=SOAS + (StateOfAffairs("a2", SoaType.ACTION), P1)),
    feature_rule("duplicate-clause-of-two", "duplicate clause id 'c1'",
                 clauses=(MAIN, under("c1", A1, "c1"))),
    feature_rule("duplicate-clause-of-n", "duplicate clause id 'c3'",
                 clauses=(MAIN, under("c2", A1, "c1"), under("c3", A1, "c1"),
                          under("c4", A1, "c3"), under("c3", A1, "c2"))),
    feature_rule("duplicate-element-of-n", "duplicate element id 'e2'",
                 pses=(Pse("e1", QUESTION), Pse("e2", QUESTION),
                       Pse("e3", QUESTION), Pse("e2", QUESTION))),
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
    pytest.param(partial(Sentence, 5, FeatureSet((MAIN,), SOAS)),
                 partial(parse_document, document(5)), ValidationError,
                 "sentence id must be a non-empty string", "items[0]: ",
                 id="id-not-a-string"),
    id_rule("a\tb"),
    id_rule("s1\u2028s9"),
    id_rule("s1\x85"),
    *name_rules("\n"),
    *name_rules("\t"),
    *name_rules("\u2028"),
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


# the same clauses in the order they are under one another, and reversed:
# the cycle search runs only on the second, and both are valid
CHAIN = (MAIN, under("c2", P1, "c1"), under("c3", A1, "c2"),
         under("c4", P1, "c2", "c3"))


@pytest.mark.parametrize("clauses", [CHAIN, CHAIN[::-1]],
                         ids=["in-order", "reversed"])
def test_clauses_in_any_order_build_the_same_feature_set(clauses):
    features = FeatureSet(clauses, SOAS)
    assert features.main is MAIN
    # c4 is under the private c2, so only c2 is a candidate
    assert features.private_candidates == (P1,)
    assert parse_document(document(clauses=clauses)).items[0].features == \
        features


@pytest.mark.parametrize("soas, clauses, pses", [
    (ACTION, (MAIN,), (Pse("e1", QUESTION),)),
    (SOAS, (MAIN, under("c2", P1, "c1")),
     (Pse("e1", QUESTION), Pse("e2", QUESTION, frozenset({"c2"})))),
], ids=["one-of-each", "two-of-each"])
def test_lists_without_a_repeated_id_are_accepted(soas, clauses, pses):
    features = FeatureSet(clauses, soas, pses)
    assert (features.soas, features.clauses, features.pses) == (
        soas, clauses, pses)
    assert parse_document(document(clauses=clauses, soas=soas,
                                   pses=pses)).items[0].features == features


def off_roster(who=NOBODY, parenthetical=None, gold=None):
    soa = StateOfAffairs("a1", SoaType.ACTION, who)
    return Document("t", frozenset({"Zoe"}), (Sentence("s1", FeatureSet(
        (Clause("c1", soa),), (soa,), parenthetical=parenthetical),
        gold=gold),))


# a hand-built who, parenthetical or gold label whose names are a list or
# a set, or hold a name that is not a non-empty str, is refused as such;
# sorting or comparing it raised TypeError, and hashing a set did
@pytest.mark.parametrize("build, where", [
    (partial(off_roster, who=frozenset({5, "Ghost"})), "features.soas[0].who"),
    (partial(off_roster, who=["Zoe"]), "features.soas[0].who"),
    (partial(off_roster, who=["Ghost"]), "features.soas[0].who"),
    (partial(off_roster, who={"Zoe"}), "features.soas[0].who"),
    (partial(off_roster, who=frozenset({""})), "features.soas[0].who"),
    (partial(off_roster, parenthetical=["Zoe"]), "features.parenthetical"),
    (partial(off_roster, parenthetical=frozenset({"Ghost", None})),
     "features.parenthetical"),
    (partial(off_roster, gold=Interpretation(True, ["Zoe"])),
     "gold.characters"),
], ids=["who-mixed", "who-list", "who-list-off-roster", "who-set",
        "who-empty-name", "parenthetical-list", "parenthetical-mixed",
        "gold-list"])
def test_names_that_are_not_a_frozenset_of_strings_are_refused(build, where):
    with pytest.raises(ValidationError) as caught:
        build()
    assert str(caught.value) == (f"sentence s1: {where}: must be "
                                 "a frozenset of non-empty strings")


# the parser always builds frozensets of str; a list under raised
# TypeError, or, when empty, made a main clause that could not be hashed
@pytest.mark.parametrize("clauses, pses, message", [
    ((Clause("c1", A1, []),), (), "clause 'c1'"),
    ((MAIN, Clause("c2", A1, ["c1"])), (), "clause 'c2'"),
    ((MAIN,), (Pse("e1", QUESTION, ["c1"]),), "element 'e1'"),
    # an unknown id beside one that is not a str: sorting the unknown ids
    # to name them raised TypeError
    ((MAIN, Clause("c2", A1, frozenset({5, "c9"}))), (), "clause 'c2'"),
    ((MAIN,), (Pse("e1", QUESTION, frozenset({5, "c9"})),), "element 'e1'"),
], ids=["main-clause", "subordinate-clause", "element",
        "subordinate-clause-mixed-ids", "element-mixed-ids"])
def test_an_under_that_is_not_a_frozenset_is_refused(clauses, pses, message):
    with pytest.raises(ValidationError) as caught:
        FeatureSet(clauses, SOAS, pses)
    assert str(caught.value) == (f"{message}: under must be a frozenset of "
                                 "clause ids")


# the parser always builds an Interpretation; a hand-built label of any
# other type was accepted, and evaluate then raised AttributeError
BAD_GOLDS = {
    "string": ("x", "'x'"),
    "kind-and-names": (("subjective", frozenset({"Zoe"})),
                       "('subjective', frozenset({'Zoe'}))"),
    "dict": ({"type": "objective", "characters": []},
             "{'type': 'objective', 'characters': []}"),
    "bool": (True, "True"),
}


@pytest.mark.parametrize("gold, shown", BAD_GOLDS.values(), ids=BAD_GOLDS)
def test_a_gold_that_is_not_an_interpretation_is_refused(gold, shown):
    with pytest.raises(ValidationError) as caught:
        Sentence("s1", FeatureSet((MAIN,), SOAS), gold=gold)
    assert str(caught.value) == \
        f"gold must be an Interpretation or None, not {shown}"


# a hashable id that is not a str built a set, so it was accepted alone
# or among others, and dumps_document could not write it
def non_str_ids():
    for bad in (5, ("c",), None, b"c"):
        shown = repr(bad)
        yield (f"lone-clause-{shown}", partial(FeatureSet, (Clause(bad, A1),),
                                              ACTION),
               f"clause id {shown} must be a string")
        yield (f"second-clause-{shown}", partial(FeatureSet, (
            MAIN, Clause(bad, A1, frozenset({"c1"}))), ACTION),
            f"clause id {shown} must be a string")
        lone = StateOfAffairs(bad, SoaType.ACTION)
        yield (f"lone-state-of-affairs-{shown}",
               partial(FeatureSet, (Clause("m", lone),), (lone,)),
               f"state-of-affairs id {shown} must be a string")
        yield (f"second-state-of-affairs-{shown}",
               partial(FeatureSet, (MAIN,), (A1, lone)),
               f"state-of-affairs id {shown} must be a string")
        yield (f"lone-element-{shown}", partial(FeatureSet, (MAIN,), ACTION, (
            Pse(bad, QUESTION),)), f"element id {shown} must be a string")
        yield (f"second-element-{shown}", partial(
            FeatureSet, (MAIN,), ACTION, (Pse("e1", QUESTION),
                                          Pse(bad, QUESTION))),
            f"element id {shown} must be a string")


# hand-built objects the parser never builds, each of which raised
# TypeError or AttributeError: a clause id that is not a str was sorted to
# name it, a Sentence's features were read as a FeatureSet, and the writer
# or the tracker read a state of affairs' type or a clause's vp
CRASHES = {
    "cycle-through-an-int-id": (partial(FeatureSet, (
        Clause("m", A1), Clause(5, A1, frozenset({"c"})),
        Clause("c", A1, frozenset({5, "m"}))), ACTION),
        "clause id 5 must be a string"),
    "two-mains-one-an-int-id": (partial(FeatureSet, (
        Clause("m", A1), Clause(5, A1)), ACTION),
        "clause id 5 must be a string"),
    "features-a-string": (
        lambda: Document("t", frozenset(), (Sentence("s1", "x"),)),
        "features must be a FeatureSet, not 'x'"),
    "state-of-affairs-id-a-list": (partial(FeatureSet, (Clause("m", A1),), (
        A1, StateOfAffairs(["a2"], SoaType.ACTION))),
        "state-of-affairs id ['a2'] must be a string"),
    "clause-id-a-list": (partial(FeatureSet, (
        Clause("m", A1), Clause(["c"], A1, frozenset({"m"}))), ACTION),
        "clause id ['c'] must be a string"),
    "lone-clause-id-a-list": (partial(FeatureSet, (Clause(["m"], A1),),
                                      ACTION),
                              "clause id ['m'] must be a string"),
    "element-id-a-list": (partial(FeatureSet, (Clause("m", A1),), ACTION, (
        Pse("e1", QUESTION), Pse(["e2"], QUESTION))),
        "element id ['e2'] must be a string"),
    # a list of one builds no id set, but its id is still checked
    "lone-state-of-affairs-id-a-list": (partial(FeatureSet, (
        Clause("m", LISTED := StateOfAffairs(["a2"], SoaType.ACTION)),),
        (LISTED,)), "state-of-affairs id ['a2'] must be a string"),
    "lone-element-id-a-list": (partial(FeatureSet, (Clause("m", A1),),
                                       ACTION, (Pse(["e2"], QUESTION),)),
                               "element id ['e2'] must be a string"),
    "lone-state-of-affairs-id-an-int": (partial(FeatureSet, (
        Clause("m", NUMBERED := StateOfAffairs(5, SoaType.ACTION)),),
        (NUMBERED,)), "state-of-affairs id 5 must be a string"),
    "text-an-int": (partial(Sentence, "s1", S1.features, text=5),
                    "text must be a string or None, not 5"),
    "text-bytes": (partial(Sentence, "s1", S1.features, text=b"x"),
                   "text must be a string or None, not b'x'"),
    # a str type never is a SoaType, so it was also tracked as objective
    "str-soa-type": (partial(FeatureSet, (Clause("m", TYPED := StateOfAffairs(
        "a1", "action")),), (TYPED,)),
        "state of affairs 'a1' has unknown type 'action'"),
    "none-vp-flag": (partial(FeatureSet, (Clause("m", A1, vp=VerbFeatures(
        None)),), ACTION), "clause 'm' has unknown verb features "
        "VerbFeatures(simple_past=None, negated=False, habitual=False, "
        "modal=False, past_perfective=False, progressive=False)"),
    "int-vp-flag": (partial(FeatureSet, (Clause("m", A1, vp=VerbFeatures(
        modal=1)),), ACTION), "clause 'm' has unknown verb features "
        "VerbFeatures(simple_past=False, negated=False, habitual=False, "
        "modal=1, past_perfective=False, progressive=False)"),
    "none-vp": (partial(FeatureSet, (Clause("m", A1, vp=None),), ACTION),
                "clause 'm' has unknown verb features None"),
    # a generator was used up by the checks, so the document tracked and
    # dumped as empty; a list made it unhashable, unequal to its dump
    "items-a-generator": (lambda: Document(
        "t", frozenset(), (item for item in (S1,))),
        "items must be a tuple, not generator"),
    "items-a-list": (partial(Document, "t", frozenset(), [S1]),
                     "items must be a tuple, not list"),
    # a flag that is not a bool dumped as true or false by its truth, so
    # the dump parsed to another document
    "quoted-speech-a-string": (partial(FeatureSet, (MAIN,), SOAS,
                                       quoted_speech="no"),
                               "quoted_speech must be a bool, not 'no'"),
    "quoted-speech-an-int": (partial(FeatureSet, (MAIN,), SOAS,
                                     quoted_speech=0),
                             "quoted_speech must be a bool, not 0"),
    "gold-subjective-a-string": (partial(Sentence, "s1", S1.features, gold=(
        Interpretation("no", frozenset()))),
        "gold.subjective must be a bool, not 'no'"),
    "gold-subjective-none": (partial(Sentence, "s1", S1.features, gold=(
        Interpretation(None, frozenset({"Zoe"})))),
        "gold.subjective must be a bool, not None"),
    **{name: (build, message) for name, build, message in non_str_ids()},
}


@pytest.mark.parametrize("build, message", CRASHES.values(), ids=CRASHES)
def test_a_hand_built_object_of_the_wrong_type_is_refused(build, message):
    with pytest.raises(ValidationError) as caught:
        build()
    assert str(caught.value) == message


# a lone surrogate in a title or name: the parser refuses one first, with
# its own message, but a hand-built document holding one was accepted,
# and its dump could be neither encoded nor parsed
SURROGATES = {
    "title": (partial(Document, "\ud800", frozenset(), ()),
              "title must not hold a lone surrogate"),
    "title-within": (partial(Document, "a\udfffb", frozenset(), ()),
                     "title must not hold a lone surrogate"),
    "roster-name": (partial(Document, "t", frozenset({"Zoe", "Z\udc00"}),
                            (S1,)),
                    "roster name 'Z\\udc00' must not hold a lone surrogate"),
    "off-roster-gold-name": (partial(Document, "t", frozenset({"Zoe"}), (
        dataclasses.replace(S1, gold=Interpretation(True, frozenset({
            "Zoe", "\ud83d\ude00"}))),)),
        "sentence s1: gold.characters: name '\\ud83d\\ude00' must not "
        "hold a lone surrogate"),
}


@pytest.mark.parametrize("build, message", SURROGATES.values(),
                         ids=SURROGATES)
def test_a_lone_surrogate_in_a_title_or_name_is_refused(build, message):
    with pytest.raises(ValidationError) as caught:
        build()
    assert str(caught.value) == message


def test_a_paired_character_in_a_title_and_name_is_kept():
    smile = "\U0001f600"
    document = Document(smile, frozenset({"Zoe", smile}), (S1,))
    assert parse_document(dumps_document(document).encode()) == document


@pytest.mark.parametrize("roster", [["Zoe"], {"Zoe"}, frozenset({""}),
                                    frozenset({5}), None])
def test_roster_must_be_a_frozenset_of_names(roster):
    with pytest.raises(ValidationError) as caught:
        Document("t", roster, (S1,))
    assert str(caught.value) == \
        "roster must be a frozenset of non-empty strings"


# the parser always builds a well-typed preamble; a hand-built one is
# checked once, when its document is built
BAD_PREAMBLES = {
    "situation-string": (Context(NOBODY, NOBODY, NOBODY,
                                 "continuing-subjective"),
                         "preamble.situation: not a TextSituation: "
                         "'continuing-subjective'"),
    "last-sc-list": (Context(["Zoe"], NOBODY, frozenset({"Zoe"}), SITUATION),
                     "preamble.lastSC: must be a frozenset of non-empty "
                     "strings"),
    "previous-scs-names": (Context(NOBODY, NOBODY, frozenset({5, "Ghost"}),
                                   SITUATION),
                           "preamble.previousSCs: must be a frozenset of "
                           "non-empty strings"),
    # only a step's view of its fold's log stands in for a frozenset
    "previous-scs-a-set": (Context(NOBODY, NOBODY, {"Zoe"}, SITUATION),
                           "preamble.previousSCs: must be a frozenset of "
                           "non-empty strings"),
    "previous-scs-view-names": (Context(NOBODY, NOBODY,
                                        SeenCharacters({"": 0}, 1),
                                        SITUATION),
                                "preamble.previousSCs: must be a frozenset "
                                "of non-empty strings"),
    "last-active-none": (Context(NOBODY, None, NOBODY, SITUATION),
                         "preamble.lastActiveCharacter: must be a frozenset "
                         "of non-empty strings"),
    "not-a-context": (None, "preamble must be a Context, not None"),
}


@pytest.mark.parametrize("context, message", BAD_PREAMBLES.values(),
                         ids=BAD_PREAMBLES)
def test_a_preamble_field_of_the_wrong_type_is_refused(context, message):
    with pytest.raises(ValidationError) as caught:
        Document("t", frozenset({"Zoe"}), (S1,), context)
    assert str(caught.value) == message


def test_main_clause_takes_no_part_in_eq_hash_or_replace():
    main, sub = Clause("c1", A1), Clause("c2", A1, frozenset({"c1"}))
    features = FeatureSet((sub, main), ACTION)
    assert features.main is main
    other = FeatureSet((sub, main), ACTION)
    object.__setattr__(other, "main", sub)
    assert other == features and hash(other) == hash(features)
    # Python 3.13 raises TypeError here, older ones ValueError
    with pytest.raises(TypeError if sys.version_info >= (3, 13)
                       else ValueError, match="init=False"):
        dataclasses.replace(features, main=sub)
    # replace rebuilds the set, and finds the main clause of its clauses
    flipped = dataclasses.replace(
        features, clauses=(Clause("c2", A1),
                           Clause("c1", A1, frozenset({"c2"}))))
    assert flipped.main.id == "c2" and flipped != features


# -- a clause and the head noun hold one of the set's own states of affairs --

# an equal copy is not the set's own: FeatureSet checks membership by
# identity, as the parser, copy.deepcopy and pickle all keep it
NOT_OWN = {"list": ["a1"], "id": "a1", "copy": dataclasses.replace(A1)}


@pytest.mark.parametrize("soa", NOT_OWN.values(), ids=NOT_OWN)
def test_a_clause_about_a_state_of_affairs_not_its_own_is_refused(soa):
    assert dataclasses.replace(A1) == A1
    with pytest.raises(ValidationError) as caught:
        FeatureSet((Clause("c1", soa),), SOAS)
    assert str(caught.value) == ("clause 'c1' references unknown state of "
                                 f"affairs {soa!r}")


@pytest.mark.parametrize("head", [["p1"], "p1", dataclasses.replace(P1)],
                         ids=NOT_OWN)
def test_a_head_noun_not_its_own_is_refused(head):
    with pytest.raises(ValidationError) as caught:
        FeatureSet((MAIN,), SOAS, head_noun_private_state=head)
    assert str(caught.value) == ("headNounPrivateState references unknown "
                                 f"state of affairs {head!r}")


def test_replacing_the_states_of_affairs_with_copies_is_refused():
    features = FeatureSet((MAIN,), SOAS, head_noun_private_state=P1)
    copies = tuple(map(dataclasses.replace, SOAS))
    assert copies == features.soas
    with pytest.raises(ValidationError, match="^clause 'c1' references"):
        dataclasses.replace(features, soas=copies)


def test_clause_about_finds_a_clause_by_its_own_state_of_affairs():
    sub = Clause("c2", P1, frozenset({"c1"}))
    features = FeatureSet((MAIN, sub), SOAS)
    assert features.clause_about(P1) is sub
    assert features.clause_about(A1) is MAIN
    assert features.clause_about(dataclasses.replace(P1)) is None
    headed = FeatureSet((MAIN,), SOAS, head_noun_private_state=P1)
    assert headed.clause_about(P1) is None
    # of two clauses about one state of affairs the main one comes first,
    # and the head noun's has no clause even when the main clause is about it
    shared = Clause("c2", A1, frozenset({"c1"}))
    assert FeatureSet((shared, MAIN), SOAS).clause_about(A1) is MAIN
    about_head = FeatureSet((Clause("c1", P1),), SOAS,
                            head_noun_private_state=P1)
    assert about_head.clause_about(P1) is None
