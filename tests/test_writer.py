"""dumps_document writes exactly the text json.dumps writes for the dict
view the writer replaced, and that text parses back to the document."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from povtrack import (
    Clause,
    Context,
    DEFAULT_REGISTRY,
    Document,
    FeatureSet,
    INITIAL_CONTEXT,
    Interpretation,
    ParagraphBreak,
    Pse,
    PseCategory,
    SceneBreak,
    Sentence,
    SoaType,
    StateOfAffairs,
    TextSituation,
    ValidationError,
    VerbFeatures,
    document_to_dict,
    dumps_document,
    parse_document,
)
from povtrack.model import SEPARATORS
from conftest import DATA, fixture_doc

FIXTURES = sorted(path.stem for path in DATA.glob("*.json"))
VP_KEYS = {"simplePast": "simple_past", "negated": "negated",
           "habitual": "habitual", "modal": "modal",
           "pastPerfective": "past_perfective", "progressive": "progressive"}


# -- the reference: the dict builder the writer replaced ---------------------


def oracle_dict(document):
    out = {"title": document.title, "roster": sorted(document.roster)}
    if document.initial_context != INITIAL_CONTEXT:
        ctx = document.initial_context
        out["preamble"] = {
            "situation": ctx.situation.value,
            "lastSC": sorted(ctx.last_sc),
            "previousSCs": sorted(ctx.previous_scs),
            "lastActiveCharacter": sorted(ctx.last_active_character),
        }
    out["items"] = [oracle_item(item) for item in document.items]
    return out


def oracle_item(item):
    if isinstance(item, SceneBreak):
        return {"kind": "scene-break"}
    if isinstance(item, ParagraphBreak):
        return {"kind": "paragraph-break"}
    out = {"kind": "sentence", "id": item.id}
    if item.text is not None:
        out["text"] = item.text
    if item.gold is not None:
        out["gold"] = {"type": item.gold.kind,
                       "characters": sorted(item.gold.characters)}
    fs = item.features
    features = {"quotedSpeech": fs.quoted_speech}
    if fs.parenthetical is not None:
        features["parenthetical"] = sorted(fs.parenthetical)
    if fs.head_noun_private_state is not None:
        features["headNounPrivateState"] = fs.head_noun_private_state
    features["soas"] = [
        {"id": s.id, "type": s.type.value, "who": sorted(s.who)}
        for s in fs.soas]
    features["clauses"] = [
        {"id": c.id, "soa": c.soa, "under": sorted(c.under),
         "vp": {key: getattr(c.vp, attr) for key, attr in VP_KEYS.items()
                if getattr(c.vp, attr)}}
        for c in fs.clauses]
    features["pses"] = [
        {"id": p.id, "category": p.category.name, "under": sorted(p.under)}
        for p in fs.pses]
    out["features"] = features
    return out


def oracle_dumps(document):
    return json.dumps(oracle_dict(document), indent=2, ensure_ascii=False)


def check_written(document, registry=None):
    text = dumps_document(document)
    assert text == oracle_dumps(document)
    assert document_to_dict(document) == oracle_dict(document)
    assert parse_document(text, registry) == document


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_is_written_as_json_dumps_writes_it(name):
    check_written(fixture_doc(name))


# -- hostile documents -------------------------------------------------------

# what JSON must escape, and what it may pass through as it is
HOSTILE = ('"\\/\x00\x08\t\n\x0c\r\x1b\x1f\x7f\x80\x85\xa0\xe9\u2028\u2029'
           '\ufeff\uffff\U0001f600\U0010ffff')
characters = (st.sampled_from(HOSTILE)
              | st.characters(exclude_categories=["Cs"]))
strings = st.text(characters, max_size=5)
words = st.text(characters, min_size=1, max_size=5)
sentence_ids = words.filter(SEPARATORS.isdisjoint)
# a built-in name or any other, at any level, excluded or not
categories = st.builds(PseCategory, st.sampled_from(sorted(DEFAULT_REGISTRY))
                       | words, st.integers(1, 4), st.booleans())


def subsets(draw, pool, min_size=0):
    return draw(st.frozensets(st.sampled_from(sorted(pool)), min_size=min_size,
                              max_size=3)) if pool else frozenset()


@st.composite
def feature_sets(draw, roster, registry):
    """Every optional field present or absent, and empty who, under and
    vp; the ids share an alphabet with every other string.  Elements
    draw their category from ``registry``."""
    soa_ids = draw(st.lists(words, min_size=1, max_size=3, unique=True))
    soas = [StateOfAffairs(soa_id, draw(st.sampled_from(list(SoaType))),
                           subsets(draw, roster)) for soa_id in soa_ids]
    clause_ids = draw(st.lists(words, min_size=1, max_size=3, unique=True))
    clauses = [Clause(cid, draw(st.sampled_from(soa_ids)),
                      subsets(draw, clause_ids[:i], min_size=1),
                      VerbFeatures(*draw(st.lists(st.booleans(), min_size=6,
                                                  max_size=6))))
               for i, cid in enumerate(clause_ids)]
    head = draw(st.none() | st.sampled_from(
        [s.id for s in soas if s.type is SoaType.PRIVATE_STATE] or [None]))
    pses = [Pse(pid, draw(st.sampled_from(registry)),
                subsets(draw, clause_ids))
            for pid in draw(st.lists(words, max_size=3, unique=True))]
    parenthetical = (subsets(draw, roster, min_size=1)
                     if roster and draw(st.booleans()) else None)
    main = next(s for s in soas if s.id == clauses[0].soa)
    quoted = (main.type is SoaType.ACTION and head is None
              and draw(st.booleans()))
    return FeatureSet(tuple(clauses), tuple(soas), tuple(pses), parenthetical,
                      head, quoted)


@st.composite
def documents(draw):
    roster = draw(st.frozensets(words, max_size=4))
    # one category per name, so that one registry parses the text back
    registry = draw(st.lists(categories, min_size=1, max_size=4,
                             unique_by=lambda c: c.name))
    items = []
    for sid in draw(st.lists(sentence_ids, max_size=4, unique=True)):
        items += draw(st.lists(st.sampled_from([SceneBreak(),
                                                ParagraphBreak()]),
                               max_size=1))
        gold = draw(st.none() | st.builds(
            Interpretation, st.booleans(), st.frozensets(words, max_size=2)))
        items.append(Sentence(sid, draw(feature_sets(roster, registry)),
                              draw(st.none() | strings), gold))
    context = INITIAL_CONTEXT
    if draw(st.booleans()):
        previous = subsets(draw, roster)
        context = Context(subsets(draw, previous), subsets(draw, roster),
                          previous, draw(st.sampled_from(list(TextSituation))))
    return Document(draw(strings), roster, tuple(items), context)


EVERY_FIELD = Document(
    "", frozenset({HOSTILE, "é"}),
    (Sentence("\U0001f600\x7f\"\\", FeatureSet(
        (Clause(HOSTILE, "a\x00"), Clause("c2", "a\x00", frozenset({HOSTILE}),
                                          VerbFeatures(True, modal=True))),
        (StateOfAffairs("a\x00", SoaType.ACTION, frozenset({HOSTILE})),
         StateOfAffairs("p", SoaType.PRIVATE_STATE)),
        (Pse(HOSTILE, PseCategory(HOSTILE, 3), frozenset({"c2"})),),
        frozenset({"é"}), "p"), text=HOSTILE,
        gold=Interpretation(True, frozenset({"Ghost", HOSTILE}))),
     SceneBreak(), ParagraphBreak(),
     Sentence("s2", FeatureSet((Clause("c", "a"),),
                               (StateOfAffairs("a", SoaType.ACTION),)),
              text="")),
    Context(frozenset({"é"}), frozenset(), frozenset({"é", HOSTILE}),
            TextSituation.BROKEN_SUBJECTIVE))


@settings(max_examples=300, deadline=None)
@given(documents())
@example(EVERY_FIELD)
@example(Document("", frozenset(), ()))
def test_any_document_is_written_as_json_dumps_writes_it(document):
    registry = dict(DEFAULT_REGISTRY)
    for sentence in document.sentences():
        for pse in sentence.features.pses:
            registry[pse.category.name] = pse.category
    check_written(document, registry)


# -- fields of a type the schema has no text for -----------------------------


def sentence_with(clause=Clause("c1", "a1"),
                  soa=StateOfAffairs("a1", SoaType.ACTION)):
    return Document("t", frozenset(), (
        Sentence("s0", FeatureSet((Clause("c1", "a1"),), (
            StateOfAffairs("a1", SoaType.ACTION),))),
        Sentence("s1", FeatureSet((clause,), (soa,)))))


@pytest.mark.parametrize("document, problem", [
    (sentence_with(clause=Clause(5, "a1")),
     "first argument must be a string, not int"),
    (sentence_with(soa=StateOfAffairs("a1", "action")), "no attribute"),
    (sentence_with(clause=Clause("c1", "a1", vp=VerbFeatures(None))),
     "VerbFeatures"),
], ids=["int-clause-id", "str-soa-type", "none-vp-flag"])
def test_a_field_with_no_json_text_is_refused_naming_its_sentence(
        document, problem):
    with pytest.raises(ValidationError, match="^sentence s1: cannot be "
                       f"written: .*{problem}"):
        dumps_document(document)
