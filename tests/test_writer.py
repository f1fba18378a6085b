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
    Engine,
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
    VerbFeatures,
    dumps_document,
    parse_document,
)
from povtrack import model
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
        features["headNounPrivateState"] = fs.head_noun_private_state.id
    features["soas"] = [
        {"id": s.id, "type": s.type.value, "who": sorted(s.who)}
        for s in fs.soas]
    features["clauses"] = [
        {"id": c.id, "soa": c.soa.id, "under": sorted(c.under),
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
    assert json.loads(text) == oracle_dict(document)
    assert parse_document(text, registry) == document


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_is_written_as_json_dumps_writes_it(name):
    check_written(fixture_doc(name))


@pytest.mark.parametrize("small", [model.SMALL, 0],
                         ids=["as-run", "views-only"])
@pytest.mark.parametrize("name", FIXTURES)
def test_a_step_context_is_a_preamble_that_round_trips(name, small,
                                                       monkeypatch):
    """A document resumed after any step of a pass takes that step's
    context as its preamble, and is written and read back equal; with
    ``SMALL`` at 0 each such context holds a view of its fold's log."""
    monkeypatch.setattr(model, "SMALL", small)
    document = fixture_doc(name)
    steps = Engine().track_document(document)
    for k, step in enumerate(steps):
        check_written(Document(document.title, document.roster,
                               document.items[k + 1:], step.after))


def test_a_name_set_shared_across_depths_is_written_at_each_depth():
    """The writer writes each distinct name set once per depth per call.
    A parse shares one frozenset between a gold label, a parenthetical and
    a who, written at depths 4 and 6; an equal set that is another object
    is written as the same text."""
    shared = frozenset({"Zoe", "Abe"})
    equal = frozenset(["Abe", "Zoe"])
    assert equal == shared and equal is not shared
    said = StateOfAffairs("a1", SoaType.ACTION, shared)
    thought = StateOfAffairs("a2", SoaType.PRIVATE_STATE, equal)
    first = FeatureSet((Clause("c1", said),
                        Clause("c2", thought, frozenset({"c1"}))),
                       (said, thought), (), shared)
    # the second sentence writes at depth 4 the set the first wrote at 6
    second = FeatureSet((Clause("c1", thought),), (thought,), (), equal)
    check_written(Document("t", frozenset({"Abe", "Cy", "Zoe"}), (
        Sentence("s1", first, gold=Interpretation(True, shared)),
        Sentence("s2", second, gold=Interpretation(False, equal)))))


# -- hostile documents -------------------------------------------------------

# what JSON must escape, and what it may pass through as it is
HOSTILE = ('"\\/\x00\x08\t\n\x0c\r\x1b\x1f\x7f\x80\x85\xa0\xe9\u2028\u2029'
           '\ufeff\uffff\U0001f600\U0010ffff')
characters = (st.sampled_from(HOSTILE)
              | st.characters(exclude_categories=["Cs"]))
strings = st.text(characters, max_size=5)
words = st.text(characters, min_size=1, max_size=5)
# sentence ids and names: verdict and trace lines print them
line_words = words.filter(SEPARATORS.isdisjoint)
# a built-in name or any other, at any level, excluded or not
categories = st.builds(PseCategory, st.sampled_from(sorted(DEFAULT_REGISTRY))
                       | line_words, st.integers(1, 4), st.booleans())


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
    clauses = [Clause(cid, draw(st.sampled_from(soas)),
                      subsets(draw, clause_ids[:i], min_size=1),
                      VerbFeatures(*draw(st.lists(st.booleans(), min_size=6,
                                                  max_size=6))))
               for i, cid in enumerate(clause_ids)]
    head = draw(st.none() | st.sampled_from(
        [s for s in soas if s.type is SoaType.PRIVATE_STATE] or [None]))
    pses = [Pse(pid, draw(st.sampled_from(registry)),
                subsets(draw, clause_ids))
            for pid in draw(st.lists(words, max_size=3, unique=True))]
    parenthetical = (subsets(draw, roster, min_size=1)
                     if roster and draw(st.booleans()) else None)
    quoted = (clauses[0].soa.type is SoaType.ACTION and head is None
              and draw(st.booleans()))
    return FeatureSet(tuple(clauses), tuple(soas), tuple(pses), parenthetical,
                      head, quoted)


@st.composite
def documents(draw):
    roster = draw(st.frozensets(line_words, max_size=4))
    # one category per name, so that one registry parses the text back
    registry = draw(st.lists(categories, min_size=1, max_size=4,
                             unique_by=lambda c: c.name))
    items = []
    for sid in draw(st.lists(line_words, max_size=4, unique=True)):
        items += draw(st.lists(st.sampled_from([SceneBreak(),
                                                ParagraphBreak()]),
                               max_size=1))
        gold = draw(st.none() | st.builds(
            Interpretation, st.booleans(),
            st.frozensets(line_words, max_size=2)))
        items.append(Sentence(sid, draw(feature_sets(roster, registry)),
                              draw(st.none() | strings), gold))
    context = INITIAL_CONTEXT
    if draw(st.booleans()):
        previous = subsets(draw, roster)
        context = Context(subsets(draw, previous), subsets(draw, roster),
                          previous, draw(st.sampled_from(list(TextSituation))))
    return Document(draw(strings), roster, tuple(items), context)


# a name may hold all of it but the tab and the line breaks
NAME = HOSTILE.translate(dict.fromkeys(map(ord, SEPARATORS)))
ACTION = StateOfAffairs("a\x00", SoaType.ACTION, frozenset({NAME}))
HEAD = StateOfAffairs("p", SoaType.PRIVATE_STATE)
SAID = StateOfAffairs("a", SoaType.ACTION)
EVERY_FIELD = Document(
    "", frozenset({NAME, "é"}),
    (Sentence("\U0001f600\x7f\"\\", FeatureSet(
        (Clause(HOSTILE, ACTION), Clause("c2", ACTION, frozenset({HOSTILE}),
                                         VerbFeatures(True, modal=True))),
        (ACTION, HEAD),
        (Pse(HOSTILE, PseCategory(NAME, 3), frozenset({"c2"})),),
        frozenset({"é"}), HEAD), text=HOSTILE,
        gold=Interpretation(True, frozenset({"Ghost", NAME}))),
     SceneBreak(), ParagraphBreak(),
     Sentence("s2", FeatureSet((Clause("c", SAID),), (SAID,)), text="")),
    Context(frozenset({"é"}), frozenset(), frozenset({"é", NAME}),
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
