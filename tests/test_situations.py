"""Exhaustive checks of the situation rows and the context transitions
against hand-derived tables."""

import copy
import pickle

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from povtrack import (
    Context,
    Interpretation,
    ParagraphBreak,
    SceneBreak,
    TextSituation,
    new_context,
    new_context_after_break,
)
from test_properties import character_sets, contexts

ALL = list(TextSituation)

# (situation, input kind) -> next situation; derived by hand from the
# transition definitions, one row per case, no default branch.
SENTENCE_TABLE = {
    ("presubjective-nonactive", "subjective"): "continuing-subjective",
    ("presubjective-nonactive", "objective-char"): "presubjective-active",
    ("presubjective-nonactive", "objective-empty"): "presubjective-nonactive",
    ("presubjective-active", "subjective"): "continuing-subjective",
    ("presubjective-active", "objective-char"): "presubjective-active",
    ("presubjective-active", "objective-empty"): "presubjective-active",
    ("continuing-subjective", "subjective"): "continuing-subjective",
    ("continuing-subjective", "objective-char"): "interrupted-subjective",
    ("continuing-subjective", "objective-empty"): "interrupted-subjective",
    ("broken-subjective", "subjective"): "continuing-subjective",
    ("broken-subjective", "objective-char"): "postsubjective-active",
    ("broken-subjective", "objective-empty"): "postsubjective-nonactive",
    ("interrupted-subjective", "subjective"): "continuing-subjective",
    ("interrupted-subjective", "objective-char"): "interrupted-subjective",
    ("interrupted-subjective", "objective-empty"): "interrupted-subjective",
    ("postsubjective-nonactive", "subjective"): "continuing-subjective",
    ("postsubjective-nonactive", "objective-char"): "postsubjective-active",
    ("postsubjective-nonactive", "objective-empty"): "postsubjective-nonactive",
    ("postsubjective-active", "subjective"): "continuing-subjective",
    ("postsubjective-active", "objective-char"): "postsubjective-active",
    ("postsubjective-active", "objective-empty"): "postsubjective-active",
}

BREAK_TABLE = {
    ("presubjective-nonactive", "paragraph"): "presubjective-nonactive",
    ("presubjective-active", "paragraph"): "presubjective-nonactive",
    ("continuing-subjective", "paragraph"): "broken-subjective",
    ("broken-subjective", "paragraph"): "broken-subjective",
    ("interrupted-subjective", "paragraph"): "postsubjective-nonactive",
    ("postsubjective-nonactive", "paragraph"): "postsubjective-nonactive",
    ("postsubjective-active", "paragraph"): "postsubjective-nonactive",
}
BREAK_TABLE.update({(s.value, "scene"): "presubjective-nonactive" for s in ALL})

INPUTS = {
    "subjective": Interpretation(True, frozenset({"Zoe"})),
    "objective-char": Interpretation(False, frozenset({"Newt"})),
    "objective-empty": Interpretation(False, frozenset()),
}


def ctx(situation, last_sc=frozenset({"Zoe"}), last_active=frozenset({"Jake"}),
        previous=frozenset({"Jake", "Newt", "Zoe"})):
    return Context(last_sc, last_active, previous, situation)


@pytest.mark.parametrize("situation", ALL)
@pytest.mark.parametrize("kind", sorted(INPUTS))
def test_sentence_transitions_match_table(situation, kind):
    out = new_context(INPUTS[kind], ctx(situation))
    assert out.situation.value == SENTENCE_TABLE[(situation.value, kind)]


@pytest.mark.parametrize("situation", ALL)
@pytest.mark.parametrize("kind", ["paragraph", "scene"])
def test_break_transitions_match_table(situation, kind):
    item = ParagraphBreak() if kind == "paragraph" else SceneBreak()
    out = new_context_after_break(item, ctx(situation))
    assert out.situation.value == BREAK_TABLE[(situation.value, kind)]


def test_subjective_updates_last_sc_and_previous():
    before = ctx(TextSituation.POSTSUBJECTIVE_ACTIVE)
    out = new_context(Interpretation(True, frozenset({"Call"})), before)
    assert out.last_sc == {"Call"}
    assert out.previous_scs == before.previous_scs | {"Call"}
    assert out.last_active_character == before.last_active_character


@pytest.mark.parametrize("who", [set(), {"Zoe"}, {"Jake", "Newt"},
                                 {"Jake", "Newt", "Zoe"}])
def test_subjective_adding_nobody_shares_previous(who):
    before = ctx(TextSituation.POSTSUBJECTIVE_ACTIVE)
    out = new_context(Interpretation(True, frozenset(who)), before)
    assert out.previous_scs is before.previous_scs


@pytest.mark.parametrize("who", [{"Call"}, {"Call", "Zoe"}])
def test_subjective_adding_someone_enlarges_previous(who):
    before = ctx(TextSituation.CONTINUING_SUBJECTIVE)
    out = new_context(Interpretation(True, frozenset(who)), before)
    assert out.previous_scs == before.previous_scs | who
    assert out.previous_scs > before.previous_scs


def test_objective_with_character_updates_last_active_only():
    before = ctx(TextSituation.BROKEN_SUBJECTIVE)
    out = new_context(Interpretation(False, frozenset({"Newt"})), before)
    assert out.last_active_character == {"Newt"}
    assert out.last_sc == before.last_sc
    assert out.previous_scs == before.previous_scs


def test_objective_empty_keeps_last_active():
    before = ctx(TextSituation.POSTSUBJECTIVE_ACTIVE)
    out = new_context(Interpretation(False, frozenset()), before)
    assert out.last_active_character == before.last_active_character


def test_breaks_keep_character_fields():
    before = ctx(TextSituation.CONTINUING_SUBJECTIVE)
    for item in (ParagraphBreak(), SceneBreak()):
        out = new_context_after_break(item, before)
        assert (out.last_sc, out.last_active_character, out.previous_scs) == (
            before.last_sc, before.last_active_character, before.previous_scs)


def test_interrupted_entered_only_from_continuing_via_objective():
    interrupted = TextSituation.INTERRUPTED_SUBJECTIVE
    for situation in ALL:
        for kind, interp in INPUTS.items():
            out = new_context(interp, ctx(situation))
            if out.situation is interrupted and situation is not interrupted:
                assert situation is TextSituation.CONTINUING_SUBJECTIVE
                assert kind.startswith("objective")
        for item in (ParagraphBreak(), SceneBreak()):
            out = new_context_after_break(item, ctx(situation))
            assert out.situation is not interrupted or situation is interrupted


def test_paragraph_break_idempotent_on_fixpoints():
    for situation in (TextSituation.PRESUBJECTIVE_NONACTIVE,
                      TextSituation.BROKEN_SUBJECTIVE,
                      TextSituation.POSTSUBJECTIVE_NONACTIVE):
        once = new_context_after_break(ParagraphBreak(), ctx(situation))
        twice = new_context_after_break(ParagraphBreak(), once)
        assert once == twice
        assert once.situation is situation


def rebuilt(event, context):
    """The context after an interpretation or a break, built afresh from
    the tables above."""
    if isinstance(event, Interpretation):
        who = event.characters
        kind = ("subjective" if event.subjective
                else "objective-char" if who else "objective-empty")
        situation = TextSituation(SENTENCE_TABLE[context.situation.value,
                                                 kind])
        if event.subjective:
            return Context(who, context.last_active_character,
                           context.previous_scs | who, situation)
        return Context(context.last_sc, who or context.last_active_character,
                       context.previous_scs, situation)
    kind = "scene" if isinstance(event, SceneBreak) else "paragraph"
    return Context(context.last_sc, context.last_active_character,
                   context.previous_scs,
                   TextSituation(BREAK_TABLE[context.situation.value, kind]))


@st.composite
def transitions(draw):
    """A context and an interpretation or break, the interpretation's
    characters often equal to (not the same set as) one in the context."""
    context = draw(contexts())
    who = draw(st.one_of(character_sets, st.sampled_from([
        frozenset(list(context.last_sc)),
        frozenset(list(context.last_active_character))])))
    event = draw(st.sampled_from([
        Interpretation(True, who), Interpretation(False, who),
        ParagraphBreak(), SceneBreak()]))
    return event, context


JAKE = frozenset({"Jake"})


@given(transitions())
@example((INPUTS["subjective"], ctx(TextSituation.CONTINUING_SUBJECTIVE)))
@example((Interpretation(True, JAKE),
          ctx(TextSituation.CONTINUING_SUBJECTIVE)))
@example((Interpretation(False, JAKE),
          ctx(TextSituation.POSTSUBJECTIVE_ACTIVE)))
@example((INPUTS["objective-empty"],
          ctx(TextSituation.PRESUBJECTIVE_NONACTIVE)))
@example((ParagraphBreak(), ctx(TextSituation.BROKEN_SUBJECTIVE)))
@example((SceneBreak(), ctx(TextSituation.PRESUBJECTIVE_NONACTIVE)))
@example((SceneBreak(), ctx(TextSituation.PRESUBJECTIVE_ACTIVE)))
def test_a_transition_returns_its_context_exactly_when_unchanged(case):
    event, context = case
    out = (new_context(event, context) if isinstance(event, Interpretation)
           else new_context_after_break(event, context))
    expected = rebuilt(event, context)
    assert out == expected
    assert (out is context) == (expected == context)


EXPECT_LAST_SC = {
    "presubjective-nonactive": False,
    "presubjective-active": False,
    "continuing-subjective": True,
    "broken-subjective": True,
    "interrupted-subjective": True,
    "postsubjective-nonactive": True,
    "postsubjective-active": True,
}

EXPECT_LAST_ACTIVE = {
    "presubjective-nonactive": False,
    "presubjective-active": True,
    "continuing-subjective": False,
    "broken-subjective": False,
    "interrupted-subjective": False,
    "postsubjective-nonactive": False,
    "postsubjective-active": True,
}


@pytest.mark.parametrize("situation", ALL)
def test_expectation_predicates_exhaustive(situation):
    assert situation.sc_expected is EXPECT_LAST_SC[situation.value]
    assert situation.active_expected is EXPECT_LAST_ACTIVE[situation.value]


@pytest.mark.parametrize("situation", ALL)
def test_successor_columns_match_tables(situation):
    for column, table, kind in (
            ("after_break", BREAK_TABLE, "paragraph"),
            ("after_objective", SENTENCE_TABLE, "objective-empty"),
            ("after_active", SENTENCE_TABLE, "objective-char")):
        successor = getattr(situation, column)
        assert successor is TextSituation(table[situation.value, kind])


@pytest.mark.parametrize("situation", ALL)
def test_a_situation_survives_lookup_pickle_and_copy(situation):
    assert TextSituation(situation.value) is situation
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(situation, protocol)) is situation
    assert copy.deepcopy(situation) is situation
    assert copy.copy(situation) is situation
    assert isinstance(situation.value, str)
    assert repr(situation) == \
        f"<TextSituation.{situation.name}: {situation.value!r}>"
    assert hash(situation) == hash(situation.name)
