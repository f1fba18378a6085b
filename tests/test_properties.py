"""Randomized invariants over contexts, feature sets, and whole streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povtrack import (
    Clause,
    Context,
    Engine,
    FeatureSet,
    Interpretation,
    ParagraphBreak,
    Pse,
    PseCategory,
    SceneBreak,
    Sentence,
    SignificancePolicy,
    SoaType,
    StateOfAffairs,
    TextSituation,
    VerbFeatures,
    new_context,
    new_context_after_break,
)

NAMES = ("Ada", "Bo", "Cyr", "Dot")
CATEGORIES = ("question", "sentence-fragment", "progressive", "habitual",
              "eval-adjective", "evidential-evidence", "comparative-like",
              "past-perfective", "conjunct", "degree-intensifier")
# a registry may set any category to any level, excluded or not
categories = st.builds(PseCategory, st.sampled_from(CATEGORIES),
                       st.integers(1, 4), st.booleans())

character_sets = st.frozensets(st.sampled_from(NAMES), max_size=3)
situations = st.sampled_from(list(TextSituation))


@st.composite
def contexts(draw):
    last_sc = draw(character_sets)
    previous = draw(character_sets) | last_sc
    return Context(last_sc, draw(character_sets), previous,
                   draw(situations))


interpretations = st.one_of(
    st.builds(Interpretation.subjective_of, character_sets),
    st.builds(Interpretation.objective_of, character_sets),
)

verb_features = st.builds(
    VerbFeatures,
    simple_past=st.booleans(), negated=st.booleans(),
    habitual=st.booleans(), modal=st.booleans(),
    past_perfective=st.booleans(), progressive=st.booleans())


@st.composite
def feature_sets(draw):
    n_extra = draw(st.integers(0, 2))
    soas = []
    clauses = []
    for i in range(n_extra + 1):
        soas.append(StateOfAffairs(
            f"a{i}", draw(st.sampled_from(list(SoaType))),
            draw(character_sets)))
        under = frozenset() if i == 0 else frozenset(
            {f"c{draw(st.integers(0, i - 1))}"})
        clauses.append(Clause(f"c{i}", f"a{i}", under, draw(verb_features)))
    head = None
    if draw(st.booleans()):
        soas.append(StateOfAffairs("hn", SoaType.PRIVATE_STATE,
                                   draw(character_sets)))
        head = "hn"
    pses = []
    for j in range(draw(st.integers(0, 3))):
        under = draw(st.sets(st.sampled_from([c.id for c in clauses]),
                             max_size=2))
        pses.append(Pse(f"p{j}", draw(categories), frozenset(under)))
    parenthetical = None
    if draw(st.booleans()):
        parenthetical = draw(character_sets.filter(bool))
    quoted = (draw(st.booleans())
              and soas[0].type is SoaType.ACTION and head is None)
    return FeatureSet(tuple(clauses), tuple(soas), tuple(pses),
                      parenthetical, head, quoted)


@st.composite
def streams(draw):
    items = []
    for i in range(draw(st.integers(0, 12))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            items.append(ParagraphBreak())
        elif kind == 1:
            items.append(SceneBreak())
        else:
            items.append(Sentence(f"s{i}", draw(feature_sets())))
    return items


@given(interpretations, contexts())
def test_sentence_transition_invariants(interp, context):
    out = new_context(interp, context)
    assert context.previous_scs <= out.previous_scs
    if interp.subjective:
        assert out.situation is TextSituation.CONTINUING_SUBJECTIVE
        assert out.last_sc == interp.characters
    else:
        assert out.last_sc == context.last_sc
        assert out.previous_scs == context.previous_scs
    # the context well-formedness condition is preserved
    if out.last_sc:
        assert out.last_sc <= out.previous_scs


@given(contexts())
def test_break_transition_invariants(context):
    scene = new_context_after_break(SceneBreak(), context)
    assert scene.situation is TextSituation.PRESUBJECTIVE_NONACTIVE
    para = new_context_after_break(ParagraphBreak(), context)
    for out in (scene, para):
        assert out.last_sc == context.last_sc
        assert out.previous_scs == context.previous_scs
        assert out.last_active_character == context.last_active_character


@given(feature_sets(), contexts())
def test_interpretation_is_deterministic(fs, context):
    engine = Engine()
    assert (engine.interpret(fs, context, context.previous_scs)
            == engine.interpret(fs, context, context.previous_scs))


@given(feature_sets(), character_sets)
def test_choice_returns_the_reading_of_the_chosen_state(fs, qualified):
    engine = Engine()
    soa, reads_private = engine.choose_state_of_affairs(fs, qualified)
    assert reads_private == engine.treat_as_private_state(soa, qualified)


@given(feature_sets(), contexts())
def test_identified_character_comes_from_known_sources(fs, context):
    engine = Engine()
    interp, detail = engine.interpret(fs, context, context.previous_scs)
    if not interp.subjective:
        return
    allowed = (detail.chosen.who | context.last_sc
               | context.last_active_character)
    if fs.parenthetical is not None:
        allowed |= fs.parenthetical
    assert interp.characters <= allowed


@given(feature_sets(), contexts())
def test_active_characters_were_subjective_before(fs, context):
    engine = Engine()
    interp, detail = engine.interpret(fs, context, context.previous_scs)
    if interp.subjective or not interp.characters:
        return
    assert interp.characters <= context.previous_scs
    clause = fs.clause_about(detail.chosen.id)
    assert clause.vp.simple_past
    assert not (clause.vp.negated or clause.vp.habitual or clause.vp.modal)


@given(feature_sets(), contexts())
def test_psa_sentences_never_have_active_characters_by_default(fs, context):
    # under the default policy, an actor qualified to be active would
    # also make the sentence subjective, so the two never co-occur
    engine = Engine()
    interp, detail = engine.interpret(fs, context, context.previous_scs)
    if detail.chosen.type is SoaType.PRIVATE_STATE_ACTION and \
            not interp.subjective:
        assert interp.characters == frozenset()


@settings(max_examples=60)
@given(streams())
def test_track_fold_invariants(items):
    engine = Engine()
    steps = engine.track(items)
    assert len(steps) == len(items)
    previous = None
    for step in steps:
        if previous is not None:
            assert step.before == previous
        previous = step.after
        assert step.before.previous_scs <= step.after.previous_scs
        if step.interpretation is None:
            assert isinstance(step.item, (ParagraphBreak, SceneBreak))
        elif step.interpretation.subjective:
            assert step.after.situation is TextSituation.CONTINUING_SUBJECTIVE
    # replay is identical
    assert steps == engine.track(items)


class RecordOracle:
    """The per-character record rule the fold's qualified set replaces:
    flags that only ever turn on, the live runs (a streak of consecutive
    subjective sentences of one character; any objective sentence, break
    or other character's sentence ends it) and each longest run."""

    def __init__(self, previously_subjective):
        self.ever = set(previously_subjective)
        self.thought = set()
        self.element = set()
        self.longest = {}
        self.runs = {}

    def note_subjective(self, characters, represented_thought,
                        subjective_element):
        runs = {}
        for name in characters:
            self.ever.add(name)
            if represented_thought:
                self.thought.add(name)
            if subjective_element:
                self.element.add(name)
            runs[name] = self.runs.get(name, 0) + 1
            self.longest[name] = max(self.longest.get(name, 0), runs[name])
        self.runs = runs

    def note_nonsubjective(self):
        self.runs = {}

    def satisfies(self, name, policy):
        if policy is SignificancePolicy.ANY_PREVIOUS_SC:
            return name in self.ever
        if policy is SignificancePolicy.CONTAINS_REPRESENTED_THOUGHT:
            return name in self.thought
        if policy is SignificancePolicy.CONTAINS_SUBJECTIVE_ELEMENT:
            return name in self.element
        return self.longest.get(name, 0) >= 2

    def psa_reads_private(self, who, context, policy):
        return bool(who) and who <= context.previous_scs and all(
            self.satisfies(name, policy) for name in who)


PAIR = ("Ada", "Bo")
# casts that name someone come first: hypothesis starts from early entries
pair_sets = st.sampled_from([frozenset(who) for who in
                             ({"Ada"}, {"Bo"}, {"Ada", "Bo"}, ())])
# labels repeat so that runs form, break and resume
pair_labels = st.sampled_from(
    [Interpretation.subjective_of(who) for who in
     ({"Ada"}, {"Bo"}, {"Ada", "Bo"}, set())]
    + [Interpretation.objective_of(()), Interpretation.objective_of({"Bo"})])


@st.composite
def psa_sentences(draw, sid):
    """Mostly about a private-state action of the pair, sometimes with a
    parenthetical, a firing element or a subordinated private state."""
    kind = draw(st.sampled_from([SoaType.PRIVATE_STATE_ACTION] * 4
                                + list(SoaType)))
    soas = [StateOfAffairs("a0", kind, draw(pair_sets))]
    clauses = [Clause("c0", "a0", frozenset(), VerbFeatures(simple_past=True))]
    if draw(st.booleans()):
        soas.append(StateOfAffairs("a1", draw(st.sampled_from(list(SoaType))),
                                   draw(pair_sets)))
        clauses.append(Clause("c1", "a1", frozenset({"c0"}),
                              VerbFeatures(simple_past=True)))
    pses = tuple(Pse(f"p{j}", category, frozenset())
                 for j, category in enumerate(draw(st.lists(
                     categories, max_size=2))))
    parenthetical = draw(st.sampled_from(
        [None, None, None, frozenset({"Ada"}), frozenset(PAIR)]))
    return Sentence(sid, FeatureSet(tuple(clauses), tuple(soas), pses,
                                    parenthetical),
                    gold=draw(pair_labels))


@st.composite
def psa_streams(draw):
    items = []
    for i in range(draw(st.integers(0, 14))):
        kind = draw(st.integers(0, 4))
        if kind == 0:
            items.append(ParagraphBreak())
        elif kind == 1:
            items.append(SceneBreak())
        else:
            items.append(draw(psa_sentences(f"s{i}")))
    last_sc = draw(pair_sets)
    context = Context(last_sc, draw(pair_sets), draw(pair_sets) | last_sc,
                      draw(situations))
    return items, context


@pytest.mark.parametrize("policy", list(SignificancePolicy),
                         ids=lambda p: p.value)
@settings(max_examples=150)
@given(psa_streams())
def test_qualified_set_matches_per_character_records(policy, stream):
    items, context = stream
    for gold in (True, False):
        oracle = RecordOracle(context.previous_scs)
        for step in Engine(policy=policy)._fold(items, context, gold):
            if step.detail is None:
                oracle.note_nonsubjective()
                continue
            chosen = step.detail.chosen
            if chosen.type is SoaType.PRIVATE_STATE_ACTION:
                assert step.detail.reads_private == oracle.psa_reads_private(
                    chosen.who, step.before, policy), f"gold={gold}"
            label = step.item.gold if gold else step.interpretation
            if label.subjective:
                oracle.note_subjective(
                    label.characters,
                    step.item.features.parenthetical is None
                    and not step.detail.reads_private,
                    bool(step.detail.fired))
            else:
                oracle.note_nonsubjective()
