"""Unit tests for the sentence interpreter, one behavior at a time."""

from collections import Counter

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
    ParagraphBreak,
    Pse,
    SceneBreak,
    Sentence,
    SignificancePolicy,
    SoaType,
    StateOfAffairs,
    TextSituation,
    VerbFeatures,
    evaluate,
)

TS = TextSituation
PAST = VerbFeatures(simple_past=True)


def soa(sid, kind, who=()):
    return StateOfAffairs(sid, SoaType(kind), frozenset(who))


def clause(cid, soa_id, under=(), vp=PAST):
    return Clause(cid, soa_id, frozenset(under), vp)


def pse(pid, category, under=()):
    return Pse(pid, DEFAULT_REGISTRY[category], frozenset(under))


def fs(soas, clauses, pses=(), **kwargs):
    return FeatureSet(clauses=tuple(clauses), soas=tuple(soas),
                      pses=tuple(pses), **kwargs)


def ctx(situation, last_sc=(), last_active=(), previous=()):
    return Context(frozenset(last_sc), frozenset(last_active),
                   frozenset(previous), situation)


@pytest.fixture
def engine():
    return Engine()


def test_engine_takes_only_the_policy_by_keyword():
    # the registry was applied when the document was parsed
    with pytest.raises(TypeError):
        Engine(DEFAULT_REGISTRY)
    policy = SignificancePolicy.MIN_LENGTH_2
    assert Engine(policy=policy).policy is policy


def verdict(engine, features, context):
    interpretation, _detail = engine.interpret(features, context,
                                               context.previous_scs)
    return interpretation


def subjective_character(engine, features, context):
    interpretation = verdict(engine, features, context)
    assert interpretation.subjective
    return interpretation.characters


def considerable(engine, features, context):
    """Elements usable as evidence against the chosen experiencer."""
    _interpretation, detail = engine.interpret(features, context,
                                               context.previous_scs)
    return detail.considerable


def source(engine, features, context):
    _interpretation, detail = engine.interpret(features, context,
                                               context.previous_scs)
    return detail.sc_source


def choose(engine, features, context=INITIAL_CONTEXT):
    """The chosen state of affairs, everyone in previous_scs qualified."""
    soa, _reads_private = engine.choose_state_of_affairs(
        features, context.previous_scs)
    return soa


# where the subjective character comes from when the sentence names it
FROM_SENTENCE = ("parenthetical", "experiencer")


# -- choosing the state of affairs -----------------------------------------


def test_choose_plain_action_main_clause(engine):
    # "Japheth turned the book over in a puzzled manner." -- the manner
    # adverbial is not annotated as a state of affairs at all
    features = fs([soa("a1", "action", {"Japheth"})], [clause("c1", "a1")])
    chosen = choose(engine, features)
    assert chosen.id == "a1"


def test_choose_private_state_main_clause(engine):
    features = fs([soa("a1", "private-state", {"Zoe"})], [clause("c1", "a1")])
    assert choose(engine, features).id == "a1"


def test_choose_head_noun_private_state(engine):
    # "The pain increased."
    features = fs([soa("a1", "action"), soa("a2", "private-state")],
                  [clause("c1", "a1")], head_noun_private_state="a2")
    assert choose(engine, features).id == "a2"


def test_private_state_main_clause_beats_head_noun(engine):
    # "The pain angered him."
    features = fs([soa("a1", "private-state", {"Call"}),
                   soa("a2", "private-state")],
                  [clause("c1", "a1")], head_noun_private_state="a2")
    assert choose(engine, features).id == "a1"


def test_choose_subordinated_private_state_clause(engine):
    # "When he got within fifteen miles ... he cut west, thinking they
    # would be holding the herd in that direction."
    features = fs(
        [soa("a1", "action", {"Call"}), soa("a2", "action", {"Call"}),
         soa("a3", "private-state", {"Call"})],
        [clause("c1", "a1"), clause("c2", "a2", under={"c1"}),
         clause("c3", "a3", under={"c1"})])
    assert choose(engine, features).id == "a3"


def test_candidate_under_private_state_clause_is_skipped(engine):
    # a private state subordinated to another private-state clause is
    # not a candidate of its own
    features = fs(
        [soa("a1", "action", {"Zoe"}), soa("a2", "private-state", {"Zoe"}),
         soa("a3", "private-state", {"Joe"})],
        [clause("c1", "a1"), clause("c2", "a2", under={"c1"}),
         clause("c3", "a3", under={"c2"})])
    assert choose(engine, features).id == "a2"


def test_candidate_tie_broken_by_annotation_order(engine):
    features = fs(
        [soa("a1", "action", {"Zoe"}), soa("a2", "private-state", {"Zoe"}),
         soa("a3", "private-state", {"Joe"})],
        [clause("c1", "a1"), clause("c2", "a2", under={"c1"}),
         clause("c3", "a3", under={"c1"})])
    assert choose(engine, features).id == "a2"
    flipped = fs(
        [soa("a1", "action", {"Zoe"}), soa("a2", "private-state", {"Zoe"}),
         soa("a3", "private-state", {"Joe"})],
        [clause("c1", "a1"), clause("c3", "a3", under={"c1"}),
         clause("c2", "a2", under={"c1"})])
    assert choose(engine, flipped).id == "a3"


def test_quoted_speech_chooses_communicative_action(engine):
    features = fs([soa("a1", "action", {"Zoe"})], [clause("c1", "a1")],
                  quoted_speech=True)
    assert choose(engine, features).id == "a1"


# -- private-state actions ---------------------------------------------------


def psa_features(actor="Zoe"):
    return fs([soa("a1", "private-state-action", {actor})],
              [clause("c1", "a1")])


def wide_document(n, quoted):
    """One gold-objective sentence of n clauses, each about its own
    action, all under the first."""
    clauses = [clause("c0", "a0")] + [clause(f"c{i}", f"a{i}", ["c0"])
                                      for i in range(1, n)]
    soas = [soa(f"a{i}", "action") for i in range(n)]
    sentence = Sentence("s1", fs(soas, clauses, quoted_speech=quoted),
                        gold=Interpretation.objective_of(()))
    return Document("wide", frozenset(), (sentence,))


@pytest.mark.parametrize("quoted", [False, True])
def test_clause_lookups_do_not_grow_with_the_sentence(monkeypatch, quoted):
    calls = Counter()
    original = FeatureSet.clause_about

    def counted(self, soa_id):
        calls[len(self.clauses)] += 1
        return original(self, soa_id)

    monkeypatch.setattr(FeatureSet, "clause_about", counted)
    for n in (2, 10_000):
        document = wide_document(n, quoted)
        engine = Engine()
        assert engine.track_document(document)[0].interpretation == \
            Interpretation.objective_of(())
        assert evaluate(document, engine).primary_count == 0
    assert calls[10_000] == calls[2]


def test_psa_treated_when_actor_was_subjective(engine):
    context = ctx(TS.POSTSUBJECTIVE_NONACTIVE, last_sc={"Zoe"},
                  previous={"Zoe"})
    features = psa_features("Zoe")
    chosen = choose(engine, features, context)
    assert engine.treat_as_private_state(chosen, context.previous_scs)
    assert verdict(engine, features, context).subjective


def test_psa_not_treated_for_new_actor(engine):
    context = ctx(TS.POSTSUBJECTIVE_NONACTIVE, last_sc={"Zoe"},
                  previous={"Zoe"})
    features = psa_features("Japheth")
    chosen = choose(engine, features, context)
    assert not engine.treat_as_private_state(chosen,
                                             context.previous_scs)
    assert not verdict(engine, features, context).subjective
    # the actor has never been subjective, so no active character either
    assert verdict(engine, features, context).characters == frozenset()


def test_psa_with_unspecified_actor_not_treated(engine):
    context = ctx(TS.POSTSUBJECTIVE_NONACTIVE, last_sc={"Zoe"},
                  previous={"Zoe"})
    features = fs([soa("a1", "private-state-action")], [clause("c1", "a1")])
    chosen = choose(engine, features, context)
    assert not engine.treat_as_private_state(chosen,
                                             context.previous_scs)


def thinks(*names, pses=()):
    """A sentence made subjective for ``names`` by a narrative
    parenthetical: never a represented thought."""
    return Sentence("t", fs([soa("a1", "action", names)], [clause("c1", "a1")],
                            pses, parenthetical=frozenset(names)))


OBJECTIVE = Sentence("o", fs([soa("a1", "action")], [clause("c1", "a1")]))


def psa_reads_private(policy, items, actor="Zoe"):
    """Whether a private-state action of ``actor`` after ``items`` reads
    as a private state, tracked under ``policy``."""
    probe = Sentence("probe", psa_features(actor))
    step = Engine(policy=policy).track([*items, probe])[-1]
    assert step.detail.chosen.type is SoaType.PRIVATE_STATE_ACTION
    return step.detail.reads_private


def test_psa_policy_min_length():
    strict = SignificancePolicy.MIN_LENGTH_2
    zoe = thinks("Zoe")
    assert not psa_reads_private(strict, [zoe, OBJECTIVE])
    # two consecutive subjective sentences qualify
    assert psa_reads_private(strict, [zoe, OBJECTIVE, zoe, zoe])


def test_psa_policy_flags():
    rt = SignificancePolicy.CONTAINS_REPRESENTED_THOUGHT
    se = SignificancePolicy.CONTAINS_SUBJECTIVE_ELEMENT
    # a nonprivate state while continuing states nothing outright
    thought = [thinks("Zoe"), Sentence("n", fs([soa("a1", "nonprivate-state")],
                                                [clause("c1", "a1")]))]
    steps = Engine(policy=rt).track(thought)
    assert steps[1].interpretation == Interpretation.subjective_of({"Zoe"})
    assert steps[1].detail.trigger == "continuing-nonprivate"
    assert psa_reads_private(rt, thought)
    assert not psa_reads_private(se, thought)
    # an element that fires in a parenthetical sentence
    element = [thinks("Zoe", pses=[pse("p1", "exclamation")])]
    assert Engine(policy=se).track(element)[0].detail.fired
    assert psa_reads_private(se, element)
    assert not psa_reads_private(rt, element)


def test_history_runs_end_at_breaks_and_other_characters():
    strict = SignificancePolicy.MIN_LENGTH_2
    zoe, joe, both = thinks("Zoe"), thinks("Joe"), thinks("Zoe", "Joe")
    for stop in (ParagraphBreak(), SceneBreak(), OBJECTIVE, joe):
        assert not psa_reads_private(strict, [zoe, stop, zoe])
    assert not psa_reads_private(strict, [zoe, ParagraphBreak(), zoe, joe, zoe])
    # a shared sentence continues Zoe's run; Joe's ended with hers
    items = [zoe, ParagraphBreak(), zoe, joe, zoe, both]
    assert psa_reads_private(strict, items)
    assert not psa_reads_private(strict, items, actor="Joe")


def test_qualified_set_decides_a_private_state_action():
    strict = Engine(policy=SignificancePolicy.MIN_LENGTH_2)
    chosen = psa_features("Zoe").soas[0]
    assert not strict.treat_as_private_state(chosen, frozenset())
    assert strict.treat_as_private_state(chosen, frozenset({"Zoe"}))
    private_state = soa("a1", "private-state", {"Joe"})
    assert strict.treat_as_private_state(private_state, frozenset())


def test_parenthetical_sentence_is_not_a_represented_thought():
    items = [
        Sentence("s1", fs([soa("a1", "action", {"Zoe"})], [clause("c1", "a1")],
                          parenthetical=frozenset({"Zoe"}))),
        Sentence("s2", psa_features("Zoe")),
    ]
    steps = Engine().track(items)
    assert steps[1].interpretation == Interpretation.subjective_of({"Zoe"})
    strict = Engine(policy=SignificancePolicy.CONTAINS_REPRESENTED_THOUGHT)
    steps = strict.track(items)
    assert steps[0].detail.trigger == "parenthetical"
    assert not steps[1].detail.reads_private
    assert not steps[1].interpretation.subjective


# -- subjective elements ------------------------------------------------------


def test_fragment_fires_after_subjective_scene(engine):
    features = fs([soa("a1", "action", {"Japheth"})], [clause("c1", "a1")],
                  [pse("p1", "sentence-fragment")])
    fired = engine.subjective_elements(
        features, ctx(TS.POSTSUBJECTIVE_NONACTIVE, last_sc={"Sandy"},
                      previous={"Sandy"}))
    assert [p.id for p in fired] == ["p1"]


def test_progressive_fires_only_in_continuing(engine):
    features = fs([soa("a1", "action", {"Newt"})], [clause("c1", "a1")],
                  [pse("p1", "progressive")])
    assert not engine.subjective_elements(
        features, ctx(TS.BROKEN_SUBJECTIVE, last_sc={"Newt"},
                      previous={"Newt"}))
    assert engine.subjective_elements(
        features, ctx(TS.CONTINUING_SUBJECTIVE, last_sc={"Newt"},
                      previous={"Newt"}))


def test_strong_elements_silent_without_expectations(engine):
    features = fs([soa("a1", "nonprivate-state")], [clause("c1", "a1")],
                  [pse("p1", "evidential-evidence"),
                   pse("p2", "sentence-fragment"), pse("p3", "conjunct")])
    assert not engine.subjective_elements(
        features, ctx(TS.PRESUBJECTIVE_NONACTIVE))
    assert not verdict(engine, features,
                       ctx(TS.PRESUBJECTIVE_NONACTIVE)).subjective


def test_subordinated_element_blocked_for_identification(engine):
    # 'old bag' inside the scope of 'believe' cannot disqualify the
    # experiencer, though it still counts for subjectivity
    features = fs([soa("a1", "private-state", {"Johnnie Martin"})],
                  [clause("c1", "a1")],
                  [pse("p1", "attitude-noun", under={"c1"})])
    context = ctx(TS.BROKEN_SUBJECTIVE, last_sc={"the girl"},
                  previous={"the girl"})
    assert engine.subjective_elements(features, context)
    assert not considerable(engine, features, context)
    assert subjective_character(engine, features, context) == {
        "Johnnie Martin"}


def test_nonsubordinated_element_blocks_experiencer(engine):
    # 'evidently' outside the scope of 'realizing' is evidence the
    # experiencer is not the subjective character
    features = fs(
        [soa("a1", "action", {"Japheth"}),
         soa("a2", "private-state", {"Japheth"})],
        [clause("c1", "a1"), clause("c2", "a2", under={"c1"})],
        [pse("p1", "evidential-evidence", under={"c1"})])
    context = ctx(TS.CONTINUING_SUBJECTIVE, last_sc={"Dennys", "Sandy"},
                  previous={"Dennys", "Sandy"})
    chosen = choose(engine, features, context)
    assert chosen.id == "a2"
    assert considerable(engine, features, context)
    assert subjective_character(engine, features, context) == {
        "Dennys", "Sandy"}


def test_excluded_category_never_blocks_experiencer(engine):
    # "was hardly aware" -- a degree intensifier in a private-state
    # report leaves the experiencer in place
    features = fs([soa("a1", "private-state", {"Sandy"})],
                  [clause("c1", "a1")],
                  [pse("p1", "degree-intensifier")])
    context = ctx(TS.BROKEN_SUBJECTIVE, last_sc={"Dennys"},
                  previous={"Dennys", "Sandy"})
    assert not considerable(engine, features, context)
    assert subjective_character(engine, features, context) == {"Sandy"}


def test_comparative_like_excluded_too(engine):
    features = fs([soa("a1", "private-state", {"Sandy"})],
                  [clause("c1", "a1")],
                  [pse("p1", "comparative-like")])
    context = ctx(TS.POSTSUBJECTIVE_NONACTIVE, last_sc={"Dennys"},
                  previous={"Dennys", "Sandy"})
    assert subjective_character(engine, features, context) == {"Sandy"}


def test_head_noun_soa_never_subordinates_elements(engine):
    features = fs([soa("a1", "action"), soa("a2", "private-state")],
                  [clause("c1", "a1")],
                  [pse("p1", "eval-adjective", under={"c1"})],
                  head_noun_private_state="a2")
    context = ctx(TS.BROKEN_SUBJECTIVE, last_sc={"Sandy"},
                  previous={"Sandy"})
    chosen = choose(engine, features, context)
    assert chosen.id == "a2"
    # subordinated to c1, but the chosen soa is the head noun's, so the
    # element still blocks the (unspecified) experiencer path
    assert considerable(engine, features, context)


def test_clause_about_the_head_noun_gives_it_no_scope(engine):
    features = fs([soa("a1", "action"), soa("hn", "private-state")],
                  [clause("c1", "a1"), clause("c2", "hn", under={"c1"})],
                  [pse("p1", "eval-adjective", under={"c2"})],
                  head_noun_private_state="hn")
    context = ctx(TS.BROKEN_SUBJECTIVE, last_sc={"Sandy"},
                  previous={"Sandy"})
    assert choose(engine, features, context).id == "hn"
    assert features.clause_about("hn") is None
    assert considerable(engine, features, context)


@pytest.mark.parametrize("policy, reason", [
    (SignificancePolicy.ANY_PREVIOUS_SC, "never-subjective"),
    (SignificancePolicy.CONTAINS_REPRESENTED_THOUGHT, "not-significant"),
    (SignificancePolicy.CONTAINS_SUBJECTIVE_ELEMENT, "not-significant"),
    (SignificancePolicy.MIN_LENGTH_2, "not-significant"),
])
def test_detail_records_why_a_psa_reads_as_an_action(policy, reason):
    engine = Engine(policy=policy)
    context = ctx(TS.POSTSUBJECTIVE_NONACTIVE, last_sc={"Zoe"},
                  previous={"Zoe"})
    _, detail = engine.interpret(psa_features("Japheth"), context,
                                 context.previous_scs)
    assert (detail.reads_private, detail.action_reason) == (False, reason)
    # read as a private state, or not a private-state action: no reason
    _, detail = engine.interpret(psa_features("Zoe"), context,
                                 context.previous_scs)
    assert (detail.reads_private, detail.action_reason) == (True, None)
    _, detail = engine.interpret(
        fs([soa("a1", "action", {"Japheth"})], [clause("c1", "a1")]), context,
        context.previous_scs)
    assert detail.action_reason is None


# -- the subjectivity decision ------------------------------------------------


def test_nonprivate_state_subjective_only_while_continuing(engine):
    features = fs([soa("a1", "nonprivate-state", {"Jake"})],
                  [clause("c1", "a1")])
    continuing = ctx(TS.CONTINUING_SUBJECTIVE, last_sc={"Lorena"},
                     previous={"Lorena"})
    assert verdict(engine, features, continuing).subjective
    assert verdict(engine, features, continuing) == \
        Interpretation.subjective_of({"Lorena"})
    for situation in (TS.BROKEN_SUBJECTIVE, TS.POSTSUBJECTIVE_NONACTIVE,
                      TS.PRESUBJECTIVE_NONACTIVE):
        assert not verdict(engine, features, ctx(
            situation, last_sc={"Lorena"}, previous={"Lorena"})).subjective


def test_parenthetical_forces_subjective(engine):
    features = fs([soa("a1", "private-state", {"Dennys"})],
                  [clause("c1", "a1")], parenthetical=frozenset({"Dennys"}))
    interp = verdict(engine, features, ctx(TS.PRESUBJECTIVE_NONACTIVE))
    assert interp == Interpretation.subjective_of({"Dennys"})


def test_quoted_question_is_objective(engine):
    # "Drown me?" Augustus said. -- the question mark sits inside the
    # quoted string and is never annotated
    features = fs([soa("a1", "action", {"Augustus"})], [clause("c1", "a1")],
                  quoted_speech=True)
    context = ctx(TS.CONTINUING_SUBJECTIVE, last_sc={"Augustus"},
                  previous={"Augustus"})
    interp = verdict(engine, features, context)
    assert not interp.subjective


def test_kinship_term_in_discourse_parenthetical(engine):
    # "I'll talk to Amy," Daddy said. -- 'Daddy' lies outside the quote
    features = fs([soa("a1", "action", {"Father"})], [clause("c1", "a1")],
                  [pse("p1", "kinship-term")], quoted_speech=True)
    context = ctx(TS.POSTSUBJECTIVE_NONACTIVE, last_sc={"Laura"},
                  previous={"Laura"})
    assert verdict(engine, features, context) == \
        Interpretation.subjective_of({"Laura"})


# -- identifying the subjective character -------------------------------------


def test_experiencer_identified_outside_continuing(engine):
    features = fs([soa("a1", "private-state", {"Call"})], [clause("c1", "a1")])
    context = ctx(TS.CONTINUING_SUBJECTIVE, last_sc={"Augustus"},
                  previous={"Augustus"})
    # mid-context, a different experiencer does not take over
    assert subjective_character(engine, features, context) == {
        "Augustus"}
    after_break = ctx(TS.BROKEN_SUBJECTIVE, last_sc={"Augustus"},
                      previous={"Augustus"})
    assert subjective_character(engine, features, after_break) == {
        "Call"}


def test_narrowing_and_broadening(engine):
    both = ctx(TS.CONTINUING_SUBJECTIVE, last_sc={"Augustus", "Call"},
               previous={"Augustus", "Call"})
    narrow = fs([soa("a1", "private-state", {"Augustus"})],
                [clause("c1", "a1")])
    assert subjective_character(engine, narrow, both) == {"Augustus"}

    one = ctx(TS.CONTINUING_SUBJECTIVE, last_sc={"Augustus"},
              previous={"Augustus", "Call"})
    widen = fs([soa("a1", "private-state", {"Augustus", "Call"})],
               [clause("c1", "a1")])
    assert subjective_character(engine, widen, one) == {
        "Augustus", "Call"}


def test_equal_experiencer_falls_back_to_last_sc(engine):
    same = ctx(TS.CONTINUING_SUBJECTIVE, last_sc={"Augustus"},
               previous={"Augustus"})
    features = fs([soa("a1", "private-state", {"Augustus"})],
                  [clause("c1", "a1")])
    assert source(engine, features, same) not in FROM_SENTENCE
    assert subjective_character(engine, features, same) == {
        "Augustus"}


def test_unspecified_experiencer_uses_expected_character(engine):
    features = fs([soa("a1", "action"), soa("a2", "private-state")],
                  [clause("c1", "a1")], head_noun_private_state="a2")
    context = ctx(TS.BROKEN_SUBJECTIVE, last_sc={"Sandy"},
                  previous={"Sandy"})
    assert source(engine, features, context) not in FROM_SENTENCE
    assert subjective_character(engine, features, context) == {
        "Sandy"}


def test_competition_about_last_active_goes_to_last_sc(engine):
    context = ctx(TS.POSTSUBJECTIVE_ACTIVE, last_sc={"Lorena"},
                  last_active={"Lippy"}, previous={"Lippy", "Lorena"})
    features = fs([soa("a1", "private-state", {"Lippy"})],
                  [clause("c1", "a1")],
                  [pse("p1", "evidential-evidence")])
    assert verdict(engine, features, context) == \
        Interpretation.subjective_of({"Lorena"})


def test_competition_otherwise_goes_to_last_active(engine):
    context = ctx(TS.POSTSUBJECTIVE_ACTIVE, last_sc={"Jake"},
                  last_active={"Augustus"}, previous={"Augustus", "Jake"})
    features = fs([soa("a1", "nonprivate-state", {"Jake"})],
                  [clause("c1", "a1")], [pse("p1", "eval-noun")])
    assert verdict(engine, features, context) == \
        Interpretation.subjective_of({"Augustus"})


def test_identification_failure_returns_empty(engine):
    features = fs([soa("a1", "nonprivate-state")], [clause("c1", "a1")],
                  [pse("p1", "exclamation")])
    interp = verdict(engine, features, INITIAL_CONTEXT)
    assert interp.subjective
    assert interp.characters == frozenset()


# -- active characters ---------------------------------------------------------


def active(engine, vp=PAST, actor={"Newt"}, previous={"Jake", "Newt"},
           kind="action", situation=TS.POSTSUBJECTIVE_NONACTIVE):
    features = fs([soa("a1", kind, actor)], [clause("c1", "a1", vp=vp)])
    context = ctx(situation, last_sc={"Jake"}, previous=previous)
    interpretation = verdict(engine, features, context)
    assert not interpretation.subjective
    return interpretation.characters


def test_active_character_simple_past_action(engine):
    assert active(engine) == {"Newt"}


def test_active_character_requires_subjective_past(engine):
    assert active(engine, actor={"Rosie"}) == frozenset()


def test_active_character_rejects_negation(engine):
    assert active(engine, vp=VerbFeatures(simple_past=True, negated=True)) \
        == frozenset()


def test_active_character_rejects_habitual(engine):
    assert active(engine, vp=VerbFeatures(simple_past=True, habitual=True)) \
        == frozenset()


def test_active_character_rejects_modal(engine):
    assert active(engine, vp=VerbFeatures(simple_past=True, modal=True)) \
        == frozenset()


def test_active_character_requires_simple_past(engine):
    assert active(engine, vp=VerbFeatures(past_perfective=True)) == frozenset()


def test_active_character_rejects_states(engine):
    assert active(engine, kind="nonprivate-state") == frozenset()


def test_progressive_aspect_does_not_disqualify(engine):
    assert active(engine, vp=VerbFeatures(simple_past=True,
                                          progressive=True)) == {"Newt"}


def test_quoted_speech_tests_parenthetical_clause(engine):
    features = fs([soa("a1", "action", {"Newt"})],
                  [clause("c1", "a1",
                          vp=VerbFeatures(simple_past=True, negated=True))],
                  quoted_speech=True)
    context = ctx(TS.POSTSUBJECTIVE_NONACTIVE, last_sc={"Newt"},
                  previous={"Newt"})
    assert verdict(engine, features, context) == \
        Interpretation.objective_of(())


def test_unspecified_actor_never_active(engine):
    assert active(engine, actor=()) == frozenset()


# -- whole-stream behavior ------------------------------------------------------


def test_track_empty_document(engine):
    assert engine.track([]) == []


def test_track_is_deterministic(engine):
    items = [
        Sentence("s1", fs([soa("a1", "private-state", {"Zoe"})],
                          [clause("c1", "a1")])),
        ParagraphBreak(),
        Sentence("s2", fs([soa("a1", "action", {"Zoe"})],
                          [clause("c1", "a1")])),
        SceneBreak(),
        Sentence("s3", fs([soa("a1", "nonprivate-state")],
                          [clause("c1", "a1")])),
    ]
    first = engine.track(items)
    second = engine.track(items)
    assert [s.interpretation for s in first] == [
        s.interpretation for s in second]
    assert [s.after for s in first] == [s.after for s in second]


def test_track_resets_expectations_at_scene_break(engine):
    items = [
        Sentence("s1", fs([soa("a1", "private-state", {"Slick"})],
                          [clause("c1", "a1")])),
        SceneBreak(),
        Sentence("s2", fs([soa("a1", "nonprivate-state")],
                          [clause("c1", "a1")],
                          [pse("p1", "question")])),
    ]
    steps = engine.track(items)
    assert steps[0].interpretation == Interpretation.subjective_of({"Slick"})
    assert steps[1].after.situation is TS.PRESUBJECTIVE_NONACTIVE
    # the question still fires, but the last subjective character is no
    # longer expected, so identification fails
    assert steps[2].interpretation == Interpretation.subjective_of(())
