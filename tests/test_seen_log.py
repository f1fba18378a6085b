"""A fold keeps the characters seen subjective as views of one log
(``grow``) once they are more than ``SMALL``; each view must stand for
exactly the frozenset the union ``previous | who`` made, whatever grew
after it.  Under ``any-previous-sc`` the fold hands that same set to
``interpret`` as the qualified characters; a fold that keeps a frozenset
of its own is the oracle there.  Most tests run twice: as the fold runs,
and with ``SMALL`` at 0, so that every growth makes a view even in a
small cast."""

import gc
import tracemalloc
from contextlib import contextmanager

import pytest
from hypothesis import given, settings

from povtrack import (
    Clause,
    Context,
    Engine,
    FeatureSet,
    INITIAL_CONTEXT,
    NOBODY,
    SceneBreak,
    Sentence,
    SignificancePolicy,
    SoaType,
    StateOfAffairs,
    TextSituation,
    TrackStep,
    ValidationError,
    new_context,
    new_context_after_break,
)
from povtrack import engine as engine_module
from povtrack import model
from povtrack.model import SeenCharacters, grow
from conftest import DATA, fixture_doc
from test_properties import character_sets, contexts, feature_sets, streams

FIXTURES = sorted(path.stem for path in DATA.glob("*.json"))
POLICIES = list(SignificancePolicy)
_SP = SignificancePolicy
LIMITS = (model.SMALL, 0)
limits = pytest.mark.parametrize("limit", LIMITS,
                                 ids=["as-run", "views-only"])
_TS = TextSituation


@contextmanager
def small(limit):
    """The fold with unions of at most ``limit`` names kept frozensets."""
    saved, model.SMALL = model.SMALL, limit
    try:
        yield
    finally:
        model.SMALL = saved


# -- the oracle: the frozenset union the log replaced ------------------------


def union_new_context(interpretation, context):
    """``new_context`` as it was: a new frozenset for each growth."""
    who = interpretation.characters
    if interpretation.subjective:
        previous = context.previous_scs
        if not who <= previous:
            previous = previous | who
        elif (context.situation is _TS.CONTINUING_SUBJECTIVE
              and who == context.last_sc):
            return context
        return Context(who, context.last_active_character, previous,
                       _TS.CONTINUING_SUBJECTIVE)
    situation = (context.situation.after_active if who
                 else context.situation.after_objective)
    active = who or context.last_active_character
    if (situation is context.situation
            and active == context.last_active_character):
        return context
    return Context(context.last_sc, active, context.previous_scs, situation)


def frozen(context):
    """The context with its previous_scs as a plain frozenset."""
    return Context(context.last_sc, context.last_active_character,
                   frozenset(context.previous_scs), context.situation)


def oracle_steps(engine, items, context, gold):
    """The fold's steps with every context built by the frozenset union."""
    saved = engine_module.new_context
    engine_module.new_context = union_new_context
    try:
        return list(engine._fold(items, frozen(context), gold))
    finally:
        engine_module.new_context = saved


def names_of(*step_lists):
    return {name for steps in step_lists for step in steps
            for context in (step.before, step.after)
            for name in context.previous_scs}


def same_set(view, oracle, names):
    """The view stands for the oracle's frozenset in every way a caller
    can ask: equality both ways, hash, order, and membership."""
    assert view == oracle and oracle == view
    assert hash(view) == hash(oracle)
    assert sorted(view) == sorted(oracle)
    assert len(view) == len(oracle)
    assert oracle <= view and view <= oracle
    for name in names:
        assert (name in view) == (name in oracle), name


def assert_agree(steps, oracle, names):
    assert len(steps) == len(oracle)
    for step, expected in zip(steps, oracle):
        assert step.item is expected.item
        assert step.interpretation == expected.interpretation
        assert step.detail == expected.detail
        for got, want in ((step.before, expected.before),
                          (step.after, expected.after)):
            assert got == want and hash(got) == hash(want)
            same_set(got.previous_scs, want.previous_scs, names)


def check_fold(engine, items, context):
    for gold in (False, True):
        if gold and any(isinstance(item, Sentence) and item.gold is None
                        for item in items):
            continue
        steps = list(engine._fold(items, context, gold))
        oracle = oracle_steps(engine, items, context, gold)
        assert_agree(steps, oracle, names_of(steps, oracle) | {"Nobody"})


# -- agreement with the oracle ---------------------------------------------


@limits
@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("name", FIXTURES)
def test_each_step_matches_the_frozenset_union(name, policy, limit):
    document = fixture_doc(name)
    with small(limit):
        check_fold(Engine(policy=policy), document.items,
                   document.initial_context)


@settings(max_examples=80)
@given(streams(), contexts())
def test_each_step_matches_the_frozenset_union_over_streams(items, context):
    for limit in LIMITS:
        with small(limit):
            for policy in POLICIES:
                check_fold(Engine(policy=policy), items, context)
                check_fold(Engine(policy=policy), items, INITIAL_CONTEXT)


@limits
@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("name", FIXTURES)
def test_resuming_from_an_older_step_changes_no_earlier_context(
        name, policy, limit):
    """Each resumption grows a view that is no longer its log's head; the
    first pass's contexts keep their values, and the resumed pass agrees
    with the oracle resumed from the same context."""
    document = fixture_doc(name)
    engine = Engine(policy=policy)
    items = document.items
    with small(limit):
        steps = engine.track(items, document.initial_context)
        expected = oracle_steps(engine, items, document.initial_context,
                                False)
        names = names_of(steps) | {"Nobody"}
        for k in reversed(range(len(items))):
            resumed = engine.track(items[k:], steps[k].before)
            assert_agree(resumed, oracle_steps(engine, items[k:],
                                               steps[k].before, False),
                         names | names_of(resumed))
    assert_agree(steps, expected, names)


# -- the qualified characters: previous_scs itself under any-previous-sc ------


def own_qualified_fold(engine, items, context, gold):
    """``Engine._fold`` as it was when it kept the qualified characters in
    a frozenset of its own under every policy, a new union per growth."""
    policy = engine.policy
    qualified = (frozenset(context.previous_scs)
                 if policy is _SP.ANY_PREVIOUS_SC else NOBODY)
    live = NOBODY
    for item in items:
        interpretation = detail = None
        if isinstance(item, Sentence):
            fs = item.features
            interpretation, detail = engine.interpret(fs, context, qualified)
            label = item.gold if gold else interpretation
            if label is None:
                raise ValidationError(f"sentence {item.id} has no gold label")
            if not label.subjective:
                live = NOBODY
            else:
                who = gained = label.characters
                if policy is _SP.MIN_LENGTH_2:
                    gained = who & live
                elif policy is _SP.CONTAINS_REPRESENTED_THOUGHT:
                    if detail.reads_private or fs.parenthetical is not None:
                        gained = NOBODY
                elif policy is _SP.CONTAINS_SUBJECTIVE_ELEMENT:
                    if not detail.fired:
                        gained = NOBODY
                if not gained <= qualified:
                    qualified = qualified | gained
                live = who
            after = new_context(label, context)
        else:
            after = new_context_after_break(item, context)
            live = NOBODY
        yield TrackStep(item, context, after, interpretation, detail)
        context = after


def check_qualified(engine, items, context, gold):
    """The fold's steps equal the own-set fold's; returns them."""
    steps = list(engine._fold(items, context, gold))
    assert steps == list(own_qualified_fold(engine, items, context, gold))
    return steps


@limits
@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
@pytest.mark.parametrize("name", FIXTURES)
def test_the_fold_qualifies_characters_as_its_own_set_did(name, policy,
                                                          limit):
    """``track`` and both folds of ``evaluate``, in one pass and resumed
    from each step's context."""
    document = fixture_doc(name)
    engine = Engine(policy=policy)
    items = document.items
    golds = (False, True) if all(
        s.gold is not None for s in document.sentences()) else (False,)
    with small(limit):
        for gold in golds:
            steps = check_qualified(engine, items, document.initial_context,
                                    gold)
            if not gold:
                assert engine.track(items, document.initial_context) == steps
            for k, step in enumerate(steps):
                check_qualified(engine, items[k:], step.before, gold)


# more names than SMALL: a fold's first growth of them starts a log
CROWD = frozenset(f"x{i:02}" for i in range(model.SMALL + 1))


@settings(max_examples=80)
@given(streams(), contexts())
def test_the_fold_qualifies_characters_as_its_own_set_did_over_streams(
        items, context):
    """Past SMALL names, from a frozenset that grows into a view, and
    from a view."""
    for previous in (CROWD | context.previous_scs,
                     grow(CROWD, context.previous_scs | {"Zed"})):
        crowded = Context(context.last_sc, context.last_active_character,
                          previous, context.situation)
        for policy in POLICIES:
            check_qualified(Engine(policy=policy), items, crowded, False)
    assert type(crowded.previous_scs) is SeenCharacters


class Recording(Engine):
    """An engine that keeps the context and the qualified set of each
    interpret call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def interpret(self, fs, context, qualified):
        self.calls.append((context, qualified))
        return super().interpret(fs, context, qualified)


@limits
@pytest.mark.parametrize("name", FIXTURES)
def test_interpret_is_given_the_steps_own_previous_scs(name, limit):
    """Under any-previous-sc the fold holds no set of its own: each
    interpret call gets its step's ``before.previous_scs`` object."""
    document = fixture_doc(name)
    for gold in (False, True):
        if gold and any(s.gold is None for s in document.sentences()):
            continue
        engine = Recording()
        with small(limit):
            steps = list(engine._fold(document.items,
                                      document.initial_context, gold))
        befores = [step.before for step in steps
                   if isinstance(step.item, Sentence)]
        assert len(engine.calls) == len(befores)
        for (context, qualified), before in zip(engine.calls, befores):
            assert context is before
            assert qualified is before.previous_scs


@settings(max_examples=150)
@given(feature_sets(), contexts(), character_sets, character_sets)
def test_interpret_reads_a_view_as_its_frozenset(fs, context, older_names,
                                                  head_names):
    with small(0):
        older = grow(NOBODY, older_names | {"Zed"})
        head = grow(older, head_names | {"Zoe"})  # older is no longer head
    assert "Zoe" not in older
    for policy in POLICIES:
        engine = Engine(policy=policy)
        for view in (older, head):
            assert type(view) is SeenCharacters
            assert (engine.interpret(fs, context, view)
                    == engine.interpret(fs, context, frozenset(view)))


# -- the view itself -----------------------------------------------------------


def test_a_union_past_small_names_starts_a_log():
    names = frozenset(f"c{i:02}" for i in range(model.SMALL))
    assert grow(NOBODY, names) == names
    assert type(grow(NOBODY, names)) is frozenset
    past = grow(names, frozenset({"Ada"}))
    assert isinstance(past, SeenCharacters) and past == names | {"Ada"}
    assert list(past) == sorted(names) + ["Ada"]


@small(0)
def test_an_older_view_grows_a_log_of_its_own():
    ada = grow(NOBODY, frozenset({"Ada"}))
    with_bo = grow(ada, frozenset({"Bo"}))
    with_cy = grow(ada, frozenset({"Cy"}))  # ada is no longer the head
    assert ada == {"Ada"} and with_bo == {"Ada", "Bo"}
    assert with_cy == {"Ada", "Cy"}
    assert "Bo" not in ada and "Bo" not in with_cy and "Cy" not in with_bo
    assert grow(with_bo, frozenset({"Ada"})) is with_bo
    assert grow(ada, frozenset({"Ada"})) is ada
    both = grow(with_cy, frozenset({"Ed", "Bo"}))
    assert list(both) == ["Ada", "Cy", "Bo", "Ed"]  # new names sorted


@small(0)
def test_a_view_is_a_read_only_set_like_its_frozenset():
    names = frozenset({"Bo", "Ada"})
    seen = grow(NOBODY, names)
    assert isinstance(seen, SeenCharacters)
    assert grow(names, NOBODY) is names
    assert repr(seen) == "SeenCharacters(['Ada', 'Bo'])"
    assert seen | frozenset({"Ada"}) is seen
    assert isinstance(names | seen, frozenset) and names | seen == names
    assert seen & {"Ada"} == {"Ada"} and isinstance(seen - names, frozenset)
    assert {seen: 1}[names] == 1
    with pytest.raises(AttributeError):
        seen.add("Cy")
    with pytest.raises(TypeError):
        seen | ["Cy"]


@small(0)
def test_a_frozenset_seeds_a_log_in_sorted_order():
    seen = grow(frozenset({"Cy", "Ada"}), frozenset({"Bo"}))
    assert list(seen) == ["Ada", "Cy", "Bo"]


# -- memory -------------------------------------------------------------------


def new_faces(n):
    """n sentences, each a new character's private state, with a scene
    break between them: every sentence makes someone new subjective."""
    items = []
    for i in range(n):
        soa = StateOfAffairs("a1", SoaType.PRIVATE_STATE, frozenset({f"c{i}"}))
        items += [Sentence(f"s{i}", FeatureSet((Clause("c1", soa),), (soa,))),
                  SceneBreak()]
    return items


def held_by_steps(items):
    """The bytes a tracking pass's steps hold once it returns."""
    gc.collect()
    tracemalloc.start()
    try:
        steps = Engine().track(items)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(steps[-2].after.previous_scs) == len(items) // 2
    return held


def test_steps_hold_memory_linear_in_the_new_characters():
    # a frozenset per growth made this x3.9: 1 + 2 + ... + n names
    small, large = held_by_steps(new_faces(500)), held_by_steps(new_faces(1000))
    assert large <= 2.5 * small, (small, large)
