"""A fold keeps the characters seen subjective as views of one log
(``grow``) once they are more than ``SMALL``; each view must stand for
exactly the frozenset of its names, whatever grew after it, as
``test_reference.py`` checks against the reference tracker.  Under
``any-previous-sc`` the fold hands that same set to ``interpret`` as the
qualified characters."""

import gc
import tracemalloc
from contextlib import contextmanager

import pytest

from povtrack import (Clause, Engine, FeatureSet, NOBODY, SceneBreak,
                      Sentence, SoaType, StateOfAffairs)
from povtrack import model
from povtrack.model import SeenCharacters, grow
from conftest import DATA, fixture_doc

FIXTURES = sorted(path.stem for path in DATA.glob("*.json"))
LIMITS = (model.SMALL, 0)
limits = pytest.mark.parametrize("limit", LIMITS,
                                 ids=["as-run", "views-only"])


@contextmanager
def small(limit):
    """The fold with unions of at most ``limit`` names kept frozensets."""
    saved, model.SMALL = model.SMALL, limit
    try:
        yield
    finally:
        model.SMALL = saved


# -- the qualified characters: previous_scs itself under any-previous-sc ------


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
