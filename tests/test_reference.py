"""The engine against the reference tracker (``reference.py``): each
step's verdict, decision record (the chosen state of affairs by identity)
and both contexts, and the report, with ``SMALL`` as run and at 0, so
that every growth of ``previous_scs`` makes a view of a fold's log."""

import dataclasses
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from povtrack import (Document, Engine, INITIAL_CONTEXT, Interpretation,
                      ParagraphBreak, Sentence, SignificancePolicy, evaluate)
from povtrack import model
from povtrack.model import SeenCharacters, grow
from conftest import fixture_doc
from test_properties import (NAMES, PAIR, contexts, interpretations,
                             psa_streams, streams)
from test_seen_log import FIXTURES, LIMITS, limits, small

POLICIES = list(SignificancePolicy)
policies = pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
# more names than SMALL: a fold's first growth of them starts a log
CROWD = frozenset(f"x{i:02}" for i in range(model.SMALL + 1))


def same_set(view, oracle, names):
    """The view stands for the frozenset ``oracle`` in every way a caller
    can ask: equality both ways, hash, order, and membership."""
    assert view == oracle and oracle == view
    assert hash(view) == hash(oracle)
    assert sorted(view) == sorted(oracle)
    assert len(view) == len(oracle)
    assert oracle <= view and view <= oracle
    for name in names:
        assert (name in view) == (name in oracle), name


def agree(steps, expected):
    assert len(steps) == len(expected)
    names = {"Nobody"}.union(*(context.previous_scs for step in expected
                               for context in (step.before, step.after)))
    views = set()  # the ids of the views checked: steps share them
    for step, want in zip(steps, expected):
        assert step.item is want.item
        assert step.interpretation == want.interpretation
        assert step.detail == want.detail
        if want.detail is not None:
            assert step.detail.chosen is want.detail.chosen
        for got, context in ((step.before, want.before),
                             (step.after, want.after)):
            assert got == context and hash(got) == hash(context)
            view = got.previous_scs
            if type(view) is SeenCharacters and id(view) not in views:
                views.add(id(view))
                same_set(view, context.previous_scs, names)


def run(policy, items, context, gold):
    """``track``'s steps, or the gold fold's."""
    engine = Engine(policy=policy)
    return (list(engine._fold(items, context, gold=True)) if gold
            else engine.track(items, context))


def check(policy, items, context, gold):
    agree(run(policy, items, context, gold),
          reference.fold(items, context, policy.value, gold))


def same_report(document, policy):
    assert (evaluate(document, Engine(policy=policy)).to_dict()
            == reference.evaluate(document.items, document.initial_context,
                                  policy.value))


@limits
@pytest.mark.parametrize("resumed", (False, True), ids=["once", "resumed"])
@pytest.mark.parametrize("gold", (False, True), ids=["track", "gold"])
@policies
@pytest.mark.parametrize("name", FIXTURES)
def test_the_engine_agrees_with_the_reference_on_every_fixture(
        name, policy, gold, resumed, limit):
    """In one pass, or resumed from each later step.  A resumed pass grows
    views that are no longer their log's head; the first pass's contexts
    must keep their values."""
    document = fixture_doc(name)
    items, context = document.items, document.initial_context
    with small(limit):
        steps = run(policy, items, context, gold)
        for k in range(1, len(items)) if resumed else ():
            check(policy, items[k:], steps[k].before, gold)
        agree(steps, reference.fold(items, context, policy.value, gold))


@policies
@pytest.mark.parametrize("name", FIXTURES)
def test_the_report_agrees_with_the_reference(name, policy):
    same_report(fixture_doc(name), policy)


# a few labels that repeat often, so that every operation occurs
gold_labels = interpretations | st.sampled_from([
    Interpretation(True, frozenset({NAMES[0]})),
    Interpretation(True, frozenset({NAMES[1]})),
    Interpretation(False, frozenset()),
    Interpretation(False, frozenset({NAMES[0]})),
])


@settings(max_examples=150, deadline=None)
@given(streams(), st.data(), contexts())
def test_the_engine_agrees_with_the_reference_over_streams(items, data,
                                                           context):
    """Each sentence with a gold label, from the drawn context, from the
    initial one, and past SMALL names: from a frozenset that grows into
    a view, and from a view."""
    items = tuple(dataclasses.replace(item, gold=data.draw(gold_labels))
                  if isinstance(item, Sentence) else item for item in items)
    document = Document("random", frozenset(NAMES), items, context)
    starts = [context, INITIAL_CONTEXT] + [
        dataclasses.replace(context, previous_scs=previous)
        for previous in (CROWD | context.previous_scs,
                         grow(CROWD, context.previous_scs | {"Zed"}))]
    for limit in LIMITS:
        with small(limit):
            for policy in POLICIES:
                for start, gold in product(starts, (False, True)):
                    check(policy, items, start, gold)
                same_report(document, policy)


@policies
@settings(max_examples=150, deadline=None)
@given(psa_streams())
def test_the_engine_agrees_with_the_reference_over_psa_streams(policy,
                                                                stream):
    items, context = stream
    document = Document("psa", frozenset(PAIR), tuple(items), context)
    for gold in (False, True):
        check(policy, document.items, context, gold)
    same_report(document, policy)


def test_the_reference_operations_match_the_hand_counts():
    document = fixture_doc("minicorpus")
    items = document.items
    at = {item.id: i for i, item in enumerate(items)
          if isinstance(item, Sentence)}
    operations = {sid: reference.operation(items, i) for sid, i in at.items()}
    assert Counter(operations.values()) == {
        "continuation": 12, "resumption": 1, "initiation": 6, "objective": 19}
    rows = evaluate(document, Engine()).to_dict()["by_operation"]
    assert [row["actual"] for row in rows[:4]] == [12, 1, 6, 19]
    assert (operations["15.11"], operations["15.2"], operations["15.3"]) == (
        "resumption", "continuation", "objective")
    # the first subjective sentence of a scene, and a new character
    for sid in ("15.1", "17.1", "20.3", "d.5", "17.9", "20.7"):
        assert operations[sid] == "initiation", sid
    # reading 15.11 as Rosie's would start a new point of view
    rosie = Interpretation(True, frozenset({"Rosie"}))
    assert reference.operation(items, at["15.11"], rosie) == "initiation"
    # paragraph breaks are invisible to the scan and to evaluate
    cut = at["15.11"]
    padded = items[:cut] + (ParagraphBreak(), ParagraphBreak()) + items[cut:]
    assert reference.operation(padded, cut + 2) == "resumption"
    assert evaluate(dataclasses.replace(document, items=padded),
                    Engine()).to_dict()["by_operation"] == rows
