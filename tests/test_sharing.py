"""A parse gives the equal values it reads one object each: every clause,
state-of-affairs and element id, every character name and every gold
label.  The table that shares them lives only as long as its parse, so
two parses share none of them.  The tracker gives every objective verdict
without an active character one object too."""

import pytest
from hypothesis import given, settings

from povtrack import (
    DEFAULT_REGISTRY,
    NOBODY,
    Engine,
    dumps_document,
    parse_document,
)
from conftest import DATA, fixture_path
from test_writer import documents

FIXTURES = sorted(path.stem for path in DATA.glob("*.json"))


def entry_ids(document):
    """Each clause, state-of-affairs and element id, and each clause id
    an ``under`` names."""
    for sentence in document.sentences():
        fs = sentence.features
        for entry in (*fs.soas, *fs.clauses, *fs.pses):
            yield entry.id
        for entry in (*fs.clauses, *fs.pses):
            yield from entry.under


def names(document):
    """Each character name of each set the document holds."""
    yield from document.roster
    ctx = document.initial_context
    for characters in (ctx.last_sc, ctx.previous_scs,
                       ctx.last_active_character):
        yield from characters
    for sentence in document.sentences():
        for soa in sentence.features.soas:
            yield from soa.who
        yield from sentence.features.parenthetical or ()
        if sentence.gold is not None:
            yield from sentence.gold.characters


def golds(document):
    return [s.gold for s in document.sentences() if s.gold is not None]


def assert_one_object_each(values):
    first = {}
    for value in values:
        assert first.setdefault(value, value) is value, value


def check_shared(document):
    assert_one_object_each(entry_ids(document))
    assert_one_object_each(names(document))
    assert_one_object_each(golds(document))


@pytest.mark.parametrize("name", FIXTURES)
def test_a_parsed_fixture_holds_each_id_name_and_label_once(name):
    document = parse_document(fixture_path(name).read_bytes())
    check_shared(document)
    assert parse_document(dumps_document(document)) == document


@settings(max_examples=200, deadline=None)
@given(documents())
def test_a_written_hypothesis_document_reads_back_shared_and_equal(document):
    registry = dict(DEFAULT_REGISTRY)
    for sentence in document.sentences():
        for pse in sentence.features.pses:
            registry[pse.category.name] = pse.category
    parsed = parse_document(dumps_document(document), registry)
    assert parsed == document
    check_shared(parsed)


@pytest.mark.parametrize("name", FIXTURES)
def test_two_parses_share_no_id_name_or_label(name):
    """The table is the parse's own: neither ``sys.intern`` nor a cache
    that outlives the parse.  A one-character str is left out, since
    Python keeps one object for each such str of Latin-1."""
    text = fixture_path(name).read_bytes()
    first, second = parse_document(text), parse_document(text)
    for values in (entry_ids, names, golds):
        seen = {id(value) for value in values(first)
                if not isinstance(value, str) or len(value) > 1}
        assert not any(id(value) in seen for value in values(second))


def test_labels_that_differ_only_in_kind_stay_apart():
    gold = '"gold": {"type": "%s", "characters": ["Zoe"]}'
    items = ", ".join(
        '{"kind": "sentence", "id": "s%d", %s, "features": {"clauses": '
        '[{"id": "c1", "soa": "a1"}], "soas": [{"id": "a1", "type": '
        '"action"}]}}' % (i, gold % kind)
        for i, kind in enumerate(["subjective", "objective"] * 2))
    document = parse_document('{"roster": ["Zoe"], "items": [%s]}' % items)
    first, second, third, fourth = golds(document)
    assert first.subjective and not second.subjective
    assert third is first and fourth is second


@pytest.mark.parametrize("name", FIXTURES)
def test_every_objective_verdict_with_no_active_character_is_one_object(
        name):
    document = parse_document(fixture_path(name).read_bytes())
    nobody = [step.interpretation
              for step in Engine().track_document(document)
              if step.interpretation is not None
              and not step.interpretation.subjective
              and step.interpretation.characters == NOBODY]
    assert_one_object_each(nobody)
