"""Loader, registry, and serialization behavior."""

import json
import re

import pytest

from povtrack import (
    DEFAULT_REGISTRY,
    Engine,
    Interpretation,
    ParseError,
    PseCategory,
    RegistryError,
    Sentence,
    SoaType,
    TextSituation,
    ValidationError,
    document_from_dict,
    dumps_document,
    evaluate,
    parse_document,
    parse_registry,
    validate_gold,
)
from conftest import fixture_doc, fixture_json


def minimal(**overrides):
    doc = {
        "title": "t",
        "roster": ["Zoe"],
        "items": [
            {"kind": "sentence", "id": "s1",
             "features": {
                 "quotedSpeech": False,
                 "soas": [{"id": "a1", "type": "action", "who": ["Zoe"]}],
                 "clauses": [{"id": "c1", "soa": "a1", "under": [],
                              "vp": {"simplePast": True}}],
                 "pses": []}}
        ],
    }
    doc.update(overrides)
    return doc


def patch_features(**overrides):
    doc = minimal()
    doc["items"][0]["features"].update(overrides)
    return doc


# -- documents ---------------------------------------------------------------


def test_demo1_loads_field_by_field():
    doc = fixture_doc("demo1")
    assert doc.title == "Sun-sickness"
    assert doc.roster == {"Dennys", "Japheth", "Sandy"}
    assert len(doc.items) == 7
    assert all(isinstance(item, Sentence) for item in doc.items)

    ctx = doc.initial_context
    assert ctx.situation is TextSituation.POSTSUBJECTIVE_NONACTIVE
    assert ctx.last_sc == {"Dennys", "Sandy"}
    assert ctx.previous_scs == {"Dennys", "Sandy"}
    assert ctx.last_active_character == frozenset()

    first = doc.items[0]
    assert first.id == "s1"
    assert first.gold == Interpretation.objective_of(())
    assert first.features.soas[0].type is SoaType.PRIVATE_STATE_ACTION
    assert first.features.soas[0].who == {"Japheth"}
    assert first.features.clauses[0].vp.simple_past
    assert not first.features.quoted_speech

    last = doc.items[6]
    assert [p.category.name for p in last.features.pses] == [
        "sentence-fragment", "progressive", "seeming-verb"]
    assert last.features.clauses[0].vp.progressive


def test_demo3_breaks_and_quotes():
    doc = fixture_doc("demo3")
    kinds = [type(item).__name__ for item in doc.items]
    assert kinds == ["Sentence", "ParagraphBreak", "Sentence",
                     "ParagraphBreak", "Sentence", "Sentence", "Sentence"]
    assert doc.items[2].features.quoted_speech


def test_invalid_json_is_a_parse_error():
    with pytest.raises(ParseError, match="line"):
        parse_document(b'{"title": ')


def test_top_level_must_be_object():
    with pytest.raises(ParseError):
        parse_document(b"[1, 2]")


def test_dangling_soa_reference():
    doc = patch_features(clauses=[{"id": "c1", "soa": "missing",
                                   "under": [], "vp": {}}])
    with pytest.raises(ValidationError, match=r"s1.*missing"):
        document_from_dict(doc)


def test_multiple_main_clauses():
    doc = patch_features(
        soas=[{"id": "a1", "type": "action", "who": []},
              {"id": "a2", "type": "action", "who": []}],
        clauses=[{"id": "c1", "soa": "a1", "under": [], "vp": {}},
                 {"id": "c2", "soa": "a2", "under": [], "vp": {}}])
    with pytest.raises(ValidationError, match="multiple main clauses"):
        document_from_dict(doc)


def test_no_main_clause():
    doc = patch_features(
        soas=[{"id": "a1", "type": "action", "who": []},
              {"id": "a2", "type": "action", "who": []}],
        clauses=[{"id": "c1", "soa": "a1", "under": ["c2"], "vp": {}},
                 {"id": "c2", "soa": "a2", "under": ["c1"], "vp": {}}])
    with pytest.raises(ValidationError, match="no main clause"):
        document_from_dict(doc)


def test_subordination_cycle_detected():
    doc = patch_features(
        soas=[{"id": "a1", "type": "action", "who": []},
              {"id": "a2", "type": "action", "who": []},
              {"id": "a3", "type": "action", "who": []}],
        clauses=[{"id": "c1", "soa": "a1", "under": [], "vp": {}},
                 {"id": "c2", "soa": "a2", "under": ["c3"], "vp": {}},
                 {"id": "c3", "soa": "a3", "under": ["c2"], "vp": {}}])
    with pytest.raises(ValidationError) as caught:
        document_from_dict(doc)
    assert str(caught.value) == \
        "sentence s1: clause subordination cycle: c2 -> c3 -> c2"


def test_character_off_roster_rejected():
    doc = patch_features(soas=[{"id": "a1", "type": "action",
                                "who": ["Ghost"]}])
    with pytest.raises(ValidationError, match="Ghost"):
        document_from_dict(doc)


def test_unknown_pse_category_named_with_sentence():
    doc = patch_features(pses=[{"id": "p1", "category": "wobbly",
                                "under": []}])
    with pytest.raises(ValidationError, match=r"s1.*p1.*wobbly"):
        document_from_dict(doc, DEFAULT_REGISTRY)
    # without a registry, the built-in one is checked
    with pytest.raises(ValidationError, match=r"s1.*p1.*wobbly"):
        document_from_dict(doc)


def test_duplicate_sentence_ids_rejected():
    doc = minimal()
    doc["items"].append(json.loads(json.dumps(doc["items"][0])))
    with pytest.raises(ValidationError, match="duplicate sentence id"):
        document_from_dict(doc)


def test_quoted_speech_must_be_communicative_action():
    doc = patch_features(
        quotedSpeech=True,
        soas=[{"id": "a1", "type": "private-state", "who": ["Zoe"]}])
    with pytest.raises(ValidationError, match="communicative action"):
        document_from_dict(doc)


def test_head_noun_must_be_private_state():
    doc = patch_features(headNounPrivateState="a1")
    with pytest.raises(ValidationError, match="private-state"):
        document_from_dict(doc)


def test_empty_parenthetical_rejected():
    doc = patch_features(parenthetical=[])
    with pytest.raises(ValidationError, match="parenthetical"):
        document_from_dict(doc)


def test_preamble_last_sc_must_be_subset_of_previous():
    doc = minimal(preamble={"situation": "broken-subjective",
                            "lastSC": ["Zoe"], "previousSCs": []})
    with pytest.raises(ValidationError, match="subset"):
        document_from_dict(doc)


def test_preamble_unknown_situation():
    doc = minimal(preamble={"situation": "confused"})
    with pytest.raises(ValidationError,
                       match="unknown text situation 'confused'"):
        document_from_dict(doc)


def test_unknown_soa_type():
    doc = patch_features(soas=[{"id": "a1", "type": "feeling", "who": []}])
    with pytest.raises(ValidationError,
                       match="unknown state-of-affairs type 'feeling'"):
        document_from_dict(doc)


def test_unknown_item_kind():
    doc = minimal(items=[{"kind": "chapter-break"}])
    with pytest.raises(ValidationError, match="chapter-break"):
        document_from_dict(doc)


# -- registries -----------------------------------------------------------------


def test_registry_defaults_when_empty():
    assert parse_registry(b"{}") == DEFAULT_REGISTRY


def test_registry_matching_override_is_noop():
    assert parse_registry(b'{"question": {"level": 4}}') == DEFAULT_REGISTRY


def test_registry_promoting_habitual_changes_decisions():
    registry = parse_registry(b'{"habitual": {"level": 3}}')
    assert registry["habitual"].level == 3
    assert registry["habitual"].excluded  # partial override keeps the flag

    # the registry is applied at parse time, so each registry parses once
    data = patch_features(
        pses=[{"id": "p1", "category": "habitual", "under": []}])
    data["preamble"] = {"situation": "postsubjective-nonactive",
                        "lastSC": ["Zoe"], "previousSCs": ["Zoe"]}
    default_steps = Engine().track_document(document_from_dict(data))
    promoted_steps = Engine().track_document(
        document_from_dict(data, registry))
    assert not default_steps[0].interpretation.subjective
    assert promoted_steps[0].interpretation.subjective

    # a document with no habitual elements is unaffected
    assert [s.interpretation for s in Engine().track_document(
        fixture_doc("demo1", registry))] == [
        s.interpretation for s in Engine().track_document(
            fixture_doc("demo1"))]


def test_category_new_to_the_registry_fires_under_the_default_engine():
    registry = parse_registry(b'{"sound-symbolism": {"level": 4}}')
    data = patch_features(
        pses=[{"id": "p1", "category": "sound-symbolism", "under": []}])
    data["items"][0]["gold"] = {"type": "subjective", "characters": []}
    doc = document_from_dict(data, registry)
    step, = Engine().track_document(doc)
    assert step.detail.fired == doc.items[0].features.pses
    assert step.detail.fired[0].category is registry["sound-symbolism"]
    assert step.detail.trigger == "elements"
    assert step.interpretation.subjective
    report = evaluate(doc, Engine())
    assert (report.primary_count, report.secondary_count) == (0, 0)


@pytest.mark.parametrize("entry", [PseCategory("noise", 4), 4],
                         ids=["other-name", "not-a-category"])
def test_registry_given_by_hand_maps_each_name_to_its_category(entry):
    # the writer writes the category's own name, so a key that differs
    # from it would not parse back
    registry = {**DEFAULT_REGISTRY, "sound": entry}
    with pytest.raises(RegistryError) as excinfo:
        document_from_dict(minimal(), registry)
    assert str(excinfo.value) == ("registry: 'sound' must map to a "
                                  "PseCategory named 'sound'")


def test_registry_new_category():
    registry = parse_registry(b'{"sound-symbolism": {"level": 2}}')
    assert registry["sound-symbolism"].level == 2
    assert not registry["sound-symbolism"].excluded


def test_registry_level_out_of_range():
    for level in (5, 0, -1):
        with pytest.raises(RegistryError) as excinfo:
            parse_registry(b'{"foo": {"level": %d}}' % level)
        assert str(excinfo.value) == \
            f"registry: category 'foo': level must be in 1..4, got {level}"


def test_registry_new_category_needs_level():
    with pytest.raises(RegistryError, match="level"):
        parse_registry(b'{"foo": {"excluded": true}}')


def test_registry_duplicate_category():
    with pytest.raises(RegistryError, match="duplicate"):
        parse_registry(b'{"question": {"level": 4}, "question": {"level": 3}}')


def test_registry_unknown_field():
    with pytest.raises(RegistryError, match="exclude"):
        parse_registry(b'{"question": {"level": 4, "exclude": true}}')


# -- gold warnings and round trips -----------------------------------------------


def test_validate_gold_clean():
    assert validate_gold(fixture_doc("minicorpus")) == []


def test_validate_gold_partial_labels():
    doc = minimal()
    doc["items"].append({
        "kind": "sentence", "id": "s2",
        "gold": {"type": "objective", "characters": []},
        "features": doc["items"][0]["features"]})
    warnings = validate_gold(document_from_dict(doc))
    assert len(warnings) == 1 and "s1" in warnings[0]


def test_validate_gold_off_roster():
    doc = minimal()
    doc["items"][0]["gold"] = {"type": "subjective", "characters": ["Ghost"]}
    warnings = validate_gold(document_from_dict(doc))
    assert len(warnings) == 1 and "Ghost" in warnings[0]


@pytest.mark.parametrize("name", ["demo1", "demo2", "demo3", "p18", "p24",
                                  "p26", "p27", "p31", "p19", "minicorpus",
                                  "flipped", "lynette"])
def test_round_trip_all_fixtures(name):
    doc = fixture_doc(name)
    again = parse_document(dumps_document(doc))
    assert again == doc


def test_two_loads_compare_equal():
    assert fixture_doc("demo2") == fixture_doc("demo2")


def test_loading_does_not_mutate_defaults():
    before = dict(DEFAULT_REGISTRY)
    parse_registry(b'{"question": {"level": 1}}')
    assert DEFAULT_REGISTRY == before


# -- hostile input ------------------------------------------------------------


@pytest.mark.parametrize("data, problem", [
    (b'{"title": "\xff"}', "can't decode byte 0xff"),
    pytest.param(b'{"title": "\xed\xa0\x80"}', "can't decode byte 0xed",
                 id="encoded-surrogate"),
    (b"[" * 100_000, "recursion"),
    (b'{"title": ' + b"1" * 5000 + b"}", "integer string conversion"),
])
@pytest.mark.parametrize("parse", [parse_document, parse_registry])
def test_undecodable_input_is_a_parse_error(parse, data, problem):
    with pytest.raises(ParseError, match=problem):
        parse(data)


def with_string(path, value):
    doc = minimal()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


LONE_SURROGATES = [
    pytest.param(
        json.dumps(with_string(["items", 0, "id"], "\ud800")).encode(),
        "items[0].id: lone surrogate '\\ud800'", id="escape"),
    pytest.param(
        json.dumps(with_string(["items", 0, "id"], "s\udfff")).encode("utf-16"),
        "items[0].id: lone surrogate '\\udfff'", id="escape-utf-16"),
    pytest.param(
        json.dumps(with_string(["title"], "\udc00\ud800")),
        "title: lone surrogate '\\udc00'", id="pair-in-wrong-order"),
    pytest.param(
        json.dumps(with_string(["title"], "\udc00"), ensure_ascii=False),
        "title: lone surrogate '\\udc00'", id="code-point-in-str"),
    pytest.param(
        json.dumps(with_string(["items", 0, "features", "soas", 0, "who", 0],
                               "Zo\ud83d")).replace("d83d", "D83D"),
        "items[0].features.soas[0].who[0]: lone surrogate '\\ud83d'",
        id="upper-case-escape"),
    pytest.param(
        json.dumps(with_string(["items", 0, "features", "x\udbff"], 1)).encode(),
        "items[0].features: field name has a lone surrogate '\\udbff'",
        id="field-name"),
]


@pytest.mark.parametrize("text, place", LONE_SURROGATES)
def test_lone_surrogate_is_a_parse_error_naming_the_field(text, place):
    with pytest.raises(ParseError, match=re.escape(place)):
        parse_document(text)


@pytest.mark.parametrize("text, place", LONE_SURROGATES)
def test_document_from_dict_rejects_lone_surrogates_too(text, place):
    with pytest.raises(ParseError, match=re.escape(place)):
        document_from_dict(json.loads(text))


def test_document_from_dict_raises_what_parse_document_raises():
    data = fixture_json("demo1")
    data["items"][0]["id"] = "\ud800"
    with pytest.raises(ParseError) as from_dict:
        document_from_dict(data)
    with pytest.raises(ParseError) as parsed:
        parse_document(json.dumps(data))
    assert str(from_dict.value) == str(parsed.value) == \
        "items[0].id: lone surrogate '\\ud800'"


def test_document_from_dict_refuses_cycles_and_non_string_keys():
    items = []
    items.append(items)
    with pytest.raises(ValidationError, match=re.escape("items[0]: must be")):
        document_from_dict({"items": items})
    with pytest.raises(ValidationError, match="unknown field"):
        document_from_dict({1: "x"})


@pytest.mark.parametrize("sid", ["a\tb\nOBJ", "s1\r", "\ns1", "\t"] + [
    f"s1{c}s9" for c in "\v\f\x1c\x1d\x1e\x85\u2028\u2029"])
def test_sentence_id_cannot_hold_a_tab_or_line_break(sid):
    with pytest.raises(ValidationError, match=re.escape(
            f"items[0]: sentence id {sid!r} must not hold a tab or line "
            "break")):
        parse_document(json.dumps(with_string(["items", 0, "id"], sid)))


def test_lone_surrogate_in_registry_is_a_parse_error():
    with pytest.raises(ParseError, match=re.escape(
            "registry: top level: field name has a lone surrogate")):
        parse_registry(b'{"\\ud800": {"level": 1}}')


def test_paired_surrogates_and_escaped_backslashes_parse():
    doc = with_string(["items", 0, "id"], "\U0001f600")
    doc["items"][0]["text"] = "\\ud800"
    parsed = parse_document(json.dumps(doc).encode())
    assert parsed.items[0].id == "\U0001f600"
    assert parsed.items[0].text == "\\ud800"


def chain(n):
    """n clauses, each subordinated to the next, the main clause last."""
    return patch_features(
        soas=[{"id": "a1", "type": "action", "who": []}],
        clauses=[{"id": f"c{i}", "soa": "a1",
                  "under": [f"c{i + 1}"] if i < n else []}
                 for i in range(1, n + 1)])


def test_long_subordination_chain_parses():
    doc = document_from_dict(chain(5000))
    clauses = doc.items[0].features.clauses
    assert len(clauses) == 5000
    assert clauses[-1].under == frozenset()


def test_long_subordination_chain_cycle_detected():
    doc = chain(5000)
    doc["items"][0]["features"]["clauses"][-1]["under"] = ["c4999"]
    doc["items"][0]["features"]["clauses"].append(
        {"id": "main", "soa": "a1"})
    with pytest.raises(ValidationError,
                       match=r"cycle: c1 -> c2 -> .* -> c5000 -> c4999$"):
        document_from_dict(doc)
