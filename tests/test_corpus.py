"""Loader, registry, and serialization behavior."""

import collections
import copy
import dataclasses
import json
import pickle
import re

import pytest

from povtrack import (
    DEFAULT_REGISTRY,
    Engine,
    Interpretation,
    InterpretationDetail,
    NOBODY,
    ParseError,
    PseCategory,
    RegistryError,
    Sentence,
    SoaType,
    TextSituation,
    TrackStep,
    ValidationError,
    VerbFeatures,
    dumps_document,
    evaluate,
    load_document,
    parse_document,
    parse_registry,
    validate_gold,
)
from conftest import DATA, fixture_doc, fixture_json


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


def parse_data(data, registry=None):
    """The document of decoded JSON data, read from its JSON text."""
    return parse_document(json.dumps(data), registry)


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
    assert first.gold == Interpretation(False, frozenset())
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
        parse_data(doc)


def test_multiple_main_clauses():
    doc = patch_features(
        soas=[{"id": "a1", "type": "action", "who": []},
              {"id": "a2", "type": "action", "who": []}],
        clauses=[{"id": "c1", "soa": "a1", "under": [], "vp": {}},
                 {"id": "c2", "soa": "a2", "under": [], "vp": {}}])
    with pytest.raises(ValidationError, match="multiple main clauses"):
        parse_data(doc)


def test_no_main_clause():
    doc = patch_features(
        soas=[{"id": "a1", "type": "action", "who": []},
              {"id": "a2", "type": "action", "who": []}],
        clauses=[{"id": "c1", "soa": "a1", "under": ["c2"], "vp": {}},
                 {"id": "c2", "soa": "a2", "under": ["c1"], "vp": {}}])
    with pytest.raises(ValidationError, match="no main clause"):
        parse_data(doc)


def test_subordination_cycle_detected():
    doc = patch_features(
        soas=[{"id": "a1", "type": "action", "who": []},
              {"id": "a2", "type": "action", "who": []},
              {"id": "a3", "type": "action", "who": []}],
        clauses=[{"id": "c1", "soa": "a1", "under": [], "vp": {}},
                 {"id": "c2", "soa": "a2", "under": ["c3"], "vp": {}},
                 {"id": "c3", "soa": "a3", "under": ["c2"], "vp": {}}])
    with pytest.raises(ValidationError) as caught:
        parse_data(doc)
    assert str(caught.value) == \
        "sentence s1: clause subordination cycle: c2 -> c3 -> c2"


def test_character_off_roster_rejected():
    doc = patch_features(soas=[{"id": "a1", "type": "action",
                                "who": ["Ghost"]}])
    with pytest.raises(ValidationError, match="Ghost"):
        parse_data(doc)


def test_unknown_pse_category_named_with_sentence():
    doc = patch_features(pses=[{"id": "p1", "category": "wobbly",
                                "under": []}])
    with pytest.raises(ValidationError, match=r"s1.*p1.*wobbly"):
        parse_data(doc, DEFAULT_REGISTRY)
    # without a registry, the built-in one is checked
    with pytest.raises(ValidationError, match=r"s1.*p1.*wobbly"):
        parse_data(doc)


def test_duplicate_sentence_ids_rejected():
    doc = minimal()
    doc["items"].append(json.loads(json.dumps(doc["items"][0])))
    with pytest.raises(ValidationError, match="duplicate sentence id"):
        parse_data(doc)


def test_quoted_speech_must_be_communicative_action():
    doc = patch_features(
        quotedSpeech=True,
        soas=[{"id": "a1", "type": "private-state", "who": ["Zoe"]}])
    with pytest.raises(ValidationError, match="communicative action"):
        parse_data(doc)


def test_head_noun_must_be_private_state():
    doc = patch_features(headNounPrivateState="a1")
    with pytest.raises(ValidationError, match="private-state"):
        parse_data(doc)


def test_empty_parenthetical_rejected():
    doc = patch_features(parenthetical=[])
    with pytest.raises(ValidationError, match="parenthetical"):
        parse_data(doc)


def test_preamble_last_sc_must_be_subset_of_previous():
    doc = minimal(preamble={"situation": "broken-subjective",
                            "lastSC": ["Zoe"], "previousSCs": []})
    with pytest.raises(ValidationError, match="subset"):
        parse_data(doc)


def test_preamble_unknown_situation():
    doc = minimal(preamble={"situation": "confused"})
    with pytest.raises(ValidationError,
                       match="unknown text situation 'confused'"):
        parse_data(doc)


def test_unknown_soa_type():
    doc = patch_features(soas=[{"id": "a1", "type": "feeling", "who": []}])
    with pytest.raises(ValidationError,
                       match="unknown state-of-affairs type 'feeling'"):
        parse_data(doc)


def test_unknown_item_kind():
    doc = minimal(items=[{"kind": "chapter-break"}])
    with pytest.raises(ValidationError, match="chapter-break"):
        parse_data(doc)


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
    default_steps = Engine().track_document(parse_data(data))
    promoted_steps = Engine().track_document(
        parse_data(data, registry))
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
    doc = parse_data(data, registry)
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
        parse_data(minimal(), registry)
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


@pytest.mark.parametrize("text, key", [
    (b'{"question": {"level": 4}, "question": {"level": 3}}', "question"),
    (b'{"a": {"level": 2, "level": 3}}', "level")])
def test_registry_duplicate_key_names_the_registry(text, key):
    with pytest.raises(RegistryError) as raised:
        parse_registry(text)
    assert str(raised.value) == f"registry: duplicate key {key!r}"


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
    warnings = validate_gold(parse_data(doc))
    assert len(warnings) == 1 and "s1" in warnings[0]


def test_validate_gold_off_roster():
    doc = minimal()
    doc["items"][0]["gold"] = {"type": "subjective", "characters": ["Ghost"]}
    warnings = validate_gold(parse_data(doc))
    assert len(warnings) == 1 and "Ghost" in warnings[0]


FIXTURES = ["demo1", "demo2", "demo3", "p18", "p24", "p26", "p27", "p31",
            "p19", "minicorpus", "flipped", "lynette"]


@pytest.mark.parametrize("name", FIXTURES)
def test_round_trip_all_fixtures(name):
    doc = fixture_doc(name)
    again = parse_document(dumps_document(doc))
    assert again == doc


@pytest.mark.parametrize("name", FIXTURES)
def test_clauses_and_head_nouns_hold_their_own_states_of_affairs(name):
    doc = fixture_doc(name)
    # a deep copy and a pickle keep which object each reference is
    for kept in (doc, copy.deepcopy(doc), pickle.loads(pickle.dumps(doc))):
        for sentence in kept.sentences():
            fs = sentence.features
            own = {id(soa) for soa in fs.soas}
            assert all(id(clause.soa) in own for clause in fs.clauses)
            head = fs.head_noun_private_state
            assert head is None or id(head) in own
            assert all(id(soa) in own for soa in fs.private_candidates)
            # rebuilding runs FeatureSet's checks again
            assert dataclasses.replace(fs) == fs


def test_some_fixture_has_a_head_noun():
    assert any(s.features.head_noun_private_state is not None
               for name in FIXTURES for s in fixture_doc(name).sentences())


def test_two_loads_compare_equal():
    assert fixture_doc("demo2") == fixture_doc("demo2")


def named_sets(data, doc):
    """(names, set) for every list of names in decoded document data and
    the set the parsed document holds for it: the roster, the preamble,
    gold characters, each parenthetical and each who and under."""
    yield data.get("roster", []), doc.roster
    preamble, ctx = data.get("preamble", {}), doc.initial_context
    for key, names in (("lastSC", ctx.last_sc),
                       ("previousSCs", ctx.previous_scs),
                       ("lastActiveCharacter", ctx.last_active_character)):
        if key in preamble:
            yield preamble[key], names
    sentences = [item for item in data["items"] if item["kind"] == "sentence"]
    for raw, sentence in zip(sentences, doc.sentences(), strict=True):
        if "gold" in raw:
            yield raw["gold"].get("characters", []), sentence.gold.characters
        features, fs = raw["features"], sentence.features
        if "parenthetical" in features:
            yield features["parenthetical"], fs.parenthetical
        for key, objects, field in (("soas", fs.soas, "who"),
                                    ("clauses", fs.clauses, "under"),
                                    ("pses", fs.pses, "under")):
            for entry, obj in zip(features.get(key, []), objects, strict=True):
                yield entry.get(field, []), getattr(obj, field)


SHARED = ["demo1", "p18", "p31", "minicorpus", "lynette"]


@pytest.mark.parametrize("name", SHARED)
def test_equal_name_lists_share_one_set_within_a_parse(name):
    data = fixture_json(name)
    for doc in (fixture_doc(name), parse_data(data)):
        seen, counts = {}, collections.Counter()
        for names, value in named_sets(data, doc):
            assert value == frozenset(names)
            assert value is seen.setdefault(tuple(names), value)
            assert names or value is NOBODY
            counts[tuple(names)] += bool(names)
        # some non-empty list repeats, so some set is shared
        assert max(counts.values()) > 1


def test_the_shared_set_fixtures_hold_each_kind_of_name_list():
    datas = [fixture_json(name) for name in SHARED]
    sentences = [item for data in datas for item in data["items"]
                 if item["kind"] == "sentence"]
    assert any("preamble" in data for data in datas)
    assert any("gold" in item for item in sentences)
    assert any("parenthetical" in item["features"] for item in sentences)


def test_two_parses_of_one_text_share_no_set():
    text = (DATA / "minicorpus.json").read_bytes()
    data = json.loads(text)
    first, second = parse_document(text), parse_document(text)
    assert first == second
    kept = {id(value) for _, value in named_sets(data, first) if value}
    assert kept
    assert kept.isdisjoint(id(value) for _, value in named_sets(data, second)
                           if value)


# the twin tests here build their documents through parse_data: each
# fixture's decoded JSON, dumped again, reads as its file does
@pytest.mark.parametrize("name", FIXTURES)
def test_a_fixture_s_decoded_json_reads_as_its_file(name):
    assert parse_data(fixture_json(name)) == fixture_doc(name)


def test_one_text_parsed_under_two_registries_in_turn():
    promoted = parse_registry(b'{"habitual": {"level": 3}}')
    data = patch_features(
        pses=[{"id": "p1", "category": "habitual", "under": []},
              {"id": "p2", "category": "question", "under": ["c1"]}])
    text = json.dumps(data)
    for registry in (None, promoted, None, promoted):
        in_force = DEFAULT_REGISTRY if registry is None else registry
        fs = parse_document(text, registry).items[0].features
        assert [p.category for p in fs.pses] == [
            in_force["habitual"], in_force["question"]]
        assert fs.pses[0].category.level == (2 if registry is None else 3)


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
    pytest.param(
        json.dumps(with_string(["roster", 0], "\ud800")).encode(),
        "roster[0]: lone surrogate '\\ud800'", id="roster-name"),
    pytest.param(
        json.dumps(with_string(["preamble"], {"lastSC": ["\udc00"]})),
        "preamble.lastSC[0]: lone surrogate '\\udc00'", id="preamble"),
    pytest.param(
        json.dumps(with_string(["items"], minimal()["items"] + [
            {"kind": "scene-break", "x": "\udfff"}])).encode(),
        "items[1].x: lone surrogate '\\udfff'", id="a-later-item"),
    pytest.param(
        json.dumps(minimal(**{"n\ud800": 1})).encode(),
        "top level: field name has a lone surrogate '\\ud800'",
        id="top-level-field-name"),
]


@pytest.mark.parametrize("text, place", LONE_SURROGATES)
def test_lone_surrogate_is_a_parse_error_naming_the_field(text, place):
    with pytest.raises(ParseError, match=re.escape(place)):
        parse_document(text)


def test_a_lone_surrogate_sentence_id_is_named():
    data = fixture_json("demo1")
    data["items"][0]["id"] = "\ud800"
    with pytest.raises(ParseError) as parsed:
        parse_data(data)
    assert str(parsed.value) == "items[0].id: lone surrogate '\\ud800'"


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


# the registry reader walks its decoded JSON for lone surrogates as the
# document reader does
REGISTRY_SURROGATES = [
    pytest.param(json.dumps({"hedge": {"\udc00": 1}}).encode(),
                 "registry: hedge: field name has a lone surrogate '\\udc00'",
                 id="nested-field-name"),
    pytest.param(json.dumps({"hedge": {"level": "\ud800"}}).encode(),
                 "registry: hedge.level: lone surrogate '\\ud800'",
                 id="escape"),
    pytest.param(
        json.dumps({"sound": {"level": 2, "x": ["ok", "\udfff"]}}).encode(
            "utf-16"),
        "registry: sound.x[1]: lone surrogate '\\udfff'", id="escape-utf-16"),
    pytest.param(json.dumps({"hedge": {"level": "\udc00\ud800"}}),
                 "registry: hedge.level: lone surrogate '\\udc00'",
                 id="pair-in-wrong-order"),
    pytest.param(json.dumps({"hedge": {"level": "\udc00"}},
                            ensure_ascii=False),
                 "registry: hedge.level: lone surrogate '\\udc00'",
                 id="code-point-in-str"),
    pytest.param(json.dumps({"hedge": {"excluded": "Zo\ud83d"}}).replace(
        "d83d", "D83D"),
        "registry: hedge.excluded: lone surrogate '\\ud83d'",
        id="upper-case-escape"),
]


@pytest.mark.parametrize("text, message", REGISTRY_SURROGATES)
def test_a_lone_surrogate_in_a_registry_is_named(text, message):
    with pytest.raises(ParseError) as caught:
        parse_registry(text)
    assert str(caught.value) == message


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
    doc = parse_data(chain(5000))
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
        parse_data(doc)


# -- one message per reader branch ------------------------------------------
#
# One fault in an otherwise valid document (``minimal()`` with an element
# added).  The messages were generated by a parser that built each place
# string before reading the entry there: readers that build one only when
# they fail must say the same.

F = ("items", 0, "features")
DELETE = object()
MESSAGES = [
    ((), 5, "top level must be a JSON object"),
    (("chapter",), 1, "top level: unknown field(s) ['chapter']"),
    (("roster",), "Zoe", "roster: must be an array of names"),
    (("roster",), [""], "roster: names must be non-empty strings"),
    (("items",), {}, "items: must be an array"),
    (("preamble",), [], "preamble: must be an object"),
    (("preamble",), {"situation": "confused"},
     "preamble: unknown text situation 'confused'"),
    (("preamble",), {"situation": []}, "preamble: unknown text situation []"),
    (("preamble",), {"lastSC": "Zoe"},
     "preamble.lastSC: must be an array of names"),
    (("items", 0), 5, "items[0]: must be an object"),
    (("items", 0), {"kind": "chapter-break"},
     "items[0]: unknown kind 'chapter-break'"),
    (("items", 0), {"kind": "scene-break", "id": "x"},
     "items[0]: unknown field(s) ['id']"),
    (("items", 0, "note"), "x", "items[0]: unknown field(s) ['note']"),
    (("items", 0, "id"), "",
     "items[0]: sentence id must be a non-empty string"),
    (("items", 0, "id"), "s\t1",
     "items[0]: sentence id 's\\t1' must not hold a tab or line break"),
    (("items", 0, "text"), 5, "sentence s1: text must be a string"),
    (("items", 0, "gold"), [], "sentence s1: gold: must be an object"),
    (("items", 0, "gold"), {"type": "maybe"},
     "sentence s1: gold.type must be 'subjective' or 'objective'"),
    (("items", 0, "gold"), {"type": "objective", "characters": [5]},
     "sentence s1: gold.characters: names must be non-empty strings"),
    (F, DELETE, "sentence s1: features: must be an object"),
    (F + ("note",), 1, "sentence s1: features: unknown field(s) ['note']"),
    (F + ("soas",), {}, "sentence s1: features.soas: must be an array"),
    (F + ("soas", 0), "a1", "sentence s1: features.soas[0]: must be an object"),
    (F + ("soas", 0, "note"), 1,
     "sentence s1: features.soas[0]: unknown field(s) ['note']"),
    (F + ("soas", 0, "id"), 5, "sentence s1: features.soas[0]: "
     "state-of-affairs id must be a non-empty string"),
    (F + ("soas", 0, "type"), "feeling", "sentence s1: features.soas[0]: "
     "unknown state-of-affairs type 'feeling'"),
    (F + ("soas", 0, "who"), "Zoe",
     "sentence s1: features.soas[0].who: must be an array of names"),
    (F + ("soas", 0, "who"), ["Ghost"], "sentence s1: features.soas[0].who: "
     "character(s) ['Ghost'] not in roster"),
    (F + ("clauses",), None, "sentence s1: features.clauses: must be an array"),
    (F + ("clauses", 0), [],
     "sentence s1: features.clauses[0]: must be an object"),
    (F + ("clauses", 0, "note"), 1,
     "sentence s1: features.clauses[0]: unknown field(s) ['note']"),
    (F + ("clauses", 0, "id"), DELETE,
     "sentence s1: features.clauses[0]: clause id must be a non-empty string"),
    (F + ("clauses", 0, "soa"), 1,
     "sentence s1: features.clauses[0]: soa must be a string"),
    (F + ("clauses", 0, "under"), [None], "sentence s1: features.clauses[0]: "
     "under must be an array of clause ids"),
    (F + ("clauses", 0, "vp"), [],
     "sentence s1: features.clauses[0].vp: must be an object"),
    (F + ("clauses", 0, "vp", "past"), True,
     "sentence s1: features.clauses[0].vp: unknown field(s) ['past']"),
    (F + ("clauses", 0, "vp", "modal"), 1,
     "sentence s1: features.clauses[0]: vp.modal must be a boolean"),
    (F + ("pses",), "p1", "sentence s1: features.pses: must be an array"),
    (F + ("pses", 0), None, "sentence s1: features.pses[0]: must be an object"),
    (F + ("pses", 0, "note"), 1,
     "sentence s1: features.pses[0]: unknown field(s) ['note']"),
    (F + ("pses", 0, "id"), "",
     "sentence s1: features.pses[0]: element id must be a non-empty string"),
    (F + ("pses", 0, "category"), "", "sentence s1: features.pses[0]: "
     "category must be a non-empty string"),
    (F + ("pses", 0, "category"), "wobbly",
     "sentence s1: element 'p1' has unknown category 'wobbly'"),
    (F + ("pses", 0, "under"), "c1", "sentence s1: features.pses[0]: "
     "under must be an array of clause ids"),
    (F + ("parenthetical",), [""], "sentence s1: features.parenthetical: "
     "names must be non-empty strings"),
    (F + ("quotedSpeech",), 0,
     "sentence s1: features: quotedSpeech must be a boolean"),
    (F + ("headNounPrivateState",), "a1", "sentence s1: headNounPrivateState "
     "'a1' must be a private-state state of affairs"),
    (F + ("headNounPrivateState",), ["a1"], "sentence s1: "
     "headNounPrivateState references unknown state of affairs ['a1']"),
    (F + ("headNounPrivateState",), 5, "sentence s1: headNounPrivateState "
     "references unknown state of affairs 5"),
]


def with_fault(path, value):
    if not path:
        return value
    doc = patch_features(pses=[{"id": "p1", "category": "hedge",
                                "under": []}])
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return doc


@pytest.mark.parametrize("path, value, message", MESSAGES,
                         ids=[message for _, _, message in MESSAGES])
@pytest.mark.parametrize("entry", ["parse_document", "load_document"])
def test_each_reader_branch_keeps_its_message(entry, path, value, message,
                                               tmp_path):
    text = json.dumps(with_fault(path, value))
    with pytest.raises((ParseError, ValidationError)) as caught:
        if entry == "parse_document":
            parse_document(text)
        else:
            file = tmp_path / "doc.json"
            file.write_bytes(text.encode())
            load_document(file)
    assert str(caught.value) == message


# -- the good path's traps ---------------------------------------------------


VP_FLAGS = ["simplePast", "negated", "habitual", "modal", "pastPerfective",
            "progressive"]


@pytest.mark.parametrize("value", [1, 0, None, 1.0])
@pytest.mark.parametrize("flag", VP_FLAGS)
def test_a_number_or_null_is_not_a_vp_flag(flag, value):
    doc = patch_features(clauses=[{"id": "c1", "soa": "a1",
                                   "vp": {"modal": True, flag: value}}])
    with pytest.raises(ValidationError) as caught:
        parse_data(doc)
    assert str(caught.value) == ("sentence s1: features.clauses[0]: "
                                 f"vp.{flag} must be a boolean")


def test_the_first_bad_vp_flag_is_named_in_field_order():
    doc = patch_features(clauses=[{"id": "c1", "soa": "a1", "vp": {
        "progressive": "yes", "negated": 0}}])
    with pytest.raises(ValidationError, match=r"vp\.negated must"):
        parse_data(doc)


@pytest.mark.parametrize("value", [1, 0, None])
def test_a_number_or_null_is_not_quoted_speech(value):
    with pytest.raises(ValidationError) as caught:
        parse_data(patch_features(quotedSpeech=value))
    assert str(caught.value) == \
        "sentence s1: features: quotedSpeech must be a boolean"


@pytest.mark.parametrize("value", [[], {}, ["action"]])
def test_an_unhashable_soa_type_is_unknown(value):
    doc = patch_features(soas=[{"id": "a1", "type": value, "who": []}])
    with pytest.raises(ValidationError) as caught:
        parse_data(doc)
    assert str(caught.value) == ("sentence s1: features.soas[0]: unknown "
                                 f"state-of-affairs type {value!r}")


def three_of_each():
    return patch_features(
        soas=[{"id": f"a{i}", "type": "action", "who": ["Zoe"]}
              for i in range(3)],
        clauses=[{"id": f"c{i}", "soa": f"a{i}",
                  "under": ["c0"] if i else []} for i in range(3)],
        pses=[{"id": f"p{i}", "category": "hedge", "under": ["c0"]}
              for i in range(3)])


@pytest.mark.parametrize("key, field, value, message", [
    ("soas", None, 5, "features.soas[2]: must be an object"),
    ("soas", "who", [5], "features.soas[2].who: names must be non-empty "
     "strings"),
    ("clauses", None, 5, "features.clauses[2]: must be an object"),
    ("clauses", "under", [5], "features.clauses[2]: under must be an array "
     "of clause ids"),
    ("clauses", "vp", {"habitual": 1}, "features.clauses[2]: vp.habitual "
     "must be a boolean"),
    ("pses", None, 5, "features.pses[2]: must be an object"),
    ("pses", "under", "c0", "features.pses[2]: under must be an array of "
     "clause ids"),
])
def test_a_fault_in_an_entry_names_its_index(key, field, value, message):
    doc = three_of_each()
    parse_data(doc)
    entries = doc["items"][0]["features"][key]
    if field is None:
        entries[2] = value
    else:
        entries[2][field] = value
    with pytest.raises(ValidationError) as caught:
        parse_data(doc)
    assert str(caught.value) == f"sentence s1: {message}"


def test_equal_vp_objects_parse_to_one_verb_features_object():
    doc = three_of_each()
    clauses = doc["items"][0]["features"]["clauses"]
    clauses[0]["vp"] = {"negated": True, "modal": True}
    clauses[1]["vp"] = {"modal": True, "negated": True, "habitual": False}
    other = minimal()
    other["items"][0]["features"]["clauses"][0]["vp"] = {}
    parsed = parse_data(doc).items[0].features.clauses
    (again,) = parse_data(other).items[0].features.clauses
    assert parsed[0].vp is parsed[1].vp
    assert parsed[0].vp == VerbFeatures(negated=True, modal=True)
    assert parsed[2].vp is again.vp == VerbFeatures()


def model_objects(value):
    """The objects a parsed document, or a pass over it, is built from,
    itself included.  A named tuple is walked by its fields."""
    yield value
    if isinstance(value, tuple) and hasattr(value, "_fields"):
        for name in value._fields:
            yield from model_objects(getattr(value, name))
    elif isinstance(value, (tuple, frozenset)):
        for child in value:
            yield from model_objects(child)
    elif dataclasses.is_dataclass(value):
        for field in dataclasses.fields(value):
            yield from model_objects(getattr(value, field.name))


def test_no_model_object_has_a_dict():
    kinds = set()
    for path in sorted(DATA.glob("*.json")):
        doc = fixture_doc(path.stem)
        for obj in model_objects((doc, tuple(Engine().track_document(doc)))):
            if isinstance(obj, (TrackStep, InterpretationDetail)):
                # a step record is immutable and hashable, like the model
                with pytest.raises(AttributeError):
                    setattr(obj, obj._fields[0], None)
                hash(obj)
            elif not dataclasses.is_dataclass(obj):
                continue
            assert not hasattr(obj, "__dict__"), type(obj).__name__
            kinds.add(type(obj).__name__)
    assert kinds == {
        "Document", "Sentence", "ParagraphBreak", "SceneBreak", "FeatureSet",
        "Clause", "StateOfAffairs", "VerbFeatures", "Pse", "PseCategory",
        "Interpretation", "Context", "TrackStep", "InterpretationDetail"}
