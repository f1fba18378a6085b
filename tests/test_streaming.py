"""parse_document decodes a document one item at a time.  Whatever it
accepts must equal the document built from the whole decoded JSON, and
whatever it does not plainly accept is decoded whole, so each fault is
reported as it is by that reading."""

import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import povtrack.corpus as corpus
from povtrack import (
    Document,
    ParseError,
    PovTrackError,
    SceneBreak,
    parse_document,
)
from conftest import DATA, fixture_json
from test_fuzz import corrupt_bytes, set_anywhere
from test_properties import NAMES, streams
from test_writer import oracle_dict

FIXTURES = sorted(path.stem for path in DATA.glob("*.json"))


def whole(text):
    """The document of the whole decoded JSON, or the message of the
    fault that reading reports."""
    try:
        return corpus._build_document(corpus._decode(text, ""), None)
    except PovTrackError as exc:
        return type(exc), str(exc)


def by_item(text):
    try:
        return parse_document(text)
    except PovTrackError as exc:
        return type(exc), str(exc)


@pytest.fixture
def no_whole_decode(monkeypatch):
    """Fails any parse that falls back to decoding the whole text."""
    def refuse(*args):
        raise AssertionError("the whole text was decoded")
    monkeypatch.setattr(corpus, "_decode", refuse)


def layouts(data):
    """One document written with each whitespace layout, its items
    first, and in each encoding parse_document reads."""
    indented = json.dumps(data, indent=2)
    items_first = {"items": data["items"],
                   **{k: v for k, v in data.items() if k != "items"}}
    yield "compact", json.dumps(data, separators=(",", ":"))
    yield "indent-4", json.dumps(data, indent=4)
    yield "crlf", " \r\n" + indented.replace("\n", "\r\n") + "\r\n"
    yield "tabs", indented.replace("  ", "\t")
    yield "items-first", json.dumps(items_first, indent=2)
    yield "utf-8", indented.encode()
    yield "utf-8-bom", indented.encode("utf-8-sig")
    yield "utf-16", indented.encode("utf-16")
    yield "utf-16-le", indented.encode("utf-16-le")
    yield "bytearray", bytearray(indented.encode())


@pytest.mark.parametrize("name", FIXTURES)
def test_each_fixture_in_each_layout_reads_as_the_whole_decode(
        name, no_whole_decode):
    data = fixture_json(name)
    expected = corpus._build_document(data, None)
    for layout, text in layouts(data):
        assert parse_document(text) == expected, layout


def test_a_document_without_some_fields_reads_as_the_whole_decode(
        no_whole_decode):
    for text in ["{}", " { } ", '{"items": []}', '{"items": [ ]}',
                 '{"title": "t", "roster": ["Zoe"]}']:
        assert parse_document(text) == corpus._build_document(
            json.loads(text), None)


@settings(max_examples=100, deadline=None)
@given(items=streams())
def test_a_hypothesis_document_reads_as_the_whole_decode(items):
    data = oracle_dict(Document("t", frozenset(NAMES), tuple(items)))
    text = json.dumps(data)
    assert parse_document(text) == corpus._build_document(json.loads(text),
                                                          None)


# the fuzz's hostile inputs: each gives the document, or the fault, that
# decoding it whole gives
@settings(max_examples=150, deadline=None)
@given(data=st.one_of(set_anywhere(), corrupt_bytes()))
def test_hostile_input_reads_as_the_whole_decode(data):
    assert by_item(data) == whole(data)


MINI = json.dumps(fixture_json("minicorpus"), indent=2)
FIRST = MINI.index('"kind"')  # inside items[0]
BAD_KIND = MINI.replace('"kind": "sentence"', '"kind": "x"', 1)
ITEMS = MINI.index('"items"')
# what the parent commit reads each of these as, pinned
FALLBACKS = {
    "trailing-data": (MINI + " x", ParseError,
                      "invalid JSON at line 1457, column 3: Extra data"),
    "trailing-object": (MINI + "{}", ParseError,
                        "invalid JSON at line 1457, column 2: Extra data"),
    "truncated-items": (MINI[:len(MINI) // 2], ParseError,
                        "invalid JSON at line 729, column 13: Unterminated "
                        "string starting at"),
    "truncated-after-item": (MINI[:MINI.index('"kind"', FIRST + 1)],
                             ParseError, "invalid JSON at line 48, column 7: "
                             "Expecting property name enclosed in double "
                             "quotes"),
    "trailing-comma-in-items": (MINI.replace("}\n  ]\n}", "},\n  ]\n}"),
                                ParseError, "invalid JSON at line 1456, "
                                "column 3: Expecting value"),
    # a validation fault in items[0] and a syntax fault after it: the
    # syntax fault is reported
    "item-fault-then-syntax": (BAD_KIND.replace("}\n  ]\n}", "}\n  ]\n"),
                               ParseError, "invalid JSON at line 1457, "
                               "column 1: Expecting ',' delimiter"),
    "item-fault": (BAD_KIND, corpus.ValidationError,
                   "items[0]: unknown kind 'x'"),
    "unknown-field": (MINI[:ITEMS] + '"notes": 1, ' + MINI[ITEMS:],
                      corpus.ValidationError,
                      "top level: unknown field(s) ['notes']"),
    # a token out of place at each step of the item-by-item reading
    "items-joined-by-a-semicolon": (
        '{"items": [{"kind": "scene-break"};{"kind": "scene-break"}]}',
        ParseError, "invalid JSON at line 1, column 35: Expecting ',' "
        "delimiter"),
    "items-opened-by-a-parenthesis": (
        '{"items": ({"kind": "scene-break"}]}', ParseError,
        "invalid JSON at line 1, column 11: Expecting value"),
    "field-and-value-joined-by-a-semicolon": (
        '{"title"; "x"}', ParseError, "invalid JSON at line 1, column 9: "
        "Expecting ':' delimiter"),
    "fields-without-a-comma": (
        '{"title": "x" "roster": []}', ParseError, "invalid JSON at line 1, "
        "column 15: Expecting ',' delimiter"),
    "a-close-brace-alone": ("}", ParseError, "invalid JSON at line 1, "
                            "column 1: Expecting value"),
    "opened-by-a-comma": (',"title": "x"}', ParseError, "invalid JSON at "
                          "line 1, column 1: Expecting value"),
    "an-open-brace-alone": ("{", ParseError, "invalid JSON at line 1, "
                            "column 2: Expecting property name enclosed in "
                            "double quotes"),
    "fields-joined-by-an-open-brace": (
        '{"title": "x"{"roster": []}', ParseError, "invalid JSON at line 1, "
        "column 14: Expecting ',' delimiter"),
    "an-empty-object-after-a-field": (
        '{"title":"x"{}', ParseError, "invalid JSON at line 1, column 13: "
        "Expecting ',' delimiter"),
    "a-comma-first-in-the-object": (
        "{,}", ParseError, "invalid JSON at line 1, column 2: Expecting "
        "property name enclosed in double quotes"),
    "an-array-as-a-field-name": (
        '{"title": "x", ["a"]: 1}', ParseError, "invalid JSON at line 1, "
        "column 16: Expecting property name enclosed in double quotes"),
    "trailing-comma-in-the-object": (
        '{"title": "x",}', ParseError, "invalid JSON at line 1, column 15: "
        "Expecting property name enclosed in double quotes"),
    "items-not-an-array": ('{"items": {}}', corpus.ValidationError,
                           "items: must be an array"),
    "top-level-array": ("[]", ParseError, "top level must be a JSON object"),
    "lone-surrogate": (MINI.replace('"15.1"', '"\\udc00"', 1), ParseError,
                       "items[0].id: lone surrogate '\\udc00'"),
    "utf-8-bom-in-a-str": ("﻿" + MINI, ParseError, "invalid JSON at "
                           "line 1, column 1: Unexpected UTF-8 BOM (decode "
                           "using utf-8-sig)"),
    "bad-utf-8": (MINI.encode().replace(b"Rosie", b"Ros\xff", 1),
                  ParseError, "cannot decode JSON: 'utf-8' codec can't "
                  "decode byte 0xff in position 104: invalid start byte"),
}


@pytest.mark.parametrize("text, error, message", FALLBACKS.values(),
                         ids=FALLBACKS)
def test_a_fault_is_reported_as_the_whole_decode_reports_it(
        text, error, message):
    with pytest.raises(error) as caught:
        parse_document(text)
    assert str(caught.value) == message
    assert by_item(text) == whole(text)


def test_a_duplicate_field_keeps_the_last_as_before():
    data = fixture_json("minicorpus")
    text = (json.dumps(data)[:-1] + ', "items": ' +
            json.dumps(data["items"][:3]) + "}")
    document = parse_document(text)
    assert document == corpus._build_document(
        dict(data, items=data["items"][:3]), None)
    assert len(document.items) == 3
    assert parse_document('{"items": [], "items": [{"kind": "scene-break"}], '
                          '"title": "a", "title": "b"}') == Document(
        "b", frozenset(), (SceneBreak(),))


def test_a_value_that_is_not_text_raises_what_json_loads_raises():
    with pytest.raises(TypeError, match="^the JSON object must be str, "
                       "bytes or bytearray, not NoneType$"):
        parse_document(None)


def test_a_parse_holds_less_than_the_decoded_json():
    """Deterministic, not a timing: the minicorpus tiled 50 times.
    Decoding it whole holds every item's decoded JSON at once; a parse
    holds the finished document and one item's."""
    data = fixture_json("minicorpus")
    items = [dict(item, id=f"{item['id']}.{k}") if "id" in item else item
             for k in range(50) for item in data["items"]]
    text = json.dumps(dict(data, items=items), indent=2).encode()

    def peak(parse):
        tracemalloc.start()
        try:
            parse(text)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert len(parse_document(text).items) == 50 * len(data["items"])
    assert peak(parse_document) < peak(json.loads)
