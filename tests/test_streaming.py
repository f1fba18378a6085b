"""parse_document decodes a document one item at a time, and
parse_registry a registry a window at a time, and each words every fault
it meets itself.  The oracle here is the reading they replaced: decode
the whole text with json.loads, then build the document from the decoded
JSON.  The two must accept the same documents, and word every single
fault alike; with several faults, parse_document reports the first it
meets.  Bytes are decoded a window at a time, and the window's size
changes neither the document nor the fault."""

import contextlib
import gc
import json
import re
import sys
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import povtrack.corpus as corpus
from povtrack import (
    Document,
    ParseError,
    PovTrackError,
    RegistryError,
    SceneBreak,
    ValidationError,
    parse_document,
    parse_registry,
)
from conftest import DATA, fixture_json, renamed
from test_corpus import LONE_SURROGATES, MESSAGES, with_fault
from test_fuzz import corrupt_bytes, set_anywhere, unknown_keys
from test_properties import NAMES, streams
from test_writer import oracle_dict

FIXTURES = sorted(path.stem for path in DATA.glob("*.json"))


def decode(raw, where="", object_pairs_hook=None):
    """The oracle's decode: json.loads of the text, bytes decoded
    strictly and whole first.  Bad syntax, bytes that do not decode,
    too-long numbers, too-deep nesting and strings holding a lone
    surrogate raise ParseError."""
    try:
        text = (raw.decode(json.detect_encoding(raw))
                if isinstance(raw, (bytes, bytearray)) else raw)
        data = json.loads(text, object_pairs_hook=object_pairs_hook)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}invalid JSON at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{where}cannot decode JSON: {exc}") from None
    corpus._reject_lone_surrogates(data, where)
    return data


def whole_document(data, registry=None):
    """The oracle: the document of decoded JSON free of lone surrogates,
    its checks run in this order: the registry, the top level, the
    roster, "items" and each item, the preamble, the title."""
    registry = corpus._checked_registry(registry)
    if not isinstance(data, dict):
        raise ParseError("top level must be a JSON object")
    corpus._object(data, corpus._TOP_KEYS, "top level")
    sets = corpus._Shared()
    roster = corpus._characters(data.get("roster", []), "roster", sets)
    items = tuple(corpus._parse_item(raw, f"items[{i}]", registry, sets)
                  for i, raw in enumerate(corpus._array(
                      data.get("items", []), "items")))
    initial = corpus._parse_preamble(data.get("preamble"), sets)
    return Document(data.get("title", ""), roster, items, initial)


def whole(text, registry=None):
    """The oracle's document of the whole decoded text, or the type and
    message of the fault it reports."""
    try:
        return whole_document(decode(text), registry)
    except PovTrackError as exc:
        return type(exc), str(exc)


def peak(parse, text):
    """The tracemalloc peak of ``parse(text)``, in bytes.  Garbage left
    by earlier tests is collected first, and the collector is paused
    while tracing, so that the figure does not depend on when it runs."""
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        parse(text)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def by_item(text, registry=None):
    try:
        return parse_document(text, registry)
    except PovTrackError as exc:
        return type(exc), str(exc)


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
def test_each_fixture_in_each_layout_reads_as_the_whole_decode(name):
    data = fixture_json(name)
    expected = whole_document(data)
    for layout, text in layouts(data):
        assert parse_document(text) == expected, layout


def test_a_document_without_some_fields_reads_as_the_whole_decode():
    for text in ["{}", " { } ", '{"items": []}', '{"items": [ ]}',
                 '{"title": "t", "roster": ["Zoe"]}']:
        assert parse_document(text) == whole_document(json.loads(text))


@settings(max_examples=100, deadline=None)
@given(items=streams())
def test_a_hypothesis_document_reads_as_the_whole_decode(items):
    data = oracle_dict(Document("t", frozenset(NAMES), tuple(items)))
    text = json.dumps(data)
    assert parse_document(text) == whole_document(json.loads(text))


# the fuzz's hostile inputs with one fault: one path set to a value, or
# one byte edited.  Each gives the oracle's document, or its fault.
@settings(max_examples=150, deadline=None)
@given(data=st.one_of(set_anywhere(), corrupt_bytes(edits=st.just(1))))
def test_hostile_input_reads_as_the_whole_decode(data):
    assert by_item(data) == whole(data)


# two or three edited bytes may make two faults, which the two readings
# may report in a different order: only acceptance must agree
@settings(max_examples=150, deadline=None)
@given(data=corrupt_bytes(edits=st.integers(2, 3)))
def test_input_with_several_edits_is_accepted_as_the_whole_decode_accepts_it(
        data):
    expected = whole(data)
    try:
        document = parse_document(data)
    except PovTrackError:
        assert not isinstance(expected, Document)
    else:
        assert document == expected


MINI = json.dumps(fixture_json("minicorpus"), indent=2)
FIRST = MINI.index('"kind"')  # inside items[0]
BAD_KIND = MINI.replace('"kind": "sentence"', '"kind": "x"', 1)
ITEMS = MINI.index('"items"')
SECOND = MINI.index('"kind"', FIRST + 1)  # inside items[1]
THIRD = MINI.index('"kind"', SECOND + 1)
PAST_FIRST = MINI.rindex("}", 0, SECOND) + 1  # just past items[0]
PAST_THIRD = MINI.rindex("}", 0, MINI.index('"kind"', THIRD + 1)) + 1
OPENS_FIRST = MINI.rindex("{", 0, FIRST)


def spaced_kind_and_nul(past):
    """MINI with a byte of items[0]'s "sentence" replaced by a space and a
    NUL byte inserted at ``past``, as the fuzz found it."""
    return (MINI[:past] + "\x00" + MINI[past:]).replace(
        '"kind": "sentence"', '"kind": " entence"', 1)


# Python 3.13 words a trailing comma itself, where older ones meet the
# "]" or "}" after it as the fault
TRAILING_COMMA = sys.version_info >= (3, 13)

# input read as the whole decode reads it, pinned
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
    "trailing-comma-in-items": (
        MINI.replace("}\n  ]\n}", "},\n  ]\n}"), ParseError,
        "invalid JSON at line 1455, column 6: Illegal trailing comma before "
        "end of array" if TRAILING_COMMA else
        "invalid JSON at line 1456, column 3: Expecting value"),
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
    # a number's fraction or exponent after an item or a field, which the
    # stand-in for the container read so far must not take in
    "a-fraction-after-an-item": (
        '{"items": [{"kind": "scene-break"}.5]}', ParseError,
        "invalid JSON at line 1, column 35: Expecting ',' delimiter"),
    "an-exponent-after-an-item": (
        '{"items": [{"kind": "scene-break"}e5]}', ParseError,
        "invalid JSON at line 1, column 35: Expecting ',' delimiter"),
    "a-fraction-after-a-field": (
        '{"title": "x".5}', ParseError, "invalid JSON at line 1, column 14: "
        "Expecting ',' delimiter"),
    "an-exponent-after-a-field": (
        '{"title": "x"E5, "roster": []}', ParseError, "invalid JSON at line "
        "1, column 14: Expecting ',' delimiter"),
    "trailing-comma-in-the-object": (
        '{"title": "x",}', ParseError, "invalid JSON at line 1, column 14: "
        "Illegal trailing comma before end of object" if TRAILING_COMMA else
        "invalid JSON at line 1, column 15: Expecting property name "
        "enclosed in double quotes"),
    # an item cut short by one byte, a fault that the reading meets only
    # in what follows it
    "an-item-without-its-open-brace": (
        MINI[:OPENS_FIRST] + MINI[OPENS_FIRST + 1:], ParseError,
        "invalid JSON at line 13, column 13: Expecting ',' delimiter"),
    "an-item-closed-early": (
        MINI.replace('"kind": "sentence",', '"kind": "sentence"},', 1),
        ParseError, "invalid JSON at line 14, column 11: Expecting ',' "
        "delimiter"),
    # a faulty item, and a syntax fault right after it, which is met
    # before the item is built
    "a-nul-byte-just-after-a-faulty-item": (
        spaced_kind_and_nul(PAST_FIRST), ParseError,
        "invalid JSON at line 46, column 6: Expecting ',' delimiter"),
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


NOT_A_CATEGORY = {"hedge": "x"}
# input with two faults, pinned: parse_document reports the first it
# meets, and the whole decode reported the other
TWO_FAULTS = {
    "item-fault-then-syntax": (
        BAD_KIND.replace("}\n  ]\n}", "}\n  ]\n"), None, ValidationError,
        "items[0]: unknown kind 'x'"),
    "item-fault-then-lone-surrogate": (
        BAD_KIND.replace('"15.2"', '"\\udc00"', 1), None, ValidationError,
        "items[0]: unknown kind 'x'"),
    "item-fault-then-unknown-field": (
        BAD_KIND.replace("}\n  ]\n}", '}\n  ],\n  "notes": 1\n}'), None,
        ValidationError, "items[0]: unknown kind 'x'"),
    "bad-roster-and-bad-item": (
        json.dumps(dict(json.loads(BAD_KIND), roster=5), indent=2), None,
        ValidationError, "items[0]: unknown kind 'x'"),
    "bad-registry-and-syntax": (
        "{", NOT_A_CATEGORY, RegistryError,
        "registry: 'hedge' must map to a PseCategory named 'hedge'"),
    # the NUL byte two items later: items[0] is built once items[1] is
    # read, before the NUL is met
    "item-fault-then-a-nul-byte": (
        spaced_kind_and_nul(PAST_THIRD), None, ValidationError,
        "items[0]: unknown kind ' entence'"),
}


@pytest.mark.parametrize("text, registry, error, message",
                         TWO_FAULTS.values(), ids=TWO_FAULTS)
def test_of_two_faults_the_first_met_is_reported(text, registry, error,
                                                  message):
    with pytest.raises(error) as caught:
        parse_document(text, registry)
    assert str(caught.value) == message
    assert whole(text, registry) != (error, message)


def with_data(edit):
    data = fixture_json("minicorpus")
    edit(data)
    return json.dumps(data, indent=2)


# a fault in an item, or one that Document finds, is worded by the
# reading that met it
ONE_READING = {
    "item-fault": FALLBACKS["item-fault"][0],
    "duplicate-sentence-id": MINI.replace('"15.2"', '"15.1"', 1),
    "who-off-roster": with_data(lambda data: data["items"][0]["features"][
        "soas"][0].update(who=["Nobody"])),
    "bad-preamble": with_data(lambda data: data.update(
        preamble={"situation": "x"})),
}


@pytest.mark.parametrize("text", ONE_READING.values(), ids=ONE_READING)
def test_an_item_or_document_fault_never_decodes_the_whole_text(text):
    with pytest.raises(ValidationError) as caught:
        parse_document(text)
    with pytest.raises(ValidationError) as oracle:
        whole_document(json.loads(text))
    assert str(caught.value) == str(oracle.value)


def test_paired_surrogate_escapes_are_read_item_by_item():
    text = renamed("Rosie", "Rosie\U0001f600", "minicorpus").decode()
    first = json.loads(text)["items"][0]["text"]
    text = text.replace(json.dumps(first), json.dumps(first + "\U0001f600"))
    assert "\\ud83d\\ude00" in text
    document = parse_document(text)
    assert document == whole_document(json.loads(text))
    assert "Rosie\U0001f600" in document.roster
    assert document.items[0].text == first + "\U0001f600"


def test_a_duplicate_field_keeps_the_last_as_before():
    data = fixture_json("minicorpus")
    text = (json.dumps(data)[:-1] + ', "items": ' +
            json.dumps(data["items"][:3]) + "}")
    document = parse_document(text)
    assert document == whole_document(dict(data, items=data["items"][:3]))
    assert len(document.items) == 3
    assert parse_document('{"items": [], "items": [{"kind": "scene-break"}], '
                          '"title": "a", "title": "b"}') == Document(
        "b", frozenset(), (SceneBreak(),))
    # "items" other than an array is refused only if no later one replaces it
    assert parse_document('{"items": 5, "items": []}') == Document(
        "", frozenset(), ())
    with pytest.raises(ValidationError, match="^items: must be an array$"):
        parse_document('{"items": [], "items": 5}')


def test_a_value_that_is_not_text_raises_what_json_loads_raises():
    with pytest.raises(TypeError) as caught:
        json.loads(None)
    message = "the JSON object must be str, bytes or bytearray, not NoneType"
    assert str(caught.value) == message
    for parse in (parse_document, parse_registry):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            parse(None)


def test_a_parse_holds_less_than_the_decoded_json():
    """Deterministic, not a timing: the minicorpus tiled 50 times.
    Decoding it whole holds every item's decoded JSON at once; a parse
    holds the finished document and one item's."""
    data = fixture_json("minicorpus")
    items = [dict(item, id=f"{item['id']}.{k}") if "id" in item else item
             for k in range(50) for item in data["items"]]
    text = json.dumps(dict(data, items=items), indent=2).encode()
    assert len(parse_document(text).items) == 50 * len(data["items"])
    assert peak(parse_document, text) < peak(json.loads, text)


# -- bytes decoded a window at a time -----------------------------------------

WINDOWS = [1, 2, 3, 5, 7, 64, corpus._WINDOW]
FAULT_WINDOWS = [1, 3, corpus._WINDOW]
ENCODINGS = ["utf-8", "utf-8-sig", "utf-16", "utf-16-le", "utf-16-be",
             "utf-32"]


@contextlib.contextmanager
def window(size):
    """Bytes parsed inside are decoded ``size`` bytes at a time."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(corpus, "_WINDOW", size)
        yield


def as_bytes(text):
    """An ASCII str as the UTF-8 bytes a window reads; other input as it
    is, since a str's BOM or lone surrogate code point means something
    else in bytes."""
    return text.encode() if isinstance(text, str) and text.isascii() else text


def at_window(size, text, registry=None):
    with window(size):
        return by_item(as_bytes(text), registry)


def tiled(tiles):
    """Every fixture's items, tiled, with the sentence ids renamed per
    tile and a scene break between fixtures, as the novel workload is."""
    docs = {name: fixture_json(name) for name in FIXTURES}
    items = []
    for tile in range(tiles):
        for name, doc in docs.items():
            items += [{"kind": "scene-break"}] if items else []
            items += [dict(item, id=f"{tile}/{name}/{item['id']}")
                      if item["kind"] == "sentence" else item
                      for item in doc["items"]]
    roster = sorted({name for doc in docs.values() for name in doc["roster"]})
    return {"title": "novel", "roster": roster, "items": items}


NOVEL = tiled(8)


@pytest.mark.parametrize("size", WINDOWS)
@pytest.mark.parametrize("name", FIXTURES + ["novel"])
def test_bytes_read_a_window_at_a_time_give_the_str_s_document(name, size):
    data = NOVEL if name == "novel" else fixture_json(name)
    text = json.dumps(data, indent=2, ensure_ascii=False)
    expected = parse_document(text)
    assert expected == whole_document(data)
    if name == "novel":  # past several windows of the default size
        assert len(text.encode()) > 4 * corpus._WINDOW
    with window(size):
        for encoding in ENCODINGS:
            assert parse_document(text.encode(encoding)) == expected, encoding


@settings(max_examples=100, deadline=None)
@given(items=streams(), encoding=st.sampled_from(ENCODINGS),
       size=st.one_of(st.integers(1, 80), st.just(corpus._WINDOW)))
def test_a_hypothesis_document_read_a_window_at_a_time_reads_as_the_whole_decode(
        items, encoding, size):
    data = oracle_dict(Document("t", frozenset(NAMES), tuple(items)))
    text = json.dumps(data, ensure_ascii=False)
    with window(size):
        assert parse_document(text.encode(encoding)) == whole_document(
            json.loads(text))


@pytest.mark.parametrize("size", FAULT_WINDOWS)
@pytest.mark.parametrize("text, error, message", FALLBACKS.values(),
                         ids=FALLBACKS)
def test_a_fault_read_a_window_at_a_time_is_worded_alike(
        text, error, message, size):
    assert at_window(size, text) == (error, message)


@pytest.mark.parametrize("size", FAULT_WINDOWS)
@pytest.mark.parametrize("text, registry, error, message",
                         TWO_FAULTS.values(), ids=TWO_FAULTS)
def test_of_two_faults_read_a_window_at_a_time_the_first_met_is_reported(
        text, registry, error, message, size):
    assert at_window(size, text, registry) == (error, message)


@pytest.mark.parametrize("size", FAULT_WINDOWS)
@pytest.mark.parametrize("text, message", [
    pytest.param(*param.values, id=param.id) for param in LONE_SURROGATES])
def test_a_lone_surrogate_read_a_window_at_a_time_is_named_alike(
        text, message, size):
    assert at_window(size, text) == (ParseError, message)


@pytest.mark.parametrize("size", FAULT_WINDOWS)
@pytest.mark.parametrize("path, value, message", MESSAGES,
                         ids=[message for _, _, message in MESSAGES])
def test_each_reader_branch_read_a_window_at_a_time_keeps_its_message(
        path, value, message, size):
    text = json.dumps(with_fault(path, value))
    expected = by_item(text)
    assert expected[1] == message
    assert at_window(size, text) == expected


# what a window's end may cut: a number that still decodes, shorter; a
# surrogate escape, which the search for one must find across the cut;
# a character of several bytes, or of a UTF-16 surrogate pair

@pytest.mark.parametrize("text, message", [
    (b'{"roster": ["Zoe"], "title": 12345, "items": []}',
     "title must be a string"),
    (b'{"title": -0.25E-12}', "title must be a string"),
    (b'{"title": 1e+5, "items": []}', "title must be a string"),
    (b'{"items": [{"kind": "scene-break"}, 1.5e+7]}',
     "items[1]: must be an object"),
])
def test_a_number_cut_by_a_window_is_read_whole(text, message):
    for size in range(1, 61):
        assert at_window(size, text) == (ValidationError, message), size


def test_a_string_cut_by_a_window_is_read_whole():
    """The scanner places an unterminated string at its start, which may
    lie well inside a window that cuts the string."""
    title = "a title longer than the characters a settled fault needs"
    text = json.dumps({"title": title, "items": []}).encode()
    for size in range(1, 61):
        assert at_window(size, text) == Document(title, frozenset(), ()), size


def test_a_number_of_too_many_digits_cut_by_a_window_keeps_its_count():
    """The integer digit limit counts the digits the window holds, so its
    fault is final only once the input is used up."""
    text = b'{"title": ' + b"7" * 5000 + b', "items": []}'
    expected = whole(text)
    assert "value has 5000 digits" in expected[1]
    for size in (1, 3, 64, 4096, corpus._WINDOW):
        assert at_window(size, text) == expected, size


def test_a_surrogate_escape_cut_by_a_window_is_found():
    text = b'{"roster": ["Zoe"], "title": "Zoe \\ud800 x", "items": []}'
    for size in range(1, 61):
        assert at_window(size, text) == (
            ParseError, "title: lone surrogate '\\ud800'"), size


@pytest.mark.parametrize("encoding", ["utf-8", "utf-16", "utf-16-le",
                                      "utf-32"])
def test_a_character_cut_by_a_window_decodes(encoding):
    title = "Zo\u00eb \U0001f600 \u201cx\u201d"
    text = json.dumps({"title": title, "roster": ["Zo\u00eb"]},
                      ensure_ascii=False).encode(encoding)
    for size in range(1, 61):
        with window(size):
            assert parse_document(text) == Document(
                title, frozenset({"Zo\u00eb"}), ()), size


def test_a_parse_of_bytes_never_holds_the_whole_decoded_text():
    """Deterministic, not a timing: past a warm-up, a parse of bytes
    holds a window of decoded text and what a parse of the same str
    holds, never the whole decoded text."""
    text = json.dumps(tiled(34), ensure_ascii=False, separators=(",", ":"))
    data = text.encode()
    assert len(data) >= 2**20
    assert parse_document(data) == parse_document(text)
    assert (peak(parse_document, data) - peak(parse_document, text)
            < len(data) / 4)


@pytest.mark.parametrize("fault", ["syntax", "digits"])
def test_an_early_fault_is_met_before_the_rest_is_decoded(fault):
    """Deterministic, not a timing: a syntax fault in the second item, or
    a title of too many digits, in a document of more than a MiB is raised
    from the first windows, as the whole decode words it, holding neither
    the decoded text nor a copy of the bytes."""
    data = json.dumps(tiled(34), ensure_ascii=False,
                      separators=(",", ":")).encode()
    assert len(data) >= 2**20
    if fault == "syntax":
        second = data.index(b'"kind"', data.index(b'"kind"') + 1)
        data = data[:second] + b"x" + data[second:]
    else:
        data = data.replace(b'"novel"', b"7" * 5000, 1)
    assert by_item(data)[0] is ParseError
    assert by_item(data) == whole(data)
    assert peak(by_item, data) < 2**20


# single-edit hostile input, re-encoded and read a few bytes at a time.
# Bytes that do not decode are left out: a syntax fault that the garbage
# of a broken UTF-16 or UTF-32 makes in an earlier window is met first.
@settings(max_examples=150, deadline=None)
@given(data=st.one_of(set_anywhere(), unknown_keys(),
                      corrupt_bytes(edits=st.just(1))),
       encoding=st.sampled_from(["str", *ENCODINGS, "utf-32-be"]),
       size=st.one_of(st.integers(1, 100), st.just(corpus._WINDOW)))
def test_hostile_input_read_a_window_at_a_time_reads_as_the_whole_decode(
        data, encoding, size):
    try:
        text = data.decode()
        raw = text if encoding == "str" else text.encode(encoding)
        if not isinstance(raw, str):
            raw.decode(json.detect_encoding(raw))
    except UnicodeDecodeError:
        assume(False)
    with window(size):
        assert by_item(raw) == whole(raw)


def registry_fault(text):
    """The oracle's fault for a registry: one of its decode."""
    try:
        decode(text, "registry: ", corpus._reject_duplicate_keys)
    except PovTrackError as exc:
        return type(exc), str(exc)
    raise AssertionError("the registry decodes")


LINES = '{\n  "hedge": {\n    "level": 2\n  },\n  "question": %s\n}'
# registry text that does not decode, each fault on a later line
REGISTRY_FAULTS = {
    "syntax": LINES % '{"level" 3}',
    "trailing-comma": LINES % '{"level": 3,}',
    "control-character": LINES % '{"level": "3',
    "unterminated-string": '{\n  "hedge": {"level',
    "extra-data": LINES % "{}" + "\n x",
    "empty": "  \n ",
    "bad-utf-8": (LINES % '{"l\xe9vel": 3}').encode("latin-1"),
    "bad-utf-16": (LINES % "{}").encode("utf-16")[:-1],
    "bom-in-a-str": "\ufeff" + LINES % "{}",
    "lone-surrogate": LINES % '{"level": "\\udc00"}',
    "lone-surrogate-field-name": LINES % '{"\\ud800x": 3}',
    "duplicate-key": LINES % '{"level": 3, "level": 4}',
    "duplicate-category": '{"hedge": {"level": 2},\n "hedge": {}}',
    "nesting-too-deep": LINES % ("[" * 100_000),
    "too-many-digits": LINES % ('{"level": ' + "3" * 5000 + "}"),
}


@pytest.mark.parametrize("size", FAULT_WINDOWS)
@pytest.mark.parametrize("text", REGISTRY_FAULTS.values(),
                         ids=REGISTRY_FAULTS)
def test_a_registry_fault_is_worded_as_the_whole_decode_words_it(text, size):
    expected = registry_fault(text)
    with window(size):
        with pytest.raises(PovTrackError) as caught:
            parse_registry(as_bytes(text))
    assert (type(caught.value), str(caught.value)) == expected


def test_no_reading_decodes_the_whole_text(monkeypatch):
    """Every document and registry, and every fault, of the tables above
    is read without json.loads or a JSONDecoder's own decode."""
    texts = [text for text, _, _ in FALLBACKS.values()]
    documents = [by_item(text) for text in texts]
    registries = [registry_fault(text) for text in REGISTRY_FAULTS.values()]

    def refuse(*args, **kwargs):
        raise AssertionError("the whole text was decoded")
    for owner, name in ((json, "loads"), (json.JSONDecoder, "decode"),
                        (json.JSONDecoder, "raw_decode")):
        monkeypatch.setattr(owner, name, refuse)
    assert [by_item(text) for text in texts] == documents
    for text, expected in zip(REGISTRY_FAULTS.values(), registries):
        with pytest.raises(PovTrackError) as caught:
            parse_registry(text)
        assert (type(caught.value), str(caught.value)) == expected
