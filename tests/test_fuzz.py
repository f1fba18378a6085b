"""Hostile input: a mutated fixture either raises a PovTrackError or
parses into a document that every operation accepts; nothing else
escapes, and the command line exits 0 or 1."""

import contextlib
import io
import json

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from povtrack import (
    DEFAULT_REGISTRY,
    Engine,
    PovTrackError,
    SignificancePolicy,
    SoaType,
    TextSituation,
    dumps_document,
    evaluate,
    parse_document,
    render_trace,
)
from povtrack.cli import main
from conftest import DATA, renamed
from test_writer import oracle_dumps

FIXTURES = sorted(path.stem for path in DATA.glob("*.json"))
# a name that, printed on a verdict line, forges a line for an s9
LINE_BREAKING = "Dennys\ns9\tOBJECTIVE\t"
RAW = {name: (DATA / f"{name}.json").read_bytes() for name in FIXTURES}
DELETE = object()


def paths(value, prefix=()):
    """Every path into a JSON value, the value itself included."""
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from paths(child, prefix + (key,))
    elif isinstance(value, list):
        for index, child in enumerate(value):
            yield from paths(child, prefix + (index,))


def strings(value):
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for key, child in value.items():
            yield key
            yield from strings(child)
    elif isinstance(value, list):
        for child in value:
            yield from strings(child)


PARSED = {name: json.loads(RAW[name]) for name in FIXTURES}
PATHS = {name: list(paths(PARSED[name])) for name in FIXTURES}
WORDS = sorted({word for name in FIXTURES for word in strings(PARSED[name])}
               | {s.value for s in TextSituation} | {t.value for t in SoaType}
               | set(DEFAULT_REGISTRY) | {"", "sentence", "scene-break"}
               | {LINE_BREAKING})

scalars = (st.none() | st.booleans() | st.integers(-2, 5) | st.floats()
           | st.sampled_from(WORDS) | st.text(max_size=4))
json_values = st.recursive(
    scalars,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.sampled_from(WORDS) | st.text(),
                                        children, max_size=3)),
    max_leaves=8)


def at(document, path):
    for key in path:
        document = document[key]
    return document


@st.composite
def set_anywhere(draw):
    """A fixture with one path set to any JSON value, or removed."""
    name = draw(st.sampled_from(FIXTURES))
    path = draw(st.sampled_from(PATHS[name]))
    value = draw(json_values | st.just(DELETE))
    document = json.loads(RAW[name])
    if not path:
        document = None if value is DELETE else value
    elif value is DELETE:
        del at(document, path[:-1])[path[-1]]
    else:
        at(document, path[:-1])[path[-1]] = value
    return json.dumps(document).encode()


@st.composite
def unknown_keys(draw):
    """A fixture with one more field in some object."""
    name = draw(st.sampled_from(FIXTURES))
    objects = [p for p in PATHS[name] if isinstance(at(PARSED[name], p), dict)]
    document = json.loads(RAW[name])
    target = at(document, draw(st.sampled_from(objects)))
    key = draw(st.text(min_size=1, max_size=6).filter(
        lambda k: k not in target))
    target[key] = draw(json_values)
    return json.dumps(document).encode()


@st.composite
def corrupt_bytes(draw, edits=st.integers(1, 3)):
    """A fixture's file with a few bytes replaced, inserted or deleted,
    as many edits as ``edits`` draws."""
    data = bytearray(RAW[draw(st.sampled_from(FIXTURES))])
    for _ in range(draw(edits)):
        position = draw(st.integers(0, len(data) - 1))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "delete":
            del data[position]
        else:
            byte = draw(st.integers(0, 255))
            if edit == "replace":
                data[position] = byte
            else:
                data.insert(position, byte)
    return bytes(data)


def check(data, tmp_path):
    try:
        document = parse_document(data)
    except PovTrackError:
        document = None
    labelled = document is not None and all(
        s.gold is not None for s in document.sentences())
    if document is not None:
        for policy in SignificancePolicy:
            engine = Engine(policy=policy)
            render_trace(engine.track_document(document))
            if labelled:
                evaluate(document, engine)
        assert parse_document(dumps_document(document)) == document
        assert dumps_document(document) == oracle_dumps(document)

    path = tmp_path / "mutated.json"
    path.write_bytes(data)
    expected = {"track": document is not None, "eval": labelled,
                "validate": document is not None}
    for command, ok in expected.items():
        # strict UTF-8, as on a terminal, so that unencodable output fails
        out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main([command, str(path)]) == (0 if ok else 1)
            out.flush()
        if command == "track" and ok:
            # one line per sentence, which no reader can split in two
            lines = out.buffer.getvalue().decode().splitlines()
            sentences = document.sentences()
            assert len(lines) == len(sentences)
            assert all(line.startswith(f"{s.id}\t")
                       for line, s in zip(lines, sentences))


fuzz = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def lone_surrogate_id():
    document = json.loads(RAW["demo1"])
    document["items"][0]["id"] = "\ud800"
    return json.dumps(document).encode()


@fuzz
@given(data=set_anywhere())
@example(data=lone_surrogate_id())
@example(data=renamed("Dennys", LINE_BREAKING))
def test_any_path_set_to_any_value(tmp_path, data):
    check(data, tmp_path)


@fuzz
@given(data=unknown_keys())
def test_unknown_keys(tmp_path, data):
    check(data, tmp_path)


@fuzz
@given(data=corrupt_bytes())
def test_corrupted_bytes(tmp_path, data):
    check(data, tmp_path)
