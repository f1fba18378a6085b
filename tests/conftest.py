import json
from pathlib import Path

import pytest

from povtrack import load_document

DATA = Path(__file__).parent / "data"


@pytest.fixture
def data_dir():
    return DATA


def fixture_path(name):
    return DATA / f"{name}.json"


def fixture_doc(name, registry=None):
    return load_document(fixture_path(name), registry)


def renamed(name, new, fixture="demo1"):
    """A fixture's bytes with the character ``name`` renamed ``new``
    wherever it is named."""
    text = fixture_path(fixture).read_text(encoding="utf-8")
    return text.replace(json.dumps(name), json.dumps(new)).encode()


def fixture_json(name):
    with open(fixture_path(name), encoding="utf-8") as handle:
        return json.load(handle)
