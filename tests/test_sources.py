"""The package and its tests parse as the oldest supported Python, and
the package exports each name it lists."""

import ast
from pathlib import Path

import pytest

import povtrack

ROOT = Path(__file__).parent.parent
SOURCES = sorted([*(ROOT / "src" / "povtrack").glob("*.py"),
                  *(ROOT / "tests").glob("*.py")])


def test_sources_are_found():
    assert ROOT / "src" / "povtrack" / "engine.py" in SOURCES
    assert Path(__file__) in SOURCES


# pyproject.toml: requires-python = ">=3.10"
@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), str(path),
              feature_version=(3, 10))


def test_every_name_in_all_is_exported():
    # a stale entry makes the star import raise AttributeError
    namespace = {}
    exec("from povtrack import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(povtrack.__all__)
