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


# the reference tracker restates every rule the engine is checked
# against, so it takes from the engine only the two step records
REFERENCE = ROOT / "tests" / "reference.py"


def takes_from_the_engine(node):
    """Any import from the package but from ``povtrack.model`` and of
    the two step records."""
    if isinstance(node, ast.Import):
        return any(alias.name.startswith("povtrack")
                   and alias.name != "povtrack.model" for alias in node.names)
    return (isinstance(node, ast.ImportFrom)
            and (node.module or "").startswith("povtrack")
            and node.module != "povtrack.model"
            and (node.module != "povtrack.engine" or any(
                alias.name not in ("TrackStep", "InterpretationDetail")
                for alias in node.names)))


def reads_a_situation_row(node):
    """``level`` only as a category's."""
    return isinstance(node, ast.Attribute) and (
        node.attr in ("sc_expected", "active_expected", "short")
        or node.attr.startswith("after_")
        or node.attr == "level" and not (isinstance(node.value, ast.Attribute)
                                         and node.value.attr == "category"))


def reads_a_derived_field(node):
    return isinstance(node, ast.Attribute) and node.attr in (
        "main", "private_candidates", "clause_about")


@pytest.mark.parametrize("rule", [takes_from_the_engine, reads_a_situation_row,
                                  reads_a_derived_field],
                         ids=lambda rule: rule.__name__)
def test_the_reference_restates_the_rules(rule):
    tree = ast.parse(REFERENCE.read_text(encoding="utf-8"))
    assert [ast.unparse(node) for node in ast.walk(tree) if rule(node)] == []
