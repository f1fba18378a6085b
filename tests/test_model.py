import dataclasses
import re

import pytest

from povtrack import (
    Clause,
    DEFAULT_REGISTRY,
    FeatureSet,
    PseCategory,
    RegistryError,
    SoaType,
    StateOfAffairs,
    TextSituation,
    ValidationError,
    registry_lookup,
    situations_up_to_level,
)


def introduced_at(level):
    """The text situations introduced at exactly this strength level."""
    below = situations_up_to_level(level - 1) if level > 1 else frozenset()
    return situations_up_to_level(level) - below


def test_level_sets():
    assert introduced_at(1) == {TextSituation.CONTINUING_SUBJECTIVE}
    assert introduced_at(2) == {TextSituation.BROKEN_SUBJECTIVE,
                                TextSituation.INTERRUPTED_SUBJECTIVE}
    assert introduced_at(3) == {TextSituation.PRESUBJECTIVE_ACTIVE,
                                TextSituation.POSTSUBJECTIVE_NONACTIVE,
                                TextSituation.POSTSUBJECTIVE_ACTIVE}
    assert introduced_at(4) == {TextSituation.PRESUBJECTIVE_NONACTIVE}


def test_level_sets_partition_all_situations():
    union = frozenset()
    for level in range(1, 5):
        current = introduced_at(level)
        assert not union & current
        union |= current
    assert union == frozenset(TextSituation)


@pytest.mark.parametrize("level", [0, 5, -1])
def test_level_out_of_range_rejected(level):
    with pytest.raises(ValueError):
        introduced_at(level)
    with pytest.raises(ValueError):
        situations_up_to_level(level)


def test_association_sets_grow_with_level():
    previous = frozenset()
    for level in range(1, 5):
        current = situations_up_to_level(level)
        assert previous < current
        previous = current


def test_default_registry_spot_values():
    assert DEFAULT_REGISTRY["question"].level == 4
    assert not DEFAULT_REGISTRY["question"].excluded
    assert DEFAULT_REGISTRY["exclamation"].level == 4
    assert DEFAULT_REGISTRY["progressive"].level == 1
    assert DEFAULT_REGISTRY["past-perfective"].level == 1
    assert DEFAULT_REGISTRY["habitual"].level == 2
    assert DEFAULT_REGISTRY["comparative-like"].level == 3
    assert DEFAULT_REGISTRY["comparative-like"].excluded
    assert DEFAULT_REGISTRY["sentence-fragment"].level == 3
    assert DEFAULT_REGISTRY["evidential-evidence"].level == 3


def test_default_registry_exclusions_exact():
    excluded = {name for name, cat in DEFAULT_REGISTRY.items() if cat.excluded}
    assert excluded == {"habitual", "comparative-like", "as-plus-modifier",
                        "degree-intensifier"}


def test_default_registry_level_membership():
    by_level = {1: set(), 2: set(), 3: set(), 4: set()}
    for name, cat in DEFAULT_REGISTRY.items():
        by_level[cat.level].add(name)
    assert by_level[1] == {"past-perfective", "progressive"}
    assert by_level[2] == {"habitual"}
    assert by_level[4] == {"exclamation", "question"}
    assert len(DEFAULT_REGISTRY) == 26


def test_category_situations_monotone():
    # subjective at level k implies subjective at every lower level
    for cat in DEFAULT_REGISTRY.values():
        for level in range(1, cat.level + 1):
            assert introduced_at(level) <= cat.situations


def test_registry_lookup_unknown_category():
    with pytest.raises(RegistryError, match="no-such-thing"):
        registry_lookup("no-such-thing", DEFAULT_REGISTRY)


def test_category_level_validated():
    with pytest.raises(RegistryError):
        PseCategory("bogus", 7)


ACTION = (StateOfAffairs("a1", SoaType.ACTION),)


@pytest.mark.parametrize("unders, found", [
    ((), 0),
    (({"c2"}, {"c1"}), 0),
    (((), ()), 2),
    (((), {"c1"}, ()), 2),
])
def test_feature_set_needs_one_main_clause_at_construction(unders, found):
    clauses = tuple(Clause(f"c{i + 1}", "a1", frozenset(under))
                    for i, under in enumerate(unders))
    with pytest.raises(ValidationError, match=re.escape(
            f"expected exactly one main clause, found {found}")):
        FeatureSet(clauses, ACTION)


def test_main_clause_takes_no_part_in_eq_hash_or_replace():
    main, sub = Clause("c1", "a1"), Clause("c2", "a1", frozenset({"c1"}))
    features = FeatureSet((sub, main), ACTION)
    assert features.main is main
    other = FeatureSet((sub, main), ACTION)
    object.__setattr__(other, "main", sub)
    assert other == features and hash(other) == hash(features)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(features, main=sub)
    # replace rebuilds the set, and finds the main clause of its clauses
    flipped = dataclasses.replace(
        features, clauses=(Clause("c2", "a1"),
                           Clause("c1", "a1", frozenset({"c2"}))))
    assert flipped.main.id == "c2" and flipped != features
