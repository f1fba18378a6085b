"""Evaluation harness: actual contexts, operations, error accounting."""

import dataclasses
from collections import Counter

import pytest

from povtrack import (
    Engine,
    FeatureSet,
    Sentence,
    SignificancePolicy,
    TextSituation,
    ValidationError,
    evaluate,
    is_simple_quoted_speech,
)
from conftest import DATA, fixture_doc

FIXTURES = sorted(p.stem for p in DATA.glob("*.json"))

TS = TextSituation


def with_gold(doc, interps_by_id):
    items = []
    for item in doc.items:
        if isinstance(item, Sentence):
            items.append(dataclasses.replace(
                item, gold=interps_by_id[item.id]))
        else:
            items.append(item)
    return dataclasses.replace(doc, items=tuple(items))


# -- actual contexts ------------------------------------------------------------


def actual_contexts(doc, engine):
    """The context before each input item in the fold that evaluate
    advances from the gold labels."""
    return [step.before for step in
            engine._fold(doc.items, doc.initial_context, gold=True)]


def test_actual_contexts_follow_gold_demo2():
    doc = fixture_doc("demo2")
    contexts = actual_contexts(doc, Engine())
    assert [c.situation for c in contexts] == [
        TS.CONTINUING_SUBJECTIVE,   # before s1
        TS.CONTINUING_SUBJECTIVE,   # before the paragraph break
        TS.BROKEN_SUBJECTIVE,       # before s2
    ]
    assert contexts[2].last_sc == {"the girl"}


def test_actual_contexts_demo3_situation_ladder():
    doc = fixture_doc("demo3")
    contexts = actual_contexts(doc, Engine())
    assert [c.situation.value for c in contexts] == [
        "broken-subjective",
        "postsubjective-active",
        "postsubjective-nonactive",
        "postsubjective-active",
        "postsubjective-nonactive",
        "postsubjective-active",
        "postsubjective-active",
    ]


def test_actual_contexts_hand_fold_minicorpus_head():
    # first six items of the mini-corpus, folded by hand
    doc = fixture_doc("minicorpus")
    contexts = actual_contexts(doc, Engine())
    assert contexts[0].situation is TS.PRESUBJECTIVE_NONACTIVE
    assert contexts[1].situation is TS.CONTINUING_SUBJECTIVE
    assert contexts[1].last_sc == {"Zoe"}
    assert contexts[2].situation is TS.CONTINUING_SUBJECTIVE  # before break
    assert contexts[3].situation is TS.BROKEN_SUBJECTIVE     # before 15.3
    assert contexts[4].situation is TS.POSTSUBJECTIVE_ACTIVE  # before break
    assert contexts[4].last_active_character == {"Zoe"}
    assert contexts[5].situation is TS.POSTSUBJECTIVE_NONACTIVE  # before 15.4


def test_actual_contexts_require_gold():
    doc = fixture_doc("demo1")
    stripped = with_gold(doc, {item.id: None for item in doc.sentences()})
    with pytest.raises(ValidationError, match="gold"):
        actual_contexts(stripped, Engine())


# -- simple quoted speech -----------------------------------------------------------


def test_simple_quoted_speech_on_demo3():
    doc = fixture_doc("demo3")
    flags = [is_simple_quoted_speech(s) for s in doc.sentences()]
    assert sum(flags) == 2
    assert [s.id for s, f in zip(doc.sentences(), flags) if f] == ["s2", "s3"]


def test_quoted_speech_with_element_is_not_simple():
    doc = fixture_doc("minicorpus")
    by_id = {s.id: s for s in doc.sentences()}
    assert is_simple_quoted_speech(by_id["15.3"])
    assert not is_simple_quoted_speech(by_id["15.7"])  # not quoted at all


# -- the error accounting -------------------------------------------------------------


def test_minicorpus_report_matches_hand_counts():
    report = evaluate(fixture_doc("minicorpus"), Engine())
    assert report.sentences == 38
    assert [c.sentence_id for c in report.primary] == ["d.1", "d.4"]
    assert [c.sentence_id for c in report.secondary] == ["d.2", "d.5"]
    assert report.simple_quoted == 13

    by_label = {row.label: row for row in report.by_interpretation}
    assert by_label["subjective"].actual == 19
    assert by_label["subjective"].primary == 0
    assert by_label["objective"].actual == 19
    assert by_label["objective"].primary == 2
    assert dict(by_label["objective"].wrong) == {"subjective": 2}
    nonquoted = by_label["objective, other than simple quoted speech"]
    assert nonquoted.actual == 6
    assert nonquoted.primary == 2

    by_op = {row.label: row for row in report.by_operation}
    assert by_op["continuation"].actual == 12
    assert by_op["resumption"].actual == 1
    assert by_op["initiation"].actual == 6
    assert by_op["objective"].actual == 19
    assert by_op["objective"].primary == 2
    assert dict(by_op["objective"].wrong) == {"initiation": 2}
    assert by_op["objective, other than simple quoted speech"].actual == 6


def test_primary_and_secondary_are_disjoint():
    report = evaluate(fixture_doc("minicorpus"), Engine())
    assert not ({c.sentence_id for c in report.primary}
                & {c.sentence_id for c in report.secondary})


def test_self_consistency_zero_errors():
    # with gold set to the engine's own free-running output, both error
    # counts must vanish
    for name in ("minicorpus", "lynette", "flipped", "demo1", "demo3"):
        doc = fixture_doc(name)
        engine = Engine()
        steps = engine.track_document(doc)
        interps = {step.item.id: step.interpretation
                   for step in steps if step.interpretation is not None}
        report = evaluate(with_gold(doc, interps), engine)
        assert report.primary_count == 0, name
        assert report.secondary_count == 0, name


def test_flipped_gold_primary_then_secondary_only():
    report = evaluate(fixture_doc("flipped"), Engine())
    assert [c.sentence_id for c in report.primary] == ["f.1"]
    assert [c.sentence_id for c in report.secondary] == ["f.2", "f.3"]


def test_operation_counts_partition_sentences():
    report = evaluate(fixture_doc("minicorpus"), Engine())
    rows = {row.label: row for row in report.by_operation}
    subj_total = (rows["continuation"].actual + rows["resumption"].actual
                  + rows["initiation"].actual)
    assert subj_total + rows["objective"].actual == report.sentences


def test_policy_differential_on_external_view_fixture():
    doc = fixture_doc("lynette")
    default = evaluate(doc, Engine())
    assert default.primary_count == 2
    assert [c.sentence_id for c in default.primary] == ["l.5", "l.6"]
    for policy in (SignificancePolicy.MIN_LENGTH_2,
                   SignificancePolicy.CONTAINS_REPRESENTED_THOUGHT,
                   SignificancePolicy.CONTAINS_SUBJECTIVE_ELEMENT):
        report = evaluate(doc, Engine(policy=policy))
        assert report.primary_count == 0, policy
        assert report.primary_count < default.primary_count


def test_evaluate_requires_gold_everywhere():
    doc = fixture_doc("demo1")
    items = list(doc.items)
    items[0] = dataclasses.replace(items[0], gold=None)
    with pytest.raises(ValidationError, match="s1"):
        evaluate(dataclasses.replace(doc, items=tuple(items)), Engine())


def test_report_render_and_json_agree():
    report = evaluate(fixture_doc("minicorpus"), Engine())
    text = report.render()
    data = report.to_dict()
    assert "Results by interpretation" in text
    assert "2 initiations" in text
    assert data["primary"]["count"] == 2
    assert data["secondary"]["count"] == 2
    assert data["sentences"] == 38
    assert data["by_operation"][3]["incorrect"] == {"initiation": 2}
    assert data["primary"]["cases"][0] == {
        "id": "d.1",
        "gold": {"type": "objective", "characters": ["Call"]},
        "got": {"type": "subjective", "characters": ["Call"]},
    }


# -- one decision per sentence and fold ---------------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_each_fold_decides_once_per_sentence(monkeypatch, name):
    calls = Counter()
    for owner, method in ((Engine, "choose_state_of_affairs"),
                          (Engine, "subjective_elements"),
                          (FeatureSet, "clause_about")):
        original = getattr(owner, method)

        def counted(self, *args, _original=original, _method=method):
            calls[_method] += 1
            return _original(self, *args)

        monkeypatch.setattr(owner, method, counted)
    doc = fixture_doc(name)
    n = len(doc.sentences())
    Engine().track_document(doc)
    assert calls == {"choose_state_of_affairs": n, "subjective_elements": n,
                     "clause_about": n}
    calls.clear()
    evaluate(doc, Engine())
    assert calls == {"choose_state_of_affairs": 2 * n,
                     "subjective_elements": 2 * n, "clause_about": 2 * n}
