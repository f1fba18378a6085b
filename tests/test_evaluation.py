"""Evaluation harness: actual contexts, operations, error accounting."""

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povtrack import (
    Document,
    Engine,
    FeatureSet,
    Interpretation,
    ParagraphBreak,
    PovOperation,
    SceneBreak,
    Sentence,
    SignificancePolicy,
    TextSituation,
    ValidationError,
    evaluate,
    is_simple_quoted_speech,
)
from povtrack.evaluation import BreakdownRow
from conftest import DATA, fixture_doc
from test_properties import NAMES, interpretations, streams

FIXTURES = sorted(p.stem for p in DATA.glob("*.json"))

TS = TextSituation


def sentence_indices(doc):
    return {item.id: i for i, item in enumerate(doc.items)
            if isinstance(item, Sentence)}


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


# -- operation classification -----------------------------------------------------


def classify_operation(doc, index, interpretation=None):
    """The point-of-view operation ``interpretation``, by default the
    gold label of ``items[index]``, performs there: the reference that
    ``evaluate``'s carried scene state is checked against.  It scans
    back through the scene's gold labels to the nearest subjective one;
    paragraph breaks are invisible, and a scene break ends the scan."""
    interpretation = interpretation or doc.items[index].gold
    if not interpretation.subjective:
        return PovOperation.OBJECTIVE
    nearest = True
    for item in reversed(doc.items[:index]):
        if isinstance(item, SceneBreak):
            break
        if not isinstance(item, Sentence):
            continue
        if item.gold.subjective:
            if item.gold.characters != interpretation.characters:
                break
            return (PovOperation.CONTINUATION if nearest
                    else PovOperation.RESUMPTION)
        nearest = False
    return PovOperation.INITIATION


def test_classify_resumption_15_11():
    doc = fixture_doc("minicorpus")
    idx = sentence_indices(doc)
    assert classify_operation(doc, idx["15.11"]) is PovOperation.RESUMPTION


def test_classify_initiation_17_9():
    doc = fixture_doc("minicorpus")
    idx = sentence_indices(doc)
    assert classify_operation(doc, idx["17.9"]) is PovOperation.INITIATION


def test_classify_continuation_15_2():
    doc = fixture_doc("minicorpus")
    idx = sentence_indices(doc)
    assert classify_operation(doc, idx["15.2"]) is PovOperation.CONTINUATION


def test_classify_objective():
    doc = fixture_doc("minicorpus")
    idx = sentence_indices(doc)
    assert classify_operation(doc, idx["15.3"]) is PovOperation.OBJECTIVE


def test_classify_first_subjective_of_scene_is_initiation():
    doc = fixture_doc("minicorpus")
    idx = sentence_indices(doc)
    for sid in ("15.1", "17.1", "20.3", "d.5"):
        assert classify_operation(doc, idx[sid]) is PovOperation.INITIATION


def test_classify_new_character_is_initiation():
    doc = fixture_doc("minicorpus")
    idx = sentence_indices(doc)
    assert classify_operation(doc, idx["20.7"]) is PovOperation.INITIATION


def test_classify_full_minicorpus_operation_counts():
    doc = fixture_doc("minicorpus")
    counts = {op: 0 for op in PovOperation}
    for i, item in enumerate(doc.items):
        if isinstance(item, Sentence):
            counts[classify_operation(doc, i)] += 1
    assert counts[PovOperation.CONTINUATION] == 12
    assert counts[PovOperation.RESUMPTION] == 1
    assert counts[PovOperation.INITIATION] == 6
    assert counts[PovOperation.OBJECTIVE] == 19
    rows = evaluate(doc, Engine()).by_operation
    assert [row.actual for row in rows[:4]] == list(counts.values())


def test_classification_ignores_extra_paragraph_breaks():
    doc = fixture_doc("minicorpus")
    idx = sentence_indices(doc)
    target = idx["15.11"]
    items = list(doc.items)
    items.insert(target, ParagraphBreak())
    items.insert(target, ParagraphBreak())
    padded = dataclasses.replace(doc, items=tuple(items))
    assert classify_operation(padded, target + 2) is PovOperation.RESUMPTION
    engine = Engine()
    assert operation_rows(padded, engine) == operation_rows(doc, engine)


def test_classify_explicit_interpretation():
    doc = fixture_doc("minicorpus")
    idx = sentence_indices(doc)
    # reading 15.11 as Rosie's would start a new point of view
    rosie = Interpretation(True, frozenset({"Rosie"}))
    assert classify_operation(doc, idx["15.11"], rosie) is \
        PovOperation.INITIATION


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


# -- one linear pass: the carried scene state against the scanning classifier ---------


def scanning_operation_rows(doc, engine):
    """The by-operation rows rebuilt with the scanning ``classify_operation``
    above, which scans back through the scene for every sentence and
    again for every misread one."""
    rows = {op: BreakdownRow(op.value) for op in PovOperation}
    nonquoted = BreakdownRow("objective, other than simple quoted speech")
    fold = engine._fold(doc.items, doc.initial_context, gold=True)
    for index, step in enumerate(fold):
        if step.interpretation is None:
            continue
        gold, got = step.item.gold, step.interpretation
        counted = [rows[classify_operation(doc, index)]]
        if not gold.subjective and not is_simple_quoted_speech(step.item):
            counted.append(nonquoted)
        for row in counted:
            row.actual += 1
            if got == gold:
                continue
            row.primary += 1
            if got.subjective:
                row.wrong[classify_operation(doc, index, got).value] += 1
            elif gold.subjective:
                row.wrong["objective"] += 1
            else:
                row.wrong["objective, wrong active character"] += 1
    return [r.to_dict() for r in (*rows.values(), nonquoted)]


def operation_rows(doc, engine):
    return [r.to_dict() for r in evaluate(doc, engine).by_operation]


@pytest.mark.parametrize("policy", list(SignificancePolicy))
@pytest.mark.parametrize("name", FIXTURES)
def test_operation_rows_match_scanning_classifier(name, policy):
    doc = fixture_doc(name)
    engine = Engine(policy=policy)
    assert operation_rows(doc, engine) == scanning_operation_rows(doc, engine)


# a few labels that repeat often, so that every operation occurs
gold_labels = interpretations | st.sampled_from([
    Interpretation(True, frozenset({NAMES[0]})),
    Interpretation(True, frozenset({NAMES[1]})),
    Interpretation(False, frozenset()),
    Interpretation(False, frozenset({NAMES[0]})),
])


@st.composite
def gold_documents(draw):
    """A random stream of sentences and breaks, each sentence gold-labelled."""
    items = [dataclasses.replace(item, gold=draw(gold_labels))
             if isinstance(item, Sentence) else item
             for item in draw(streams())]
    return Document("random", frozenset(NAMES), tuple(items))


@settings(max_examples=150, deadline=None)
@given(gold_documents())
def test_random_operation_rows_match_scanning_classifier(doc):
    engine = Engine()
    assert operation_rows(doc, engine) == scanning_operation_rows(doc, engine)
