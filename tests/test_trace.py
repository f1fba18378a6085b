"""Golden trace output and byte stability."""

import dataclasses
import enum

import pytest

from povtrack import (
    Engine,
    SignificancePolicy,
    interpretation_line,
    render_step,
    render_trace,
)
from conftest import DATA, fixture_doc


def test_demo1_trace_matches_golden():
    doc = fixture_doc("demo1")
    steps = Engine().track_document(doc)
    golden = (DATA / "demo1.trace.golden").read_text(encoding="utf-8")
    assert render_trace(steps) == golden


def test_trace_is_byte_stable():
    doc = fixture_doc("demo3")
    first = render_trace(Engine().track_document(doc))
    second = render_trace(Engine().track_document(doc))
    assert first == second


def test_demo1_trace_content_landmarks():
    steps = Engine().track_document(fixture_doc("demo1"))
    text = render_trace(steps)
    assert ("Private-state action of Japheth treated as an action: "
            "actor has not been a subjective character" in text)
    assert "The subj_char is Dennys and Sandy" in text
    assert "The situation is now interrupted-subj" in text
    # the progressive is considered on s7 but never fires
    s7 = "\n".join(render_step(steps[6]))
    assert "progressive" in s7
    assert "Of these, the following are subjective elements:" in s7
    fired = s7.split("Of these, the following are subjective elements:")[1]
    fired = fired.split("Subjective context")[0]
    assert "progressive" not in fired
    assert "sentence-fragment" in fired and "seeming-verb" in fired


def test_demo3_trace_competition_lines():
    steps = Engine().track_document(fixture_doc("demo3"))
    text = render_trace(steps)
    assert ("Competition between the last_subj_char and the last_active_char"
            in text)
    assert ("Choosing the last_subj_char because the sentence is about the "
            "last_active_char" in text)
    assert "Newt is the active_char of this sentence" in text


def test_demo2_trace_reports_unconsidered_elements():
    steps = Engine().track_document(fixture_doc("demo2"))
    text = render_trace(steps)
    assert "Not considered in identifying the subjective character:" in text
    assert "private state of Johnnie Martin" in text
    assert "Subjective context continued by these features:" in text


def test_break_events_record_both_situations():
    steps = Engine().track_document(fixture_doc("demo2"))
    block = render_step(steps[1])
    assert block == [
        "--- paragraph break",
        "Before the break:",
        "    The situation is continuing-subj",
        "After the break:",
        "    The situation is broken-subj",
    ]


def test_rendering_a_trace_hashes_no_text_situation(monkeypatch):
    # Enum.__hash__ runs in Python; each situation holds its short name
    steps = Engine().track_document(fixture_doc("minicorpus"))
    hashes = []
    original = enum.Enum.__hash__

    def counting(member):
        hashes.append(member)
        return original(member)

    monkeypatch.setattr(enum.Enum, "__hash__", counting)
    text = render_trace(steps)
    monkeypatch.undo()
    assert len(steps) == 51 and "The situation is continuing-subj" in text
    assert hashes == []


def test_failed_identification_warns():
    steps = Engine().track_document(fixture_doc("p19"))
    block = "\n".join(render_step(steps[0]))
    assert "WARNING" in block
    assert interpretation_line(steps[0]) == "s1\tSUBJECTIVE\t"


def test_interpretation_lines_sorted_and_tabbed():
    steps = Engine().track_document(fixture_doc("demo1"))
    lines = [interpretation_line(s) for s in steps
             if s.interpretation is not None]
    assert lines[0] == "s1\tOBJECTIVE\t"
    assert lines[3] == "s4\tSUBJECTIVE\tDennys,Sandy"


def test_policy_changes_treated_as_action_reason():
    doc = fixture_doc("lynette")
    policy = SignificancePolicy.MIN_LENGTH_2
    steps = Engine(policy=policy).track_document(doc)
    by_id = {s.item.id: s for s in steps if s.interpretation is not None}
    block = "\n".join(render_step(by_id["l.5"]))
    assert "lacks a significant previous subjective context" in block


def test_readme_library_example_words_the_engines_policy():
    # the renderer takes no policy: the decision record carries the reason
    engine = Engine(policy=SignificancePolicy.MIN_LENGTH_2)
    text = render_trace(engine.track_document(fixture_doc("lynette")))
    assert "lacks a significant previous subjective context" in text
    assert "has not been a subjective character" not in text


@pytest.mark.parametrize("separator", "\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")
def test_sentence_head_escapes_tabs_and_line_breaks(separator):
    doc = fixture_doc("demo1")
    first = dataclasses.replace(doc.items[0], text=f"a{separator}b")
    step = Engine().track([first])[0]
    escaped = repr(separator)[1:-1]
    assert render_step(step)[0] == f"--- s1: a{escaped}b"
    assert len(render_trace([step]).splitlines()) == len(render_step(step))


def test_sentence_head_tells_an_escape_from_a_line_feed():
    first = fixture_doc("demo1").items[0]
    heads = {render_step(Engine().track([
        dataclasses.replace(first, text=text)])[0])[0]
        for text in ("x\\ny", "x\ny")}
    assert heads == {"--- s1: x\\\\ny", "--- s1: x\\ny"}
