"""End-to-end checks of the command-line interface."""

import gc
import json
import re

import pytest

from povtrack import cli
from povtrack.cli import main
from conftest import fixture_path, renamed


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_track_prints_interpretation_lines(capsys):
    code, out, err = run(capsys, "track", fixture_path("demo1"))
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 7
    assert lines[0] == "s1\tOBJECTIVE\t"
    assert lines[3] == "s4\tSUBJECTIVE\tDennys,Sandy"
    assert lines[6] == "s7\tSUBJECTIVE\tDennys,Sandy"


def test_track_trace_agrees_on_interpretation_lines(capsys):
    code, plain, _ = run(capsys, "track", fixture_path("demo3"))
    assert code == 0
    code, traced, _ = run(capsys, "track", fixture_path("demo3"), "--trace")
    assert code == 0
    plain_lines = plain.splitlines()
    kept = [line for line in traced.splitlines() if line in plain_lines]
    assert kept == plain_lines
    assert "Competition between the last_subj_char" in traced


def test_trace_head_escapes_a_text_that_forges_a_verdict(tmp_path, capsys):
    data = json.loads(fixture_path("demo1").read_bytes())
    data["items"][0]["text"] = "x\ns9\tSUBJECTIVE\tJapheth"
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(data))
    code, plain, _ = run(capsys, "track", path)
    assert code == 0
    code, traced, _ = run(capsys, "track", path, "--trace")
    assert code == 0
    lines = traced.splitlines()
    assert lines[0] == "--- s1: x\\ns9\\tSUBJECTIVE\\tJapheth"
    verdict = re.compile("[^\t]*\t(SUBJECTIVE|OBJECTIVE)\t[^\t]*")
    assert [line for line in lines if verdict.fullmatch(line)] == \
        plain.splitlines()


def test_track_out_writes_file(tmp_path, capsys):
    target = tmp_path / "out.tsv"
    code, out, _ = run(capsys, "track", fixture_path("demo1"),
                       "--out", target)
    assert code == 0 and out == ""
    assert target.read_text(encoding="utf-8").splitlines()[3] == \
        "s4\tSUBJECTIVE\tDennys,Sandy"


def test_track_empty_document(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"title": "none", "roster": [], "items": []}')
    code, out, err = run(capsys, "track", empty)
    assert (code, out, err) == (0, "", "")


def test_track_broken_document_exits_1(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({
        "title": "x", "roster": ["Zoe"],
        "items": [{"kind": "sentence", "id": "bad1", "features": {
            "quotedSpeech": False,
            "soas": [],
            "clauses": [{"id": "c1", "soa": "ghost", "under": [], "vp": {}}],
            "pses": []}}]}))
    code, out, err = run(capsys, "track", broken)
    assert code == 1 and out == ""
    assert "bad1" in err and "ghost" in err


def test_track_rejects_unknown_policy(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["track", str(fixture_path("demo1")), "--policy", "yolo"])
    assert exc.value.code == 2


def test_registry_flag_changes_output(tmp_path, capsys):
    registry = tmp_path / "registry.json"
    registry.write_text('{"percept-term": {"level": 1}}')
    code, out, _ = run(capsys, "track", fixture_path("demo3"))
    assert out.splitlines()[4] == "s5\tSUBJECTIVE\tNewt"
    code, out, _ = run(capsys, "track", fixture_path("demo3"),
                       "--registry", registry)
    # demoted to level 1, the percept term stays silent in postsubj-active
    assert code == 0
    assert out.splitlines()[4].startswith("s5\tOBJECTIVE")


def test_registry_env_var_default(tmp_path, capsys, monkeypatch):
    registry = tmp_path / "registry.json"
    registry.write_text('{"percept-term": {"level": 1}}')
    monkeypatch.setenv("POVTRACK_REGISTRY", str(registry))
    code, out, _ = run(capsys, "track", fixture_path("demo3"))
    assert code == 0
    assert out.splitlines()[4].startswith("s5\tOBJECTIVE")


def test_eval_tables(capsys):
    code, out, err = run(capsys, "eval", fixture_path("minicorpus"))
    assert code == 0 and err == ""
    assert "Primary errors: 2 (5%)" in out
    assert "Secondary errors: 2 (5%)" in out
    assert "Results by point-of-view operation" in out


def test_eval_json(capsys):
    code, out, _ = run(capsys, "eval", fixture_path("minicorpus"), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["primary"]["count"] == 2
    assert data["secondary"]["count"] == 2
    assert data["sentences"] == 38


def test_eval_policy_differential(capsys):
    _, out_default, _ = run(capsys, "eval", fixture_path("lynette"), "--json")
    _, out_strict, _ = run(capsys, "eval", fixture_path("lynette"), "--json",
                           "--policy", "min-length-2")
    default = json.loads(out_default)["primary"]["count"]
    strict = json.loads(out_strict)["primary"]["count"]
    assert strict < default


def test_eval_unlabelled_exits_1(tmp_path, capsys):
    doc = tmp_path / "unlabelled.json"
    doc.write_text(json.dumps({
        "title": "x", "roster": ["Zoe"],
        "items": [{"kind": "sentence", "id": "s1", "features": {
            "quotedSpeech": False,
            "soas": [{"id": "a1", "type": "action", "who": ["Zoe"]}],
            "clauses": [{"id": "c1", "soa": "a1", "under": [], "vp": {}}],
            "pses": []}}]}))
    code, out, err = run(capsys, "eval", doc)
    assert code == 1
    assert "gold" in err


def test_validate_ok_is_silent(capsys):
    code, out, err = run(capsys, "validate", fixture_path("demo2"))
    assert (code, out, err) == (0, "", "")


def test_validate_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"title": 3}')
    code, out, err = run(capsys, "validate", bad)
    assert code == 1 and "title" in err


def test_validate_and_track_agree_on_unknown_category(tmp_path, capsys):
    doc = tmp_path / "wobbly.json"
    doc.write_text(json.dumps({
        "title": "x", "roster": ["Zoe"],
        "items": [{"kind": "sentence", "id": "s1", "features": {
            "quotedSpeech": False,
            "soas": [{"id": "a1", "type": "action", "who": ["Zoe"]}],
            "clauses": [{"id": "c1", "soa": "a1", "under": [], "vp": {}}],
            "pses": [{"id": "p1", "category": "wobbly", "under": []}]}}]}))
    for command in ("validate", "track"):
        code, out, err = run(capsys, command, doc)
        assert (code, out) == (1, ""), command
        assert "wobbly" in err, command


def test_validate_warns_on_off_roster_gold(tmp_path, capsys):
    doc = tmp_path / "warn.json"
    doc.write_text(json.dumps({
        "title": "x", "roster": ["Zoe"],
        "items": [{"kind": "sentence", "id": "s1",
                   "gold": {"type": "subjective", "characters": ["Zoe"]},
                   "features": {
                       "quotedSpeech": False,
                       "soas": [{"id": "a1", "type": "private-state",
                                 "who": ["Zoe"]}],
                       "clauses": [{"id": "c1", "soa": "a1", "under": [],
                                    "vp": {}}],
                       "pses": []}},
                  {"kind": "sentence", "id": "s2",
                   "features": {
                       "quotedSpeech": False,
                       "soas": [{"id": "a1", "type": "action",
                                 "who": ["Zoe"]}],
                       "clauses": [{"id": "c1", "soa": "a1", "under": [],
                                    "vp": {}}],
                       "pses": []}}]}))
    code, out, err = run(capsys, "validate", doc)
    assert code == 0
    assert "warning" in out and "s2" in out


def test_missing_file_exits_1(capsys):
    code, _, err = run(capsys, "track", "no-such-file.json")
    assert code == 1 and "no-such-file" in err


def chain_document(n, cycle):
    """One sentence of n clauses, each subordinated to the next and the
    main clause last; with ``cycle`` the last two point at each other."""
    clauses = [{"id": f"c{i}", "soa": "a1", "under": [f"c{i + 1}"]}
               for i in range(1, n)]
    clauses.append({"id": f"c{n}", "soa": "a1",
                    "under": [f"c{n - 1}"] if cycle else []})
    if cycle:
        clauses.append({"id": "main", "soa": "a1"})
    return json.dumps({"roster": [], "items": [
        {"kind": "sentence", "id": "s1", "features": {
            "soas": [{"id": "a1", "type": "action"}],
            "clauses": clauses}}]}).encode()


def demo1_with_first_id(sid, drop=None):
    """demo1 with its first sentence id replaced, and a field dropped."""
    data = json.loads(fixture_path("demo1").read_bytes())
    data["items"][0]["id"] = sid
    data["items"][0].pop(drop, None)
    return json.dumps(data).encode()


@pytest.mark.parametrize("data, problem", [
    (b'{"title": "\xff"}', "can't decode byte 0xff"),
    (b"[" * 100_000, "recursion"),
    (b'{"title": ' + b"1" * 5000 + b"}", "integer string conversion"),
    (chain_document(5000, cycle=True), "cycle: c1 -> c2"),
    pytest.param(demo1_with_first_id("\ud800"),
                 "items[0].id: lone surrogate '\\ud800'", id="lone-surrogate"),
    # a verdict line that would read as two
    pytest.param(demo1_with_first_id("a\tb\nOBJ"),
                 "items[0]: sentence id 'a\\tb\\nOBJ' must not hold a tab",
                 id="line-forging-id"),
    pytest.param(demo1_with_first_id("s1\u2028s9"),
                 "items[0]: sentence id 's1\\u2028s9' must not hold a tab",
                 id="line-separator-id"),
    pytest.param(demo1_with_first_id("s1\x85s9"),
                 "items[0]: sentence id 's1\\x85s9' must not hold a tab",
                 id="next-line-id"),
    # a second fault is found first, and its message quotes the id
    pytest.param(demo1_with_first_id("a\nb", drop="features"),
                 "sentence a\\nb: features: must be an object",
                 id="line-forging-id-and-no-features"),
    # a name that a verdict or trace line prints, forging an s9 line
    pytest.param(renamed("Dennys", "Dennys\ns9\tOBJECTIVE\t"),
                 "roster name 'Dennys\\ns9\\tOBJECTIVE\\t' must not hold",
                 id="line-forging-roster-name"),
    pytest.param((fixture_path("demo1").read_bytes(),
                  b'{"x\\ns9\\tSUBJECTIVE\\tGhost": {"level": 3}}'),
                 "registry: category name 'x\\ns9\\tSUBJECTIVE\\tGhost' "
                 "must not hold", id="line-forging-category-name"),
])
@pytest.mark.parametrize("command", ["track", "eval", "validate"])
def test_hostile_input_exits_1_without_traceback(tmp_path, capsys, command,
                                                  data, problem):
    path, flags = tmp_path / "hostile.json", []
    if isinstance(data, tuple):  # a document, and a registry for it
        data, registry = data
        (tmp_path / "registry.json").write_bytes(registry)
        flags = ["--registry", tmp_path / "registry.json"]
    path.write_bytes(data)
    code, out, err = run(capsys, command, path, *flags)
    assert (code, out) == (1, "")
    assert err.startswith("povtrack: error: ") and problem in err
    assert err.count("\n") == 1


def test_lone_surrogate_with_out_exits_1(tmp_path, capsys):
    path = tmp_path / "hostile.json"
    path.write_bytes(demo1_with_first_id("\ud800"))
    target = tmp_path / "out.tsv"
    code, out, err = run(capsys, "track", path, "--out", target)
    assert (code, out) == (1, "")
    assert err == "povtrack: error: items[0].id: lone surrogate '\\ud800'\n"
    assert not target.exists()


def test_hostile_registry_exits_1(tmp_path, capsys):
    registry = tmp_path / "registry.json"
    registry.write_bytes(b"{" * 100_000)
    code, _, err = run(capsys, "track", fixture_path("demo1"),
                       "--registry", registry)
    assert code == 1 and err.startswith("povtrack: error: registry: ")


def test_long_subordination_chain_tracks(tmp_path, capsys):
    path = tmp_path / "chain.json"
    path.write_bytes(chain_document(5000, cycle=False))
    code, out, err = run(capsys, "track", path)
    assert (code, out, err) == (0, "s1\tOBJECTIVE\t\n", "")


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def caller_gc(request):
    """The collector as the caller set it; restored after the test."""
    before = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if before else gc.disable)()


def broken_document(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"title": 5, "roster": [], "items": []}')
    return path


@pytest.mark.parametrize("case", ["success", "povtrack-error", "os-error"])
def test_main_leaves_the_collector_as_the_caller_set_it(tmp_path, capsys,
                                                        caller_gc, case):
    argv = {"success": ["track", fixture_path("demo1")],
            "povtrack-error": ["track", broken_document(tmp_path)],
            "os-error": ["track", tmp_path / "no-such-file.json"]}[case]
    code, _, _ = run(capsys, *argv)
    assert code == (0 if case == "success" else 1)
    assert gc.isenabled() is caller_gc


def test_main_restores_the_collector_when_a_command_raises(monkeypatch,
                                                           caller_gc):
    seen = []

    def explode(args, registry):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_track", explode)
    with pytest.raises(RuntimeError, match="boom"):
        main(["track", str(fixture_path("demo1"))])
    assert seen == [False]
    assert gc.isenabled() is caller_gc


def cyclic_garbage(capsys, *argv):
    """How many objects in reference cycles one command leaves behind."""
    gc.collect()
    code, _, _ = run(capsys, *argv)
    assert code == 0
    return gc.collect()


@pytest.mark.parametrize("command", [["track"], ["track", "--trace"],
                                     ["eval"], ["eval", "--json"],
                                     ["validate"]])
def test_paused_command_leaves_garbage_independent_of_input(capsys, command):
    # With the collector paused, garbage in cycles would pile up with
    # the input's length; the few that argparse and json make do not.
    small, large = (cyclic_garbage(capsys, command[0], fixture_path(name),
                                   *command[1:])
                    for name in ("demo1", "minicorpus"))
    assert small == large
