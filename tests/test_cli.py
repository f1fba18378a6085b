"""End-to-end checks of the command-line interface."""

import gc
import io
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from povtrack import (
    Engine,
    SignificancePolicy,
    cli,
    evaluate,
    interpretation_line,
    render_step,
)
from povtrack.cli import main
from conftest import DATA, fixture_doc, fixture_path, renamed
from test_streaming import peak, tiled


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


def test_track_trace_of_an_empty_document_writes_an_empty_file(tmp_path,
                                                               capsys):
    empty = tmp_path / "empty.json"
    empty.write_text('{"title": "none", "roster": [], "items": []}')
    code, out, err = run(capsys, "track", empty, "--trace")
    assert (code, out, err) == (0, "", "")
    target = tmp_path / "out.txt"
    code, out, err = run(capsys, "track", empty, "--trace", "--out", target)
    assert (code, out, err, target.read_bytes()) == (0, "", "", b"")


def joined_output(steps, trace):
    """The text of ``povtrack track``, built whole: every line in a list,
    a blank line closing each trace block but the last, then joined."""
    lines = []
    for step in steps:
        if trace:
            lines += render_step(step)
        if step.interpretation is not None:
            lines.append(interpretation_line(step))
        if trace:
            lines.append("")
    if trace and lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + ("\n" if lines else "")


FIXTURES = sorted(path.stem for path in DATA.glob("*.json"))


# the command writes each step as it renders it, to standard output or to
# the --out file, and either sink gets the bytes of the joined text; the
# one --out file takes the verdicts, then the longer trace over them, then
# the verdicts again, and must end where they end
@pytest.mark.parametrize("policy", [p.value for p in SignificancePolicy])
@pytest.mark.parametrize("name", FIXTURES)
def test_track_writes_the_joined_text_to_either_sink(tmp_path, capsys, name,
                                                     policy):
    engine = Engine(policy=SignificancePolicy(policy))
    steps = engine.track_document(fixture_doc(name))
    target = tmp_path / "out.txt"
    for flags in ([], ["--trace"], []):
        expected = joined_output(steps, trace=bool(flags)).encode("utf-8")
        argv = ["track", fixture_path(name), "--policy", policy, *flags]
        code, out, err = run(capsys, *argv)
        assert (code, out.encode("utf-8"), err) == (0, expected, ""), flags
        code, out, err = run(capsys, *argv, "--out", target)
        assert (code, out, err) == (0, "", ""), flags
        assert target.read_bytes() == expected, flags


STALE = b"unrelated bytes, longer than any output of demo1\n" * 400


def demo1_verdicts(capsys):
    code, out, err = run(capsys, "track", fixture_path("demo1"))
    assert (code, err) == (0, "")
    return out.encode("utf-8")


# --out overwrites the file in place and cuts it where the output ends
@pytest.mark.parametrize("before", [
    None, lambda text: b"", lambda text: text[:len(text) // 2],
    lambda text: text[::-1], lambda text: STALE,
], ids=["absent", "empty", "shorter", "same-length", "longer"])
def test_track_out_holds_stdouts_bytes_whatever_it_held(tmp_path, capsys,
                                                        before):
    expected = demo1_verdicts(capsys)
    target = tmp_path / "out.tsv"
    if before is not None:
        target.write_bytes(before(expected))
    assert run(capsys, "track", fixture_path("demo1"), "--out", target) == \
        (0, "", "")
    assert target.read_bytes() == expected


def test_track_out_writes_through_a_symlink(tmp_path, capsys):
    expected = demo1_verdicts(capsys)
    real, link = tmp_path / "real.tsv", tmp_path / "link.tsv"
    real.write_bytes(STALE)
    link.symlink_to(real.name)
    assert run(capsys, "track", fixture_path("demo1"), "--out", link) == \
        (0, "", "")
    assert link.is_symlink() and os.readlink(link) == real.name
    assert real.read_bytes() == expected


def test_track_out_rewrites_the_file_that_a_hard_link_shares(tmp_path,
                                                             capsys):
    expected = demo1_verdicts(capsys)
    target, other = tmp_path / "out.tsv", tmp_path / "other.tsv"
    target.write_bytes(STALE)
    os.link(target, other)
    assert run(capsys, "track", fixture_path("demo1"), "--out", target) == \
        (0, "", "")
    assert target.samefile(other) and other.read_bytes() == expected


def test_track_out_keeps_an_existing_files_mode(tmp_path, capsys):
    target = tmp_path / "out.tsv"
    target.write_bytes(STALE)
    target.chmod(0o604)
    assert run(capsys, "track", fixture_path("demo1"), "--out", target) == \
        (0, "", "")
    assert stat.S_IMODE(target.stat().st_mode) == 0o604


def test_track_out_creates_a_file_with_the_umasks_mode(tmp_path, capsys):
    target = tmp_path / "out.tsv"
    umask = os.umask(0o027)
    try:
        result = run(capsys, "track", fixture_path("demo1"), "--out", target)
    finally:
        os.umask(umask)
    assert result == (0, "", "")
    assert stat.S_IMODE(target.stat().st_mode) == 0o640


def test_track_out_to_the_null_device_exits_0(capsys):
    # the length is cut only on a regular file: a device refuses it
    assert run(capsys, "track", fixture_path("demo1"), "--trace", "--out",
               os.devnull) == (0, "", "")


@pytest.mark.parametrize("written", [0, 3, 6])
def test_a_failed_write_leaves_only_the_lines_written(tmp_path, capsys,
                                                      monkeypatch, written):
    lines = demo1_verdicts(capsys).splitlines(keepends=True)
    calls = []

    def stops_after_some(step):
        if len(calls) == written:
            raise OSError(28, "No space left on device")
        calls.append(step)
        return interpretation_line(step)

    monkeypatch.setattr(cli, "interpretation_line", stops_after_some)
    target = tmp_path / "out.tsv"
    target.write_bytes(STALE)
    code, out, err = run(capsys, "track", fixture_path("demo1"), "--out",
                         target)
    assert (code, out) == (1, "")
    assert err == "povtrack: error: [Errno 28] No space left on device\n"
    assert target.read_bytes() == b"".join(lines[:written])


# the command, with every write past a file's 1,000th byte refused once
# the package is imported (Python ignores SIGXFSZ, so the write fails)
FILE_SIZE_LIMITED = """
import resource, sys
from povtrack.cli import main
hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
resource.setrlimit(resource.RLIMIT_FSIZE, (1000, hard))
sys.exit(main())
"""


def test_a_file_size_limit_leaves_the_bytes_that_fit(tmp_path, capsys):
    # the file system refuses the writes past 1,000 bytes, and again when
    # the rest is flushed; the file ends where the refused bytes began
    pytest.importorskip("resource")
    code, expected, _ = run(capsys, "track", fixture_path("demo1"), "--trace")
    expected = expected.encode("utf-8")
    assert code == 0 and len(expected) > 1000
    target = tmp_path / "out.txt"
    target.write_bytes(STALE)
    src = Path(__file__).parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    env.pop("POVTRACK_REGISTRY", None)
    proc = subprocess.run(
        [sys.executable, "-c", FILE_SIZE_LIMITED, "track",
         str(fixture_path("demo1")), "--trace", "--out", str(target)],
        env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "povtrack: error: [Errno 27] File too large\n"
    assert target.read_bytes() == expected[:1000]


class ClosedEarly(io.StringIO):
    """Standard output whose reader goes away after a few hundred
    characters, as under ``povtrack track ... | head``."""

    def write(self, text):
        if self.tell() > 300:
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def test_track_trace_to_a_reader_that_stops_exits_1(monkeypatch, capsys):
    # written a step at a time, the output meets the closed pipe before
    # it ends, and the command says so on one line, not in a traceback
    monkeypatch.setattr(sys, "stdout", ClosedEarly())
    code = main(["track", str(fixture_path("minicorpus")), "--trace"])
    assert code == 1
    assert capsys.readouterr().err == \
        "povtrack: error: [Errno 32] Broken pipe\n"


def test_track_trace_peaks_no_higher_than_validate(tmp_path, capsys):
    # held as a list of lines and then joined, a trace of a document as
    # large as its JSON took three times what the parse peaks at; written
    # a step at a time it is never held, and the parse is both peaks
    path = tmp_path / "novel.json"
    path.write_text(json.dumps(tiled(24)), encoding="utf-8")  # 2,136
    validate = peak(main, ["validate", str(path)])
    traced = peak(main, ["track", str(path), "--trace", "--out",
                         str(tmp_path / "trace.txt")])
    assert capsys.readouterr() == ("", "")
    assert (tmp_path / "trace.txt").stat().st_size > path.stat().st_size
    assert traced <= 1.1 * validate, (traced, validate)


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


@pytest.mark.parametrize("policy", SignificancePolicy, ids=lambda p: p.value)
def test_eval_json_writes_the_reports_to_json_and_a_newline(capsys, policy):
    code, out, err = run(capsys, "eval", fixture_path("minicorpus"), "--json",
                         "--policy", policy.value)
    report = evaluate(fixture_doc("minicorpus"), Engine(policy=policy))
    assert (code, err) == (0, "")
    assert out == report.to_json() + "\n"


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
                 "items[0]: sentence id '\\ud800' must not hold a lone "
                 "surrogate", id="lone-surrogate"),
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
    assert err == ("povtrack: error: items[0]: sentence id '\\ud800' must not "
                   "hold a lone surrogate\n")
    assert not target.exists()


def test_a_message_quoting_a_lone_surrogate_raw_is_one_escaped_line(
        tmp_path, monkeypatch):
    """The id is quoted as it is read when another fault of its sentence
    is met first; a strict UTF-8 stderr still gets its escape."""
    path = tmp_path / "raw-id.json"
    path.write_text('{"items": [{"kind": "sentence", "id": "\\ud800", '
                    '"features": 5}]}')
    stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(["validate", str(path)]) == 1
    stderr.flush()
    assert stderr.buffer.getvalue() == (
        b"povtrack: error: sentence \\ud800: features: must be an object\n")


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
