"""A committed table of mutants: each is one edit of the source and the
tests that must fail on it.

Run it as ``python tests/mutants.py``.  Paths are taken relative to this
file, so any working directory works.  For each entry the script copies
``src/``, ``tests/`` and ``pyproject.toml`` into a temporary directory,
requires the old snippet to occur exactly once in the named file,
replaces it, and runs the named tests there with pytest in a new
interpreter.  A mutant is killed when pytest reports a failed test (exit
status 1); a collection or usage error is not a kill.  The unmutated
copy runs every named test first and must pass, so that a broken
environment cannot count as a kill.  The exit status is 1 if that run
fails or any mutant survives.

The script needs only the standard library; the tests it runs need
pytest and hypothesis.  Its name keeps pytest from collecting it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids; some test of them must fail


EVALUATION = "src/povtrack/evaluation.py"
ENGINE = "src/povtrack/engine.py"
SITUATIONS = "src/povtrack/situations.py"
MODEL = "src/povtrack/model.py"
CORPUS = "src/povtrack/corpus.py"

# the engine against the reference tracker on every fixture and policy
REFERENCE = ("tests/test_reference.py::"
             "test_the_engine_agrees_with_the_reference_on_every_fixture",)
# evaluate's report against the reference's on every fixture and policy
REPORT = ("tests/test_reference.py::test_the_report_agrees_with_the_reference",)
SEEN_LOG = (
    "tests/test_seen_log.py::test_an_older_view_grows_a_log_of_its_own",
    *REFERENCE,
)
QUALIFIED = (
    *REFERENCE,
    "tests/test_seen_log.py::"
    "test_interpret_is_given_the_steps_own_previous_scs",
)
LONE_SURROGATES = (
    "tests/test_corpus.py::"
    "test_lone_surrogate_is_a_parse_error_naming_the_field",
)
# the check that a digit-limit fault is final
DIGITS_SETTLED = ('        return not re.search(r"[0-9](\\.|[eE][-+]?)?\\Z", '
                  "self.text[-3:])\n")
ACTIVE = ("if vp.simple_past and not vp.negated and not vp.habitual "
          "and not vp.modal:")

MUTANTS = (
    # the operation rule and the scene state evaluate carries for it
    Mutant("operation: no reset at a scene break", EVALUATION,
           "                previous = last_subjective = None\n",
           "                pass\n", REPORT),
    Mutant("operation: a reset at a paragraph break", EVALUATION,
           "            if isinstance(item, SceneBreak):\n",
           "            if True:\n", REPORT),
    Mutant("operation: an objective label sets last_subjective",
           EVALUATION,
           "        if gold.subjective:\n"
           "            last_subjective = gold.characters\n",
           "        if True:\n"
           "            last_subjective = gold.characters\n",
           REPORT),
    Mutant("operation: resumption read as initiation", EVALUATION,
           "return (PovOperation.RESUMPTION if last_subjective == target",
           "return (PovOperation.INITIATION if last_subjective == target",
           ("tests/test_reference.py::"
            "test_the_reference_operations_match_the_hand_counts",)),
    Mutant("operation: a misread's operation taken from the gold label",
           EVALUATION,
           "return _operation(got, previous, last_subjective).value",
           "return _operation(gold, previous, last_subjective).value",
           REPORT),
    # the fold's run of subjective sentences under min-length-2
    Mutant("fold: runs survive breaks under min-length-2", ENGINE,
           "                after = new_context_after_break(item, context)\n"
           "                live = NOBODY\n",
           "                after = new_context_after_break(item, context)\n",
           ("tests/test_engine.py::"
            "test_history_runs_end_at_breaks_and_other_characters",)),
    # under any-previous-sc the qualified set is the context's previous_scs
    Mutant("fold: its own set passed under any-previous-sc", ENGINE,
           "fs, context, qualified if own else context.previous_scs)",
           "fs, context, qualified)", QUALIFIED),
    Mutant("fold: previous_scs passed under the wrong policy", ENGINE,
           "own = policy is not _SP.ANY_PREVIOUS_SC",
           "own = policy is not _SP.MIN_LENGTH_2", QUALIFIED),
    # each actuality condition of the active character
    Mutant("active character: simple past not required", ENGINE, ACTIVE,
           ACTIVE.replace("vp.simple_past and ", ""),
           ("tests/test_engine.py::"
            "test_active_character_requires_simple_past",)),
    Mutant("active character: negation allowed", ENGINE, ACTIVE,
           ACTIVE.replace(" and not vp.negated", ""),
           ("tests/test_engine.py::test_active_character_rejects_negation",)),
    Mutant("active character: habitual allowed", ENGINE, ACTIVE,
           ACTIVE.replace(" and not vp.habitual", ""),
           ("tests/test_engine.py::test_active_character_rejects_habitual",)),
    Mutant("active character: modal allowed", ENGINE, ACTIVE,
           ACTIVE.replace(" and not vp.modal", ""),
           ("tests/test_engine.py::test_active_character_rejects_modal",)),
    # a transition returns its own context when nothing changes
    Mutant("transition: no reuse after a subjective sentence", SITUATIONS,
           "and who == context.last_sc):\n            return context\n",
           "and who == context.last_sc):\n            pass\n",
           ("tests/test_situations.py::"
            "test_a_transition_returns_its_context_exactly_when_unchanged",)),
    Mutant("transition: no reuse after an objective sentence", SITUATIONS,
           "and active == context.last_active_character):\n"
           "        return context\n",
           "and active == context.last_active_character):\n"
           "        pass\n",
           ("tests/test_situations.py::"
            "test_a_transition_returns_its_context_exactly_when_unchanged",)),
    Mutant("transition: no reuse after a break", SITUATIONS,
           "    if situation is context.situation:\n        return context\n",
           "    if False:\n        return context\n",
           ("tests/test_situations.py::"
            "test_a_transition_returns_its_context_exactly_when_unchanged",)),
    # each view of a fold's log keeps the names it had
    Mutant("log: an older view appends to the shared log", MODEL,
           "            rank = dict(islice(rank.items(), length))\n",
           "            pass\n", SEEN_LOG),
    Mutant("log: membership ignores the view's length", MODEL,
           "return self._rank.get(name, self._length) < self._length",
           "return name in self._rank", SEEN_LOG),
    # the cycle message names the same cycle under every hash seed
    Mutant("cycle: message worded from the unsorted walk", MODEL,
           "                if order is iter:\n"
           "                    _check_acyclic(clauses, "
           "lambda under: iter(sorted(under)))\n",
           "",
           ("tests/test_hash_seed.py::"
            "test_outputs_are_the_same_under_two_hash_seeds",)),
    # a parse walks each decoded value for a lone surrogate
    Mutant("parse: an item not walked for a lone surrogate", CORPUS,
           '                _reject_lone_surrogates(raw, "", where)\n',
           "                pass\n", LONE_SURROGATES),
    Mutant("parse: a top-level field not walked for a lone surrogate",
           CORPUS,
           '                _reject_lone_surrogates({key: value}, "")\n',
           "                pass\n", LONE_SURROGATES),
    # a parse gives each distinct gold label one Interpretation, and the
    # tracker one objective verdict with no active character
    Mutant("shared: the gold table keyed by characters alone", CORPUS,
           "        key = (subjective, characters)\n",
           "        key = characters\n",
           ("tests/test_sharing.py::"
            "test_labels_that_differ_only_in_kind_stay_apart",)),
    # the writer's table of written name sets is kept per depth
    Mutant("write: the depth-4 sets written through the depth-6 table",
           CORPUS, "    at4, at6 = _Written(4), _Written(6)\n",
           "    at4 = at6 = _Written(6)\n",
           ("tests/test_writer.py::"
            "test_a_name_set_shared_across_depths_is_written_at_each_depth",)),
    Mutant("shared: the objective verdict shared with an active character",
           ENGINE,
           "return (Interpretation(False, active) if active else _OBJECTIVE,",
           "return (_OBJECTIVE,",
           ("tests/test_engine.py::"
            "test_progressive_aspect_does_not_disqualify",)),
    # bytes decoded a window at a time read as the whole text reads
    Mutant("window: a value taken where the window's end may cut it",
           CORPUS,
           "            if end + 3 <= len(self.text) or not self._more():\n",
           "            if True:\n",
           ("tests/test_streaming.py::"
            "test_a_number_cut_by_a_window_is_read_whole",)),
    Mutant("window: the surrogate escape search starts at the new text",
           CORPUS, "self.text, max(0, tail - 5)))", "self.text, tail))",
           ("tests/test_streaming.py::"
            "test_a_surrogate_escape_cut_by_a_window_is_found",)),
    Mutant("window: the text read is never dropped", CORPUS,
           "        self.text, self.pos = self.text[self.pos:], 0"
           "  # drop the text read\n",
           "        pass\n",
           ("tests/test_streaming.py::"
            "test_a_parse_of_bytes_never_holds_the_whole_decoded_text",)),
    # a fault met a window at a time is worded and placed as the whole
    # decode words it, and only once more text could not change it
    Mutant("window: the line breaks dropped are not counted", CORPUS,
           '        self.lines += found >= 0 and text.count("\\n", 0, pos)\n',
           "        pass\n",
           ("tests/test_streaming.py::"
            "test_a_fault_read_a_window_at_a_time_is_worded_alike",)),
    Mutant("window: an unterminated string's fault taken as final", CORPUS,
           '            return (not exc.msg.startswith("Unterminated string")'
           "\n                    and exc.pos",
           "            return (exc.pos",
           ("tests/test_streaming.py::"
            "test_a_string_cut_by_a_window_is_read_whole",)),
    Mutant("window: the digit limit raised without a retry", CORPUS,
           DIGITS_SETTLED, "        return True\n",
           ("tests/test_streaming.py::"
            "test_a_number_of_too_many_digits_cut_by_a_window_keeps_its_count",
            )),
    Mutant("window: the digit limit retried to the input's end", CORPUS,
           DIGITS_SETTLED, "        return False\n",
           ("tests/test_streaming.py::"
            "test_an_early_fault_is_met_before_the_rest_is_decoded",)),
    Mutant("fault: a stand-in for the items that a number's fraction extends",
           CORPUS, 'text.fault("[null")', 'text.fault("[0")',
           ("tests/test_streaming.py::"
            "test_a_fault_is_reported_as_the_whole_decode_reports_it",)),
)


def copy_tree(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                  ".pytest_cache", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", into / "pyproject.toml")


def run_tests(where: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(where / "src")}
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         *tests],
        cwd=where, env=env, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL).returncode


def apply(mutant: Mutant, where: Path) -> None:
    path = where / mutant.path
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise SystemExit(f"{mutant.name}: the old snippet occurs {count} "
                         f"times in {mutant.path}, not once")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def main() -> int:
    every_test = sorted({test for m in MUTANTS for test in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        copy_tree(Path(tmp))
        status = run_tests(Path(tmp), every_test)
    if status != 0:
        print(f"the unmutated copy fails its tests (pytest exit {status})")
        return 1
    print(f"unmutated: the tests of {len(every_test)} node ids pass")
    survivors = 0
    for mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            copy_tree(Path(tmp))
            apply(mutant, Path(tmp))
            status = run_tests(Path(tmp), mutant.tests)
        if status == 1:
            print(f"killed    {mutant.name}")
        else:
            survivors += 1
            print(f"SURVIVED  {mutant.name} (pytest exit {status})")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
