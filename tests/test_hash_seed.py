"""Output does not depend on the string hash seed.

Character sets, clause ids and the identity sets a feature set checks
its states of affairs with all iterate in an order that changes with
the hash seed, so every output must sort or walk them in an order of
its own.  Two interpreters, one with ``PYTHONHASHSEED=0`` and one with
``=1``, print every command's output for every fixture and a few
faulty documents, and the two must be byte-equal.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from povtrack import SignificancePolicy
from conftest import DATA

SRC = Path(__file__).parent.parent / "src"

# prints, per command line read from stdin, its exit status, stdout and
# stderr; the first line shows that the seed changes a set's order
PROGRAM = r"""
import contextlib, io, json, sys
from povtrack.cli import main

print(list({f"name{i}" for i in range(12)}))
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    print(json.dumps([argv, status, out.getvalue(), err.getvalue()]))
"""


def sentence(**features):
    return {"kind": "sentence", "id": "s1", "features": {
        "soas": [{"id": "a1", "type": "action", "who": ["Zoe"]}],
        "clauses": [{"id": "c1", "soa": "a1"}], **features}}


# each message lists several names, which a set holds until it is written
FAULTY = {
    "off-roster-who": (sentence(soas=[{
        "id": "a1", "type": "action", "who": ["Yan", "Zoe", "Xu", "Wim"]}]),
        "character(s) ['Wim', 'Xu', 'Yan'] not in roster"),
    "off-roster-parenthetical": (sentence(parenthetical=["Yan", "Xu", "Wim"]),
                                 "character(s) ['Wim', 'Xu', 'Yan'] not in "
                                 "roster"),
    "unknown-under": (sentence(clauses=[
        {"id": "c1", "soa": "a1"},
        {"id": "c2", "soa": "a1", "under": ["c9", "c1", "c8", "c7"]}]),
        "clause 'c2' subordinated to unknown clause(s) ['c7', 'c8', 'c9']"),
    "element-unknown-under": (sentence(pses=[
        {"id": "p1", "category": "hedge", "under": ["c9", "c8", "c7"]}]),
        "element 'p1' subordinated to unknown clause(s) ['c7', 'c8', 'c9']"),
    "several-mains": (sentence(clauses=[
        {"id": f"c{i}", "soa": "a1"} for i in (4, 1, 3, 2)]),
        "multiple main clauses (c1, c2, c3, c4)"),
    # c2 closes a cycle with c5 and another with c6, and the two seeds
    # walk {c5, c6} in different orders; the message names the first
    # in sorted order
    "two-cycles": (sentence(clauses=[
        {"id": "c1", "soa": "a1"},
        {"id": "c2", "soa": "a1", "under": ["c5", "c6"]},
        {"id": "c5", "soa": "a1", "under": ["c2"]},
        {"id": "c6", "soa": "a1", "under": ["c2"]}]),
        "clause subordination cycle: c2 -> c5 -> c2"),
}


def outputs(seed, argvs):
    env = {**os.environ, "PYTHONHASHSEED": seed,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    env.pop("POVTRACK_REGISTRY", None)
    return subprocess.run([sys.executable, "-c", PROGRAM],
                          input=json.dumps(argvs).encode(), env=env,
                          capture_output=True, check=True).stdout


def test_outputs_are_the_same_under_two_hash_seeds(tmp_path):
    argvs = []
    for path in sorted(DATA.glob("*.json")):
        for policy in SignificancePolicy:
            argvs += [["track", "--trace", str(path), "--policy", policy.value],
                      ["eval", "--json", str(path), "--policy", policy.value]]
    for name, (item, _message) in FAULTY.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"roster": ["Zoe"], "items": [item]}))
        argvs.append(["validate", str(path)])
    first, second = (outputs(seed, argvs) for seed in ("0", "1"))
    assert first.split(b"\n", 1)[1] == second.split(b"\n", 1)[1]
    # the seeds do order a set differently, so the comparison can fail
    assert first.split(b"\n", 1)[0] != second.split(b"\n", 1)[0]
    runs = [json.loads(line) for line in first.splitlines()[1:]]
    assert len(runs) == len(argvs)
    assert sum(status == 0 and out != "" for _, status, out, _ in runs) >= 48
    for (_argv, status, _out, err), (_item, message) in zip(
            runs[-len(FAULTY):], FAULTY.values()):
        assert status == 1 and err.rstrip("\n").endswith(message)
