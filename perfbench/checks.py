"""Output checks.  Each returns a list of problems; empty means correct.

The checks do not trust the program's own notion of correct output:
they compare the CLI against the library, the traced CLI output against
the plain one, every repetition against the first, every tile of the
novel corpus against the second, and, for the seeds listed in
``digests.json``, every output against the digest pinned when the
benchmark was written.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

VERDICT = re.compile(r"[^\t\n]+\t(?:SUBJECTIVE|OBJECTIVE)\t[^\t\n]*")
PINS = Path(__file__).with_name("digests.json")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def pinned(workload: str, seed: int) -> dict[str, str]:
    with open(PINS, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed), {})


def track_lines(text: str, ids: list[str]) -> list[str]:
    lines = text.splitlines()
    problems = []
    if [line.split("\t", 1)[0] for line in lines] != ids:
        problems.append("track: verdict ids differ from the sentence ids")
    if not all(VERDICT.fullmatch(line) for line in lines):
        problems.append("track: malformed verdict line")
    return problems


def trace_agrees(trace_text: str, track_text: str) -> list[str]:
    kept = [line for line in trace_text.splitlines()
            if VERDICT.fullmatch(line)]
    if kept != track_text.splitlines():
        return ["trace: verdict lines differ from track output"]
    return []


def eval_report(text: str, sentences: int) -> list[str]:
    report = json.loads(text)
    problems = []
    if report["sentences"] != sentences:
        problems.append("eval: wrong sentence count")
    for kind in ("primary", "secondary"):
        if report[kind]["count"] != len(report[kind]["cases"]):
            problems.append(f"eval: {kind} count differs from its cases")
    return problems


def sweep_agrees(default_lines: str, default_report: dict,
                 track_text: str, eval_text: str) -> list[str]:
    problems = []
    if default_lines != track_text:
        problems.append("sweep: library verdicts differ from the CLI's")
    if default_report != json.loads(eval_text):
        problems.append("sweep: library report differs from eval --json")
    return problems


def tiles_agree(verdict_text: str, tiles: int, label: str) -> list[str]:
    """Every tile after the first gives the verdicts of tile 1, modulo
    the per-tile id prefix.  Tile 0 differs: nobody has been subjective
    yet when it starts."""
    lines = verdict_text.splitlines()
    size, rest = divmod(len(lines), tiles)
    if rest:
        return [f"{label}: {len(lines)} verdicts do not split into "
                f"{tiles} tiles"]
    bare = [line.split("/", 1)[1] for line in lines]
    reference = bare[size:2 * size]
    for tile in range(2, tiles):
        if bare[tile * size:(tile + 1) * size] != reference:
            return [f"{label}: tile {tile} differs from tile 1"]
    return []
