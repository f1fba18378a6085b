"""Scoring the tracker against gold labels.

The engine's fold runs twice, side by side, over a fully gold-labelled
document:

* the *actual* fold advances context and qualified set from the gold labels,
  so every sentence is judged in the context a perfect reader would
  have;
* the *computed* fold advances them from the engine's own output.

A sentence is a **primary error** when the engine is wrong in the
actual context, and a **secondary error** when it is right there but
wrong in its own computed context (the mistake is inherited from an
earlier one).  Results are broken down by interpretation kind and by
the point-of-view operation the gold labels say the sentence performs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

from .engine import Engine
from .corpus import Document
from .model import (
    Characters,
    Interpretation,
    PRIVATE_SOA_TYPES,
    SceneBreak,
    Sentence,
)


class PovOperation(Enum):
    CONTINUATION = "continuation"
    RESUMPTION = "resumption"
    INITIATION = "initiation"
    OBJECTIVE = "objective"


def _operation(interpretation: Interpretation,
               previous: Interpretation | None,
               last_subjective: Characters | None) -> PovOperation:
    """The operation rule.  ``previous`` is the gold label of the
    sentence before in the scene, and ``last_subjective`` the characters
    of the scene's last gold-subjective sentence; None when the scene
    has none."""
    if not interpretation.subjective:
        return PovOperation.OBJECTIVE
    target = interpretation.characters
    if previous is not None and previous.subjective:
        return (PovOperation.CONTINUATION if previous.characters == target
                else PovOperation.INITIATION)
    return (PovOperation.RESUMPTION if last_subjective == target
            else PovOperation.INITIATION)


def is_simple_quoted_speech(sentence: Sentence) -> bool:
    """Quoted speech carrying nothing the tracker could react to: no
    potential subjective elements, and no subordinated clause about a
    private state or private-state action."""
    fs = sentence.features
    if not fs.quoted_speech or fs.pses:
        return False
    # the main clause is about an action: FeatureSet requires it
    return all(c.soa.type not in PRIVATE_SOA_TYPES for c in fs.clauses)


@dataclass
class ErrorCase:
    sentence_id: str
    gold: Interpretation
    got: Interpretation

    def to_dict(self) -> dict:
        return {"id": self.sentence_id,
                "gold": _interp_dict(self.gold),
                "got": _interp_dict(self.got)}


@dataclass
class BreakdownRow:
    label: str
    actual: int = 0
    primary: int = 0
    wrong: Counter = field(default_factory=Counter)

    def to_dict(self) -> dict:
        return {"label": self.label, "actual": self.actual,
                "primary": self.primary, "incorrect": dict(self.wrong)}


@dataclass
class EvalReport:
    sentences: int
    primary: list[ErrorCase]
    secondary: list[ErrorCase]
    simple_quoted: int
    by_interpretation: list[BreakdownRow]
    by_operation: list[BreakdownRow]

    @property
    def primary_count(self) -> int:
        return len(self.primary)

    @property
    def secondary_count(self) -> int:
        return len(self.secondary)

    def to_dict(self) -> dict:
        return {
            "sentences": self.sentences,
            "simple_quoted_speech": self.simple_quoted,
            "primary": {"count": self.primary_count,
                        "cases": [c.to_dict() for c in self.primary]},
            "secondary": {"count": self.secondary_count,
                          "cases": [c.to_dict() for c in self.secondary]},
            "by_interpretation": [r.to_dict() for r in self.by_interpretation],
            "by_operation": [r.to_dict() for r in self.by_operation],
        }

    def render(self) -> str:
        lines = [
            f"Sentences evaluated: {self.sentences}",
            f"Simple quoted speech: {self.simple_quoted}",
            f"Primary errors: {self.primary_count} "
            f"({_pct(self.primary_count, self.sentences)}%)",
            f"Secondary errors: {self.secondary_count} "
            f"({_pct(self.secondary_count, self.sentences)}%)",
            "",
        ]
        lines += _render_table("Results by interpretation",
                               "interpretation", self.by_interpretation,
                               self.sentences)
        lines.append("")
        lines += _render_table("Results by point-of-view operation",
                               "operation", self.by_operation, self.sentences)
        if self.secondary:
            lines.append("")
            lines.append("Secondary error cases")
            lines.append("---------------------")
            for case in self.secondary:
                lines.append(f"  {case.sentence_id}: gold "
                             f"{_interp_text(case.gold)}, got "
                             f"{_interp_text(case.got)}")
        return "\n".join(lines) + "\n"


def evaluate(document: Document, engine: Engine | None = None) -> EvalReport:
    """Run both folds and build the full report, in one linear pass.

    Every sentence must carry a gold label.  Each sentence's operation
    is classified from scene state carried along the walk.
    """
    engine = engine or Engine()
    # each table's rows, in table order; both end with the same subset
    interp_rows = {kind: BreakdownRow(kind)
                   for kind in ("subjective", "objective")}
    op_rows: dict = {op: BreakdownRow(op.value) for op in PovOperation}
    for rows in (interp_rows, op_rows):
        rows["objective-nonquoted"] = BreakdownRow(
            "objective, other than simple quoted speech")

    primary: list[ErrorCase] = []
    secondary: list[ErrorCase] = []
    simple_quoted = 0
    sentence_count = 0

    # the scene state the operation rule reads, carried forward from the
    # gold labels: paragraph breaks leave it alone, a scene break resets it
    previous: Interpretation | None = None
    last_subjective: Characters | None = None

    actual_fold = engine._fold(document.items, document.initial_context,
                               gold=True)
    computed_fold = engine._fold(document.items, document.initial_context,
                                 gold=False)
    for actual, computed in zip(actual_fold, computed_fold):
        item = actual.item
        if actual.interpretation is None:
            if isinstance(item, SceneBreak):
                previous = last_subjective = None
            continue
        sentence_count += 1
        gold = item.gold
        got_actual = actual.interpretation
        got_computed = computed.interpretation
        is_primary = got_actual != gold
        is_secondary = not is_primary and got_computed != gold

        quoted_simple = is_simple_quoted_speech(item)
        simple_quoted += quoted_simple
        operation = _operation(gold, previous, last_subjective)

        irows = [interp_rows[gold.kind]]
        orows = [op_rows[operation]]
        if not gold.subjective and not quoted_simple:
            irows.append(interp_rows["objective-nonquoted"])
            orows.append(op_rows["objective-nonquoted"])
        for row in irows + orows:
            row.actual += 1
        if is_primary:
            primary.append(ErrorCase(item.id, gold, got_actual))
            for row in irows:
                row.primary += 1
                row.wrong[_interp_error_label(gold, got_actual)] += 1
            wrong_op = _operation_error_label(gold, got_actual, previous,
                                              last_subjective)
            for row in orows:
                row.primary += 1
                row.wrong[wrong_op] += 1
        if is_secondary:
            secondary.append(ErrorCase(item.id, gold, got_computed))
        previous = gold
        if gold.subjective:
            last_subjective = gold.characters

    return EvalReport(
        sentences=sentence_count,
        primary=primary,
        secondary=secondary,
        simple_quoted=simple_quoted,
        by_interpretation=list(interp_rows.values()),
        by_operation=list(op_rows.values()),
    )


def _interp_error_label(gold: Interpretation, got: Interpretation) -> str:
    if gold.subjective:
        return ("subjective, wrong character" if got.subjective
                else "objective")
    return "subjective" if got.subjective else "objective, wrong active character"


def _operation_error_label(gold, got, previous, last_subjective) -> str:
    if not got.subjective:
        return ("objective" if gold.subjective
                else "objective, wrong active character")
    return _operation(got, previous, last_subjective).value


def _pct(part: int, whole: int) -> int:
    if whole == 0:
        return 0
    return int(100 * part / whole + 0.5)


def _interp_dict(interp: Interpretation) -> dict:
    return {"type": interp.kind, "characters": sorted(interp.characters)}


def _interp_text(interp: Interpretation) -> str:
    names = ", ".join(sorted(interp.characters)) or "-"
    return f"{interp.kind}({names})"


def _render_table(title, key_header, rows, total) -> list[str]:
    header = [key_header, "actual", "primary errors",
              "incorrect interpretations"]
    body = []
    for row in rows:
        actual = f"{row.actual}/{total} ({_pct(row.actual, total)}%)"
        prim = f"{row.primary}/{row.actual} ({_pct(row.primary, row.actual)}%)"
        wrong = "  ".join(f"{n} {_plural(label, n)}"
                          for label, n in sorted(row.wrong.items())) or "-"
        body.append([row.label, actual, prim, wrong])
    widths = [max(len(header[i]), *(len(r[i]) for r in body))
              for i in range(4)]
    lines = [title, "-" * len(title)]
    lines.append("  ".join(header[i].ljust(widths[i]) for i in range(4)))
    for cells in body:
        lines.append("  ".join(cells[i].ljust(widths[i])
                               for i in range(4)).rstrip())
    return lines


def _plural(label: str, n: int) -> str:
    if n > 1 and label in ("continuation", "resumption", "initiation"):
        return label + "s"
    return label
