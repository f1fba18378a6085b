"""Human-readable step-by-step traces of a tracking run.

The renderer turns the steps produced by ``Engine.track`` into a fixed,
byte-stable line grammar: situation before, expected characters,
elements considered and which of them counted, how a private-state
action was read, competition between expected characters, the verdict,
and the situation after.  Character sets print sorted and joined with
"and" so output never depends on set iteration order.
"""

from __future__ import annotations

from .engine import TrackStep
from .model import (
    ESCAPE_SEPARATORS,
    Characters,
    ParagraphBreak,
    Sentence,
    SoaType,
    TextSituation,
)

# the sentence head escapes a backslash too, so no two texts print alike
_HEAD_ESCAPES = {**ESCAPE_SEPARATORS, ord("\\"): "\\\\"}
# why a private-state action was read as an action, by detail.action_reason
_WHY_ACTION = {
    "never-subjective": "has not been a subjective character",
    "not-significant": "lacks a significant previous subjective context",
}


def names(characters: Characters) -> str:
    return " and ".join(sorted(characters))


def render_step(step: TrackStep) -> list[str]:
    if isinstance(step.item, Sentence):
        return _render_sentence(step)
    kind = "paragraph" if isinstance(step.item, ParagraphBreak) else "scene"
    return [
        f"--- {kind} break",
        "Before the break:",
        f"    The situation is {step.before.situation.short}",
        "After the break:",
        f"    The situation is {step.after.situation.short}",
    ]


def _render_sentence(step: TrackStep) -> list[str]:
    item: Sentence = step.item
    fs = item.features
    detail = step.detail
    before, after = step.before, step.after

    head = f"--- {item.id}"
    if item.text:
        # escaped, the head stays one line that no reader takes for a verdict
        head += f": {item.text.translate(_HEAD_ESCAPES)}"
    lines = [head, "At the beginning of this sentence:",
             f"    The situation is {before.situation.short}"]
    lines += _expected_lines(before)

    if fs.pses:
        considered = [p.category.name for p in fs.pses]
        fired = [p.category.name for p in detail.fired]
        if len(considered) == 1:
            lines += ["Potential subjective element considered:",
                      f"    {considered[0]}", "It is a subjective element"
                      if fired else "It is not a subjective element"]
        else:
            lines.append("Potential subjective elements considered:")
            lines += [f"    {c}" for c in considered]
            if len(fired) == len(considered):
                lines.append("All of these are subjective elements")
            elif not fired:
                lines.append("None of these is a subjective element")
            else:
                lines.append("Of these, the following are subjective "
                             "elements:")
                lines += [f"    {c}" for c in fired]

    if detail.chosen.type is SoaType.PRIVATE_STATE_ACTION:
        actor = names(detail.chosen.who) or "an unspecified actor"
        reading = ("a private state" if detail.reads_private else
                   f"an action: actor {_WHY_ACTION[detail.action_reason]}")
        lines.append(f"Private-state action of {actor} treated as {reading}")

    interpretation = step.interpretation
    if interpretation.subjective:
        excluded = [p.category.name for p in detail.fired
                    if p not in detail.considerable]
        if excluded:
            lines.append("Not considered in identifying the subjective "
                         "character:")
            lines += [f"    {c}" for c in excluded]
        lines += _trigger_lines(step)
        if detail.sc_source.startswith("competition-"):
            lines.append("Competition between the last_subj_char and the "
                         "last_active_char")
            lines.append("Choosing the last_subj_char because the sentence "
                         "is about the last_active_char"
                         if detail.sc_source == "competition-last-sc"
                         else "Choosing the last_active_char")
        if interpretation.characters:
            lines.append(f"The subj_char is {names(interpretation.characters)}")
        else:
            lines.append("WARNING: the sentence is subjective but no "
                         "subjective character can be identified")
    else:
        if interpretation.characters:
            lines.append(f"{names(interpretation.characters)} is the "
                         "active_char of this sentence")
        lines.append("The sentence is not subjective")

    word = "still" if after.situation is before.situation else "now"
    lines.append(f"The situation is {word} {after.situation.short}")
    return lines


def _expected_lines(context) -> list[str]:
    entries = []
    if context.situation.sc_expected and context.last_sc:
        entries.append(f"        {names(context.last_sc)}, the last_subj_char")
    if context.situation.active_expected and context.last_active_character:
        entries.append(f"        {names(context.last_active_character)}, "
                       "the last_active_char")
    if not entries:
        return ["    There are no expected subjective characters"]
    header = ("    Expected subjective character:" if len(entries) == 1
              else "    Expected subjective characters:")
    return [header] + entries


def _trigger_lines(step: TrackStep) -> list[str]:
    detail = step.detail
    continued = step.before.situation is TextSituation.CONTINUING_SUBJECTIVE
    verb = "continued" if continued else "established"
    trigger = detail.trigger
    if trigger == "parenthetical":
        subject = names(step.item.features.parenthetical)
        return [f"Subjective context {verb} by the narrative parenthetical "
                f"of {subject}"]
    if trigger == "elements":
        firing = detail.considerable or detail.fired
        noun = "this feature" if len(firing) == 1 else "these features"
        return ([f"Subjective context {verb} by {noun}:"]
                + [f"    {p.category.name}" for p in firing])
    if trigger == "private-state":
        who = names(detail.chosen.who) or "an unspecified experiencer"
        return [f"Subjective context {verb} by this feature:",
                f"    private state of {who}"]
    if trigger == "private-state-action":
        who = names(detail.chosen.who)
        return [f"Subjective context {verb} by this feature:",
                f"    private-state action of {who}"]
    return ["Nonprivate-state sentence in the continuing-subj situation"]


def render_trace(steps: list[TrackStep]) -> str:
    blocks = ["\n".join(render_step(step)) for step in steps]
    return "\n\n".join(blocks) + "\n" if blocks else ""


def interpretation_line(step: TrackStep) -> str:
    """One tab-separated verdict line: id, SUBJECTIVE/OBJECTIVE, characters."""
    interpretation = step.interpretation
    kind = "SUBJECTIVE" if interpretation.subjective else "OBJECTIVE"
    return f"{step.item.id}\t{kind}\t{','.join(sorted(interpretation.characters))}"
