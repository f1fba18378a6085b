"""Context transitions.

Two pure functions advance the tracking context: one after a sentence
has been interpreted, one after a paragraph or scene break.  Each reads
the next situation from the current one's row (``TextSituation``), and
returns the incoming context itself when nothing changes.
"""

from __future__ import annotations

from .model import (
    Context,
    Interpretation,
    InputItem,
    ParagraphBreak,
    SceneBreak,
    TextSituation,
    grow,
)

_TS = TextSituation


def new_context(interpretation: Interpretation, context: Context) -> Context:
    """Context after a sentence with the given interpretation."""
    who = interpretation.characters
    if interpretation.subjective:
        previous = context.previous_scs
        # steps share one set, or log, until someone new becomes subjective
        if not previous.issuperset(who):
            previous = grow(previous, who)
        elif (context.situation is _TS.CONTINUING_SUBJECTIVE
              and who == context.last_sc):
            return context
        return Context(who, context.last_active_character, previous,
                       _TS.CONTINUING_SUBJECTIVE)
    situation = (context.situation.after_active if who
                 else context.situation.after_objective)
    active = who or context.last_active_character
    if (situation is context.situation
            and active == context.last_active_character):
        return context
    return Context(context.last_sc, active, context.previous_scs, situation)


def new_context_after_break(item: InputItem, context: Context) -> Context:
    """Context after a paragraph or scene break.

    Only the situation changes; the remembered character sets survive.
    """
    if isinstance(item, SceneBreak):
        situation = _TS.PRESUBJECTIVE_NONACTIVE
    elif isinstance(item, ParagraphBreak):
        situation = context.situation.after_break
    else:
        raise TypeError(f"not a break item: {item!r}")
    if situation is context.situation:
        return context
    return Context(context.last_sc, context.last_active_character,
                   context.previous_scs, situation)
