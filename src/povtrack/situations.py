"""Context transitions and expectation predicates.

Two pure functions advance the tracking context: one after a sentence
has been interpreted, one after a paragraph or scene break.  Each
returns the incoming context itself when nothing changes.  The
expectation predicates say which of the two remembered characters (last
subjective character, last active character) a subjective sentence may
fall back to in the current situation.
"""

from __future__ import annotations

from .model import (
    Context,
    Interpretation,
    InputItem,
    ParagraphBreak,
    SceneBreak,
    TextSituation,
)

_TS = TextSituation

# Situation after an objective sentence, keyed by the situation before
# and whether the sentence has an active character.  A subjective
# sentence always leads to continuing-subjective.
_AFTER_OBJECTIVE = {
    (_TS.PRESUBJECTIVE_NONACTIVE, True): _TS.PRESUBJECTIVE_ACTIVE,
    (_TS.CONTINUING_SUBJECTIVE, True): _TS.INTERRUPTED_SUBJECTIVE,
    (_TS.CONTINUING_SUBJECTIVE, False): _TS.INTERRUPTED_SUBJECTIVE,
    (_TS.BROKEN_SUBJECTIVE, True): _TS.POSTSUBJECTIVE_ACTIVE,
    (_TS.BROKEN_SUBJECTIVE, False): _TS.POSTSUBJECTIVE_NONACTIVE,
    (_TS.POSTSUBJECTIVE_NONACTIVE, True): _TS.POSTSUBJECTIVE_ACTIVE,
}

# Situation after a paragraph break.  A scene break always leads to
# presubjective-nonactive, cancelling every expectation.
_AFTER_PARAGRAPH_BREAK = {
    _TS.PRESUBJECTIVE_ACTIVE: _TS.PRESUBJECTIVE_NONACTIVE,
    _TS.CONTINUING_SUBJECTIVE: _TS.BROKEN_SUBJECTIVE,
    _TS.INTERRUPTED_SUBJECTIVE: _TS.POSTSUBJECTIVE_NONACTIVE,
    _TS.POSTSUBJECTIVE_ACTIVE: _TS.POSTSUBJECTIVE_NONACTIVE,
}


def new_context(interpretation: Interpretation, context: Context) -> Context:
    """Context after a sentence with the given interpretation.

    Situations missing from the tables above stay as they are.
    """
    who = interpretation.characters
    if interpretation.subjective:
        previous = context.previous_scs
        # steps share one set until someone new becomes subjective
        if not who <= previous:
            previous = previous | who
        elif (context.situation is _TS.CONTINUING_SUBJECTIVE
              and who == context.last_sc):
            return context
        return Context(who, context.last_active_character, previous,
                       _TS.CONTINUING_SUBJECTIVE)
    situation = _AFTER_OBJECTIVE.get((context.situation, bool(who)),
                                     context.situation)
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
        situation = _AFTER_PARAGRAPH_BREAK.get(context.situation,
                                               context.situation)
    else:
        raise TypeError(f"not a break item: {item!r}")
    if situation is context.situation:
        return context
    return Context(context.last_sc, context.last_active_character,
                   context.previous_scs, situation)


def last_subjective_character_expected(context: Context) -> bool:
    """True once a subjective sentence has appeared in the current scene."""
    return context.situation not in (_TS.PRESUBJECTIVE_NONACTIVE,
                                     _TS.PRESUBJECTIVE_ACTIVE)


def last_active_character_expected(context: Context) -> bool:
    """True when an active character appeared earlier in the paragraph
    and no subjective sentence has appeared since."""
    return context.situation in (_TS.PRESUBJECTIVE_ACTIVE,
                                 _TS.POSTSUBJECTIVE_ACTIVE)
