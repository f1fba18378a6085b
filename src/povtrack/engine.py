"""The sentence interpreter and the document-level tracking fold.

For each sentence the engine picks one state of affairs to consider,
decides whether the sentence is subjective, and either identifies the
subjective character (from the sentence when possible, otherwise from
the expected characters the context supplies) or computes the active
character of an objective sentence.

A private-state action (looking, sighing, frowning) is the delicate
case: it is read as a private state only when its actor already has a
qualifying subjective past, otherwise as an ordinary action.  What
counts as "qualifying" is the significance policy; the default accepts
any actor who has ever been a subjective character.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .model import (
    Characters,
    Context,
    FeatureSet,
    InputItem,
    Interpretation,
    NOBODY,
    PRIVATE_SOA_TYPES,
    Pse,
    Sentence,
    SoaType,
    StateOfAffairs,
    TextSituation,
    ValidationError,
    INITIAL_CONTEXT,
)
from .situations import (
    last_active_character_expected,
    last_subjective_character_expected,
    new_context,
    new_context_after_break,
)


class SignificancePolicy(Enum):
    """When has a character's subjective past been significant enough for
    their private-state actions to read as private states?"""

    ANY_PREVIOUS_SC = "any-previous-sc"
    CONTAINS_REPRESENTED_THOUGHT = "contains-represented-thought"
    CONTAINS_SUBJECTIVE_ELEMENT = "contains-subjective-element"
    MIN_LENGTH_2 = "min-length-2"


_SP = SignificancePolicy


@dataclass(frozen=True)
class InterpretationDetail:
    """Everything the engine decided about one sentence, each part once;
    the trace and the fold read it."""

    chosen: StateOfAffairs
    reads_private: bool  # a private state, or a psa treated as one
    fired: tuple[Pse, ...]  # elements subjective in this situation
    considerable: tuple[Pse, ...]  # fired, minus subordinated/excluded
    trigger: str | None  # what made the sentence subjective
    sc_source: str | None  # where the subjective character came from
    # why a chosen private-state action reads as an action:
    # "never-subjective" or "not-significant"
    action_reason: str | None


@dataclass(frozen=True)
class TrackStep:
    item: InputItem
    before: Context
    after: Context
    interpretation: Interpretation | None  # None for breaks
    detail: InterpretationDetail | None


class Engine:
    """Interprets sentences under a significance policy.  Each element
    carries its category, resolved when the document was parsed."""

    def __init__(self, *,
                 policy: SignificancePolicy = SignificancePolicy.ANY_PREVIOUS_SC):
        self.policy = policy

    # -- state-of-affairs selection ------------------------------------

    def treat_as_private_state(self, soa: StateOfAffairs,
                               qualified: Characters) -> bool:
        """Whether a state of affairs reads as a private state here.

        A private state always does.  A private-state action does when
        its actors are all *qualified*: their subjective past is
        significant under the policy.
        """
        if soa.type is SoaType.PRIVATE_STATE:
            return True
        return (soa.type is SoaType.PRIVATE_STATE_ACTION
                and bool(soa.who) and soa.who <= qualified)

    def choose_state_of_affairs(self, fs: FeatureSet, qualified: Characters
                                ) -> tuple[StateOfAffairs, bool]:
        """Pick the single state of affairs the sentence is taken to be
        about, and whether it reads as a private state.

        Preference order: a private-state (or private-state-reading
        action) main clause, then a private-state head noun, then the
        first subordinated clause about a private state that is not
        itself under such a clause, then the main clause regardless.
        """
        soas = {soa.id: soa for soa in fs.soas}
        main = soas[fs.main.soa]
        if self.treat_as_private_state(main, qualified):
            return main, True
        if fs.head_noun_private_state is not None:
            return soas[fs.head_noun_private_state], True
        private_clauses = {c.id for c in fs.clauses
                           if soas[c.soa].type in PRIVATE_SOA_TYPES}
        # ties broken by annotation order, so runs are reproducible
        for clause in fs.clauses:
            if clause is fs.main or clause.under & private_clauses:
                continue
            soa = soas[clause.soa]
            if self.treat_as_private_state(soa, qualified):
                return soa, True
        return main, False

    # -- subjective elements -------------------------------------------

    def subjective_elements(self, fs: FeatureSet, context: Context
                            ) -> tuple[Pse, ...]:
        """The elements that actually express subjectivity here: those
        whose category is associated with the current situation."""
        return tuple(pse for pse in fs.pses
                     if context.situation in pse.category.situations)

    # -- the decision --------------------------------------------------

    def interpret(self, fs: FeatureSet, context: Context,
                  qualified: Characters
                  ) -> tuple[Interpretation, InterpretationDetail]:
        """Interpret one sentence, keeping the reasoning for the trace.

        Elements are *considerable* when they may serve as evidence that
        the experiencer of the chosen state of affairs is not the
        subjective character: fired, not subordinated to it, and of a
        non-excluded category.
        """
        chosen, private = self.choose_state_of_affairs(fs, qualified)
        fired = self.subjective_elements(fs, context)
        clause = fs.clause_about(chosen.id)
        considerable = tuple(
            pse for pse in fired
            if (clause is None or clause.id not in pse.under)
            and not pse.category.excluded)
        action_reason = None
        if chosen.type is SoaType.PRIVATE_STATE_ACTION and not private:
            action_reason = ("never-subjective"
                             if self.policy is _SP.ANY_PREVIOUS_SC
                             else "not-significant")

        if fs.parenthetical is not None:
            trigger = "parenthetical"
        elif considerable:
            trigger = "elements"
        elif chosen.type is SoaType.PRIVATE_STATE:
            trigger = "private-state"
        elif private:
            trigger = "private-state-action"
        elif fired:
            trigger = "elements"
        elif (chosen.type is SoaType.NONPRIVATE_STATE
              and context.situation is TextSituation.CONTINUING_SUBJECTIVE):
            trigger = "continuing-nonprivate"
        else:
            active = self._active_character(context, chosen, clause)
            return (Interpretation.objective_of(active),
                    InterpretationDetail(chosen, private, fired, considerable,
                                         None, None, action_reason))
        who, source = self._identify(fs, context, chosen, private,
                                     considerable)
        return (Interpretation.subjective_of(who),
                InterpretationDetail(chosen, private, fired, considerable,
                                     trigger, source, action_reason))

    @staticmethod
    def _identify(fs, context, chosen, private, considerable):
        """The subjective character and where it came from: the
        parenthetical subject, or a qualifying experiencer, or else one
        of the expected characters the context supplies."""
        if fs.parenthetical:
            return fs.parenthetical, "parenthetical"
        who = chosen.who
        if who and private and not considerable:
            # mid-context, only a strict narrowing or broadening of the
            # current point of view may come from the experiencer
            if (context.situation is not TextSituation.CONTINUING_SUBJECTIVE
                    or who < context.last_sc or who > context.last_sc):
                return who, "experiencer"
        sc_expected = last_subjective_character_expected(context)
        active_expected = last_active_character_expected(context)
        if sc_expected and active_expected:
            # the last subjective character wins only when the sentence
            # is about the last active character
            if chosen.who == context.last_active_character:
                return context.last_sc, "competition-last-sc"
            return context.last_active_character, "competition-last-active"
        if sc_expected:
            return context.last_sc, "last-sc"
        if active_expected:
            return context.last_active_character, "last-active"
        return NOBODY, "failed"

    @staticmethod
    def _active_character(context, chosen, clause) -> Characters:
        """The actor of an objective sentence about an actual current
        action, provided the actor has been a subjective character.  A
        private-state action chosen here reads as an ordinary action;
        ``clause`` is the chosen state of affairs' clause."""
        who = chosen.who
        if (chosen.type not in (SoaType.ACTION, SoaType.PRIVATE_STATE_ACTION)
                or not who or not who <= context.previous_scs
                or clause is None):
            return NOBODY
        vp = clause.vp
        if vp.simple_past and not vp.negated and not vp.habitual and not vp.modal:
            return who
        return NOBODY

    # -- the fold --------------------------------------------------------

    def track(self, items, initial_context: Context = INITIAL_CONTEXT
              ) -> list[TrackStep]:
        """Fold the interpreter over an item stream.

        A failed identification is reported as a subjective sentence
        with an empty character set; downstream consumers surface it as
        a warning.
        """
        return list(self._fold(items, initial_context, gold=False))

    def track_document(self, document) -> list[TrackStep]:
        return self.track(document.items, document.initial_context)

    def _fold(self, items, context: Context, gold: bool):
        """Yield one step per item, carrying the engine's verdict.

        The context advances from that verdict, or from each sentence's
        gold label when ``gold`` is set, and so does ``qualified``, the
        set of characters whose subjective past is significant under
        the policy.  ``live`` holds the characters of the item just
        before when it was a subjective sentence, so under
        ``min-length-2`` a character qualifies on the second sentence of
        a run.  A subjective label counts as a represented thought when
        nothing in the sentence states the private state outright: no
        narrative parenthetical, and the chosen state of affairs is not
        read as a private state.
        """
        policy = self.policy
        qualified = (context.previous_scs
                     if policy is _SP.ANY_PREVIOUS_SC else NOBODY)
        live = NOBODY
        for item in items:
            interpretation = detail = None
            if isinstance(item, Sentence):
                fs = item.features
                interpretation, detail = self.interpret(fs, context, qualified)
                label = item.gold if gold else interpretation
                if label is None:
                    raise ValidationError(
                        f"sentence {item.id} has no gold label")
                if not label.subjective:
                    live = NOBODY
                else:
                    who = gained = label.characters
                    if policy is _SP.MIN_LENGTH_2:
                        gained = who & live
                    elif policy is _SP.CONTAINS_REPRESENTED_THOUGHT:
                        if detail.reads_private or fs.parenthetical is not None:
                            gained = NOBODY
                    elif policy is _SP.CONTAINS_SUBJECTIVE_ELEMENT:
                        if not detail.fired:
                            gained = NOBODY
                    # steps share one set until someone new qualifies
                    if not gained <= qualified:
                        qualified = qualified | gained
                    live = who
                after = new_context(label, context)
            else:
                after = new_context_after_break(item, context)
                live = NOBODY
            yield TrackStep(item, context, after, interpretation, detail)
            context = after
