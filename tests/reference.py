"""A slow, literal tracker: the rules as the README states them, and the
oracle that ``test_reference.py`` checks the engine against.  It shares
only the model and the two step records with the engine.  The situation
table is an if-chain, with each situation's level and expectations as
literals; the state of affairs is chosen by scanning every clause; each
character's subjective record is kept per significance policy; every
character set is a plain frozenset; and a sentence's point-of-view
operation is found by scanning back through its scene.  It resumes from
a context alone, as the engine does: then, under a stricter policy,
nobody qualifies until a sentence of the resumed pass makes them."""

from dataclasses import dataclass

from povtrack.engine import InterpretationDetail, TrackStep
from povtrack.model import (Context, Interpretation, NOBODY, ParagraphBreak,
                            SceneBreak, Sentence, SoaType, TextSituation)

PRE_NONACTIVE = TextSituation.PRESUBJECTIVE_NONACTIVE
PRE_ACTIVE = TextSituation.PRESUBJECTIVE_ACTIVE
CONTINUING = TextSituation.CONTINUING_SUBJECTIVE
BROKEN = TextSituation.BROKEN_SUBJECTIVE
INTERRUPTED = TextSituation.INTERRUPTED_SUBJECTIVE
POST_NONACTIVE = TextSituation.POSTSUBJECTIVE_NONACTIVE
POST_ACTIVE = TextSituation.POSTSUBJECTIVE_ACTIVE
PRIVATE = (SoaType.PRIVATE_STATE, SoaType.PRIVATE_STATE_ACTION)
NONQUOTED = "objective, other than simple quoted speech"
# what a primary error's verdict is counted as in the table by
# interpretation, by whether the gold label and the verdict are subjective
WRONG = {(True, True): "subjective, wrong character",
         (True, False): "objective",
         (False, True): "subjective",
         (False, False): "objective, wrong active character"}


def fires(category_level, situation):
    """Whether an element of a category of this level is subjective here:
    level 4 always, level 3 whenever some character is expected, level 2
    also just after a paragraph break or an interruption, level 1 only
    inside a running subjective context."""
    if category_level == 4:
        return True
    if category_level == 3:
        return situation is not PRE_NONACTIVE
    if category_level == 2:
        return situation in (CONTINUING, BROKEN, INTERRUPTED)
    return situation is CONTINUING


def next_situation(situation, item, label):
    if isinstance(item, SceneBreak):
        return PRE_NONACTIVE
    if isinstance(item, ParagraphBreak):
        if situation in (PRE_NONACTIVE, PRE_ACTIVE):
            return PRE_NONACTIVE
        if situation in (CONTINUING, BROKEN):
            return BROKEN
        return POST_NONACTIVE
    if label.subjective:
        return CONTINUING
    if situation in (CONTINUING, INTERRUPTED):
        return INTERRUPTED
    if situation in (PRE_ACTIVE, POST_ACTIVE):
        return situation
    if situation is PRE_NONACTIVE:
        return PRE_ACTIVE if label.characters else PRE_NONACTIVE
    return POST_ACTIVE if label.characters else POST_NONACTIVE


def next_context(context, item, label):
    """A subjective label makes its characters the last subjective ones
    and adds them to those ever subjective; an objective one with an
    active character makes it the last active one; a break changes only
    the situation."""
    last_sc, active = context.last_sc, context.last_active_character
    previous = context.previous_scs
    if label is not None and label.subjective:
        last_sc, previous = label.characters, previous | label.characters
    elif label is not None and label.characters:
        active = label.characters
    return Context(last_sc, active, previous,
                   next_situation(context.situation, item, label))


def reads_private(soa, qualified):
    """A private state always reads as one; a private-state action does
    when it names its actors and every one of them is qualified."""
    if soa.type is SoaType.PRIVATE_STATE:
        return True
    return (soa.type is SoaType.PRIVATE_STATE_ACTION and bool(soa.who)
            and soa.who <= qualified)


def main_clause(features):
    return next(clause for clause in features.clauses if not clause.under)


def choose(features, qualified):
    """The state of affairs the sentence is about, and whether it reads as
    a private state: the main clause's, if it does; else the head noun's
    private state; else the first subordinated clause's, in annotation
    order, that does and is under no clause about a private state or a
    private-state action; else the main clause's."""
    main = main_clause(features).soa
    if reads_private(main, qualified):
        return main, True
    if features.head_noun_private_state is not None:
        return features.head_noun_private_state, True
    for clause in features.clauses:
        under_private = any(other.id in clause.under and other.soa.type in
                            PRIVATE for other in features.clauses)
        if (clause.under and not under_private
                and reads_private(clause.soa, qualified)):
            return clause.soa, True
    return main, False


def clause_of(features, soa):
    """None for the head noun's state of affairs; else the main clause if
    it is about it, or the first clause that is."""
    if soa is features.head_noun_private_state:
        return None
    main = main_clause(features)
    return main if main.soa is soa else next(
        clause for clause in features.clauses if clause.soa is soa)


def active_character(chosen, clause, previous):
    """The actor of an actual current action (an action or private-state
    action, in the simple past, not negated, habitual or modal), if
    every one of them has been subjective."""
    if (chosen.type in (SoaType.ACTION, SoaType.PRIVATE_STATE_ACTION)
            and chosen.who and clause is not None and clause.vp.simple_past
            and not clause.vp.negated and not clause.vp.habitual
            and not clause.vp.modal and chosen.who <= previous):
        return chosen.who
    return NOBODY


def identify(features, context, chosen, private, considerable):
    """The subjective character and where they came from."""
    if features.parenthetical is not None:
        return features.parenthetical, "parenthetical"
    who, situation = chosen.who, context.situation
    # mid-context, only a strict narrowing or broadening of the point of
    # view may come from the experiencer
    if who and private and not considerable and (
            situation is not CONTINUING or who < context.last_sc
            or who > context.last_sc):
        return who, "experiencer"
    # the last subjective character is expected once the scene has had a
    # subjective sentence, and the last active one after an active
    # character in the paragraph with no subjective sentence since
    last_sc = situation not in (PRE_NONACTIVE, PRE_ACTIVE)
    active = situation in (PRE_ACTIVE, POST_ACTIVE)
    if last_sc and active:
        if who == context.last_active_character:
            return context.last_sc, "competition-last-sc"
        return context.last_active_character, "competition-last-active"
    if last_sc:
        return context.last_sc, "last-sc"
    if active:
        return context.last_active_character, "last-active"
    return NOBODY, "failed"


def interpret(features, context, qualified, policy):
    """A sentence's verdict and decision record, as ``Engine.interpret``."""
    chosen, private = choose(features, qualified)
    situation = context.situation
    fired = tuple(pse for pse in features.pses
                  if fires(pse.category.level, situation))
    clause = clause_of(features, chosen)
    considerable = tuple(
        pse for pse in fired
        if (clause is None or clause.id not in pse.under)
        and not pse.category.excluded)
    reason = None
    if chosen.type is SoaType.PRIVATE_STATE_ACTION and not private:
        reason = ("never-subjective" if policy == "any-previous-sc"
                  else "not-significant")
    if features.parenthetical is not None:
        trigger = "parenthetical"
    elif considerable:
        trigger = "elements"
    elif chosen.type is SoaType.PRIVATE_STATE:
        trigger = "private-state"
    elif private:
        trigger = "private-state-action"
    elif fired:
        trigger = "elements"
    elif chosen.type is SoaType.NONPRIVATE_STATE and situation is CONTINUING:
        trigger = "continuing-nonprivate"
    else:
        active = active_character(chosen, clause, context.previous_scs)
        return (Interpretation(False, active), InterpretationDetail(
            chosen, private, fired, considerable, None, None, reason))
    who, source = identify(features, context, chosen, private, considerable)
    return (Interpretation(True, who), InterpretationDetail(
        chosen, private, fired, considerable, trigger, source, reason))


@dataclass
class Record:
    """What a character's subjective sentences have shown so far; each
    flag only ever turns on."""

    subjective: bool = False
    # some subjective sentence of theirs had no parenthetical, and its
    # state of affairs did not read as private: a represented thought
    thought: bool = False
    element: bool = False  # some subjective sentence of theirs had one fire
    longest_run: int = 0  # of consecutive subjective sentences

    def significant(self, policy):
        if policy == "any-previous-sc":
            return self.subjective
        if policy == "contains-represented-thought":
            return self.thought
        if policy == "contains-subjective-element":
            return self.element
        return self.longest_run >= 2


def fold(items, context, policy, gold=False):
    """``Engine._fold``'s steps under the policy named ``policy``, the
    context advanced from each gold label when ``gold`` is set."""
    context = Context(context.last_sc, context.last_active_character,
                      frozenset(context.previous_scs), context.situation)
    records = {name: Record(subjective=True) for name in context.previous_scs}
    runs = {}  # each character's run up to the item just before
    steps = []
    for item in items:
        verdict = detail = label = None
        ongoing = {}
        if isinstance(item, Sentence):
            qualified = frozenset(name for name, record in records.items()
                                  if record.significant(policy))
            verdict, detail = interpret(item.features, context, qualified,
                                        policy)
            label = item.gold if gold else verdict
            for name in label.characters if label.subjective else ():
                record = records.setdefault(name, Record())
                record.subjective = True
                record.thought |= (item.features.parenthetical is None
                                   and not detail.reads_private)
                record.element |= bool(detail.fired)
                ongoing[name] = runs.get(name, 0) + 1
                record.longest_run = max(record.longest_run, ongoing[name])
        runs = ongoing
        after = next_context(context, item, label)
        steps.append(TrackStep(item, context, after, verdict, detail))
        context = after
    return steps


def operation(items, index, label=None):
    """The point-of-view operation that ``label``, by default the gold
    label of ``items[index]``, performs there.  An objective label is
    "objective".  Else the scan goes back through the scene's gold
    labels (paragraph breaks are invisible; a scene break ends it) to the
    nearest subjective one: of the same characters, it makes a
    "continuation" when it is the sentence just before, and a
    "resumption" when it is earlier; otherwise, or when there is none,
    an "initiation"."""
    label = label or items[index].gold
    if not label.subjective:
        return "objective"
    nearest = True
    for item in reversed(items[:index]):
        if isinstance(item, SceneBreak):
            break
        if not isinstance(item, Sentence):
            continue
        if item.gold.subjective:
            if item.gold.characters != label.characters:
                break
            return "continuation" if nearest else "resumption"
        nearest = False
    return "initiation"


def evaluate(items, context, policy):
    """``evaluate(...).to_dict()`` for a stream whose every sentence has
    a gold label, from ``context``: a primary error is a wrong verdict in
    the gold-advanced fold, a secondary one a right verdict there and a
    wrong one in the verdict-advanced fold."""
    tables = [{label: {"label": label, "actual": 0, "primary": 0,
                       "incorrect": {}} for label in labels}
              for labels in (("subjective", "objective", NONQUOTED),
                             ("continuation", "resumption", "initiation",
                              "objective", NONQUOTED))]
    cases = {"primary": [], "secondary": []}
    quoted = 0
    steps = zip(fold(items, context, policy, gold=True),
                fold(items, context, policy))
    for index, (actual, computed) in enumerate(steps):
        item = actual.item
        if not isinstance(item, Sentence):
            continue
        gold, got = item.gold, actual.interpretation
        # quoted speech with no element and no clause about a private
        # state or a private-state action
        features = item.features
        simple = features.quoted_speech and not features.pses and all(
            clause.soa.type not in PRIVATE for clause in features.clauses)
        quoted += simple
        rows = (["subjective" if gold.subjective else "objective"],
                [operation(items, index)])
        if not gold.subjective and not simple:
            rows[0].append(NONQUOTED)
            rows[1].append(NONQUOTED)
        errors = (None, None)
        if got != gold:
            cases["primary"].append(case(item.id, gold, got))
            wrong = WRONG[gold.subjective, got.subjective]
            errors = (wrong, operation(items, index, got) if got.subjective
                      else wrong)
        elif computed.interpretation != gold:
            cases["secondary"].append(
                case(item.id, gold, computed.interpretation))
        for table, labels, error in zip(tables, rows, errors):
            for label in labels:
                row = table[label]
                row["actual"] += 1
                if error is not None:
                    row["primary"] += 1
                    counts = row["incorrect"]
                    counts[error] = counts.get(error, 0) + 1
    return {"sentences": sum(isinstance(item, Sentence) for item in items),
            "simple_quoted_speech": quoted,
            **{key: {"count": len(found), "cases": found}
               for key, found in cases.items()},
            "by_interpretation": list(tables[0].values()),
            "by_operation": list(tables[1].values())}


def case(sentence_id, gold, got):
    return {"id": sentence_id, **{key: {
        "type": "subjective" if label.subjective else "objective",
        "characters": sorted(label.characters)}
        for key, label in (("gold", gold), ("got", got))}}
