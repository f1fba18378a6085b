"""Seeded corpus generators for the benchmark.

Each generator takes a seed and returns a document as a JSON-ready
dict; ``encode`` turns it into the bytes ``povtrack`` reads.  The same
seed always gives byte-identical bytes.  Gold labels come from each
generator's own rule; the engine is never run to produce them.

* ``novel``    tiles the twelve bundled fixtures.
* ``ensemble`` is a large cast in long, mostly objective scenes.
* ``dense``    is a small cast in sentences of 10-40 clauses.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Categories of the built-in registry (see povtrack.model); the level-4
# ones are subjective in every situation.
LEVEL4 = ("exclamation", "question")
CATEGORIES = (
    "past-perfective", "progressive", "habitual", "exclamation", "question",
    "eval-adjective", "eval-noun", "eval-adverb", "obligation-modal",
    "minimizer", "lack-of-knowledge", "sentence-fragment", "kinship-term",
    "evidential-certainty", "evidential-evidence", "hedge",
    "expectation-met", "expectation-unmet", "conjunct",
    "conditional-clause", "comparative-like", "percept-term",
    "seeming-verb", "attitude-noun", "as-plus-modifier",
    "degree-intensifier",
)
SOA_TYPES = ("private-state-action", "action", "private-state",
             "nonprivate-state")
VP_FLAGS = ("simplePast", "negated", "habitual", "modal", "pastPerfective",
            "progressive")

# Workload sizes.  One repetition of the five operations takes about
# three seconds on a 2-core 2.1 GHz VM, so a 30-second run holds about
# ten; see NOTES.md.
NOVEL_SENTENCES = 3_000
ENSEMBLE_SENTENCES = 2_400
ENSEMBLE_CAST = 1_400
ENSEMBLE_SCENE_SENTENCES = 1_200
ENSEMBLE_INTRODUCTIONS = 220
DENSE_SENTENCES = 400
DENSE_CAST = 6

SCENE_BREAK = {"kind": "scene-break"}
PARAGRAPH_BREAK = {"kind": "paragraph-break"}

_SYLLABLES = ("ka", "lo", "mi", "ren", "tas", "vel", "dor", "an", "is", "ul",
              "bri", "co", "fen", "gar", "hal", "jo", "ny", "pe", "qui", "sor")


def encode(document: dict) -> bytes:
    """The document's canonical bytes: compact, key order as built."""
    return json.dumps(document, ensure_ascii=False,
                      separators=(",", ":")).encode("utf-8")


def _names(rng: random.Random, count: int) -> list[str]:
    seen: set[str] = set()
    out: list[str] = []
    while len(out) < count:
        name = "".join(rng.choice(_SYLLABLES)
                       for _ in range(rng.randint(2, 4))).capitalize()
        if name not in seen:
            seen.add(name)
            out.append(name)
    return out


def _sentence(sid: str, soas: list, clauses: list, pses: list,
              gold: tuple[bool, list[str]], **extra) -> dict:
    features = {"quotedSpeech": extra.pop("quoted", False)}
    features.update(extra)
    features.update(soas=soas, clauses=clauses, pses=pses)
    return {"kind": "sentence", "id": sid,
            "gold": {"type": "subjective" if gold[0] else "objective",
                     "characters": sorted(gold[1])},
            "features": features}


def _simple(sid, soa_type, who, vp, pses=(), gold=(False, ())) -> dict:
    return _sentence(sid, [{"id": "a1", "type": soa_type, "who": list(who)}],
                     [{"id": "c1", "soa": "a1", "under": [], "vp": vp}],
                     list(pses), gold)


# ---------------------------------------------------------------------------
# novel


def fixture_paths(fixture_dir: Path) -> list[Path]:
    return sorted(Path(fixture_dir).glob("*.json"))


def novel(seed: int, fixture_dir: Path) -> tuple[dict, int]:
    """Every fixture, in sorted order, tiled until about
    ``NOVEL_SENTENCES``.

    A scene break separates fixtures and tiles.  Sentence ids are
    renamed per tile (``<tag>/<fixture>/<id>``, the tag drawn from the
    seed); character names stay the same, so every tile after the first
    starts with the same characters already subjective.  Returns the
    document and its tile count.
    """
    rng = random.Random(seed)
    fixtures = [(p.stem, json.loads(p.read_bytes()))
                for p in fixture_paths(fixture_dir)]
    per_tile = sum(1 for _, doc in fixtures for item in doc["items"]
                   if item["kind"] == "sentence")
    tiles = max(2, round(NOVEL_SENTENCES / per_tile))
    roster = sorted({name for _, doc in fixtures for name in doc["roster"]})
    items: list[dict] = []
    for tile in range(tiles):
        tag = "".join(rng.choice(_SYLLABLES)
                      for _ in range(rng.randint(1, 3))) + str(tile)
        for stem, doc in fixtures:
            if items:
                items.append(SCENE_BREAK)
            for item in doc["items"]:
                if item["kind"] == "sentence":
                    item = dict(item, id=f"{tag}/{stem}/{item['id']}")
                items.append(item)
    return {"title": f"novel {seed}", "roster": roster, "items": items}, tiles


# ---------------------------------------------------------------------------
# ensemble


def _balanced(rng: random.Random, values, count: int) -> list:
    """``count`` values cycling through ``values``, in shuffled order, so
    that every seed gets the same mix."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def ensemble(seed: int) -> dict:
    """A large cast in long scenes that are mostly gold-objective.

    Each scene opens with ``ENSEMBLE_INTRODUCTIONS`` private-state
    sentences, one per paragraph, each bringing in one to four new
    characters as joint experiencers; every tenth is followed by a
    private-state action of a character introduced earlier.  The rest of the scene is a long
    objective stretch: 10% nonprivate states, 8% private-state actions
    of characters never introduced, and actions by anyone in the cast,
    two in five of them carrying a question or exclamation.  The tracker
    reads those as subjective in every situation; the gold label says
    objective.  The mix is the same for every seed; the seed picks the
    names, the order and who acts.

    Gold rule: an introduction is subjective of its new characters; a
    private-state action is subjective of its actor once that actor has
    been introduced; every other sentence is objective, with the actor
    as active character when the actor has been introduced and the
    verb is a simple past.
    """
    sentences, scene_sentences = ENSEMBLE_SENTENCES, ENSEMBLE_SCENE_SENTENCES
    introductions = ENSEMBLE_INTRODUCTIONS
    rng = random.Random(seed)
    names = _names(rng, ENSEMBLE_CAST)
    scenes = -(-sentences // scene_sentences)
    groups = _balanced(rng, (1, 2, 3, 4), scenes * introductions)
    strangers = names[sum(groups):]  # never introduced
    fresh = 0
    introduced: list[str] = []
    known: set[str] = set()
    items: list[dict] = []
    count = 0

    def add(soa_type, who, vp, pses=(), gold=(False, ())) -> None:
        nonlocal count
        items.append(_simple(f"e{count}", soa_type, who, vp, pses, gold))
        count += 1

    for scene in range(scenes):
        if items:
            items.append(SCENE_BREAK)
        scene_start = count
        for k in range(introductions):
            group = names[fresh:fresh + groups[scene * introductions + k]]
            fresh += len(group)
            add("private-state", group, {"simplePast": True},
                gold=(True, group))
            introduced += group
            known.update(group)
            items.append(PARAGRAPH_BREAK)
            if k % 10 == 9:
                actor = rng.choice(introduced)
                add("private-state-action", [actor], {"simplePast": True},
                    gold=(True, [actor]))
                items.append(PARAGRAPH_BREAK)
        stretch = min(scene_sentences - (count - scene_start),
                      sentences - count)
        kinds = _balanced(rng, ("nonprivate",) * 10 + ("stranger",) * 8
                          + ("action",) * 49 + ("level4",) * 33, stretch)
        for kind in kinds:
            if kind == "nonprivate":
                add("nonprivate-state", [], {"simplePast": True})
            elif kind == "stranger":
                add("private-state-action", [rng.choice(strangers)],
                    {"simplePast": True})
            else:
                actor = rng.choice(names)
                pses = ([{"id": "p1", "category": rng.choice(LEVEL4),
                          "under": []}] if kind == "level4" else [])
                past = rng.random() < 0.8
                active = [actor] if past and actor in known else []
                add("action", [actor],
                    {"simplePast": past, "negated": not past},
                    pses, gold=(False, active))
            if rng.random() < 0.2:
                items.append(PARAGRAPH_BREAK)
    return {"title": f"ensemble {seed}", "roster": names, "items": items}


# ---------------------------------------------------------------------------
# dense


def dense(seed: int) -> dict:
    """A small cast in long sentences of 10-40 clauses.

    Each sentence has one state of affairs per clause, of random type and
    actor; the clauses form a chain, a fan, or a random tree under the
    main clause (a few with two parents), listed in shuffled order.
    Every sentence has 2-6 elements; some have a private-state head
    noun, a narrative parenthetical, or quoted speech.  Clause counts,
    shapes and element counts are spread evenly, so every seed gets the
    same total.

    Gold rule: a parenthetical makes the sentence subjective of its
    subject; otherwise a private-state main clause with an experiencer
    makes it subjective of the experiencer; otherwise it is objective,
    with the main actor as active character when that actor has been
    subjective before and the main verb is a simple past.
    """
    sentences = DENSE_SENTENCES
    rng = random.Random(seed)
    names = _names(rng, DENSE_CAST)
    sizes = _balanced(rng, range(10, 41), sentences)
    shapes = _balanced(rng, ("chain", "fan", "tree"), sentences)
    element_counts = _balanced(rng, range(2, 7), sentences)
    subjective_so_far: set[str] = set()
    items: list[dict] = []
    for i in range(sentences):
        if i and i % 100 == 0:
            items.append(SCENE_BREAK)
        elif i and rng.random() < 0.25:
            items.append(PARAGRAPH_BREAK)
        n, shape = sizes[i], shapes[i]
        quoted = rng.random() < 0.1
        soas, clauses = [], []
        for j in range(n):
            soa_type = ("action" if j == 0 and quoted
                        else rng.choice(SOA_TYPES))
            who = rng.sample(names, rng.choice((0, 1, 1, 1, 2)))
            soas.append({"id": f"a{j}", "type": soa_type, "who": sorted(who)})
            if j == 0:
                under = []
            elif shape == "chain":
                under = [f"c{j - 1}"]
            elif shape == "fan":
                under = ["c0"]
            else:
                parents = {rng.randrange(j)}
                if j > 1 and rng.random() < 0.1:
                    parents.add(rng.randrange(j))
                under = [f"c{p}" for p in sorted(parents)]
            vp = {flag: True for flag in VP_FLAGS if rng.random() < 0.25}
            clauses.append({"id": f"c{j}", "soa": f"a{j}", "under": under,
                            "vp": vp})
        main_soa, main_vp = soas[0], clauses[0]["vp"]
        rng.shuffle(clauses)
        extra: dict = {"quoted": quoted}
        if not quoted and rng.random() < 0.15:
            soas.append({"id": "hn", "type": "private-state",
                         "who": sorted(rng.sample(names, 1))})
            extra["headNounPrivateState"] = "hn"
        if rng.random() < 0.05:
            extra["parenthetical"] = sorted(rng.sample(names,
                                                       rng.randint(1, 2)))
        pses = []
        for k in range(element_counts[i]):
            under = sorted(f"c{rng.randrange(n)}"
                           for _ in range(rng.choice((0, 0, 1, 2))))
            pses.append({"id": f"p{k}", "category": rng.choice(CATEGORIES),
                         "under": sorted(set(under))})

        who = main_soa["who"]
        if "parenthetical" in extra:
            gold = (True, extra["parenthetical"])
        elif main_soa["type"] == "private-state" and who:
            gold = (True, who)
        elif (main_soa["type"] == "action" and main_vp.get("simplePast")
              and who and set(who) <= subjective_so_far):
            gold = (False, who)
        else:
            gold = (False, [])
        if gold[0]:
            subjective_so_far.update(gold[1])
        items.append(_sentence(f"d{i}", soas, clauses, pses, gold, **extra))
    return {"title": f"dense {seed}", "roster": sorted(names), "items": items}
