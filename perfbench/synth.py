"""Seeded synthetic app models with by-construction expected results.

Standard library only. Every model this module emits is a plain JSON document
that ``scenetg.simulator.parse_app_model`` accepts.

Shape of a generated app:

* ``activities`` activities, all directly launchable; every other one
  requires a typed ICC extra, so direct launch builds real extras.
* Each activity has ``scenes`` scenes arranged as a binary tree: scene ``j``
  is reached from scene ``(j - 1) // 2`` by a tap.  The entry scene also has
  one button that opens the next activity.
* Each scene has ``clickables`` buttons.  The tree links, the cross-activity
  link and ``back_links`` buttons back to the entry scene carry transitions;
  the remaining buttons are dead (tapping them changes nothing).
* ``padding`` text widgets and, when ``rows`` > 0, a ListView with ``rows``
  adapter rows widen every page without adding scenes.
* The entry page holds ``fuzzable`` EditText/CheckBox widgets, so state
  fuzzing replays every activity 2^min(fuzzable, 6) times.
* A ``clear_stack_rate`` share of the tree links clear the back stack, so
  restoring the parent scene needs relaunch-and-replay instead of a
  back-press.

The seed picks names, texts, input types, extra types and button order.  It
never changes the counts, so the expected
``scenes``, ``explored_activities`` and ``transition_pairs`` follow from the
shape alone, and the cost of exploring a model varies little between seeds.
"""

from __future__ import annotations

import copy
import random
import string
from dataclasses import dataclass

_EXTRA_TYPES = ("STRING", "NUMBER", "PHONE", "DATE", "TIME", "EMAIL", "CHAR", "BOOLEAN")
_INPUT_TYPES = ("text", "number", "phone", "date", "time", "email")
_TEXT_LEN = 12
_BUTTON = "android.widget.Button"


@dataclass(frozen=True)
class Shape:
    activities: int
    scenes: int  # per activity
    clickables: int  # buttons per scene
    padding: int = 0  # text widgets per scene
    rows: int = 0  # adapter rows per scene; 0 means no list
    fuzzable: int = 0  # EditText/CheckBox widgets on each entry page
    clear_stack_rate: float = 0.0  # share of tree links that clear the stack
    back_links: int = 0  # non-entry scenes per activity with a button back to the entry

    def __post_init__(self):
        if self.activities < 1 or self.scenes < 1:
            raise ValueError("need at least one activity and one scene")
        # Scene j > 0 needs room for two child links and a back link; the
        # entry scene also carries the cross-activity link.
        if self.clickables < 4:
            raise ValueError("clickables must be >= 4")
        if not 0 <= self.back_links < self.scenes:
            raise ValueError("back_links must be in [0, scenes)")
        if not 0.0 <= self.clear_stack_rate <= 1.0:
            raise ValueError("clear_stack_rate must be in [0, 1]")

    def expected_stats(self) -> dict:
        cross = 1 if self.activities > 1 else 0
        pairs_per_activity = (self.scenes - 1) + cross + self.back_links
        return {
            "explored_activities": self.activities,
            "scenes": self.activities * self.scenes,
            "transition_pairs": self.activities * pairs_per_activity,
        }


def _word(rng: random.Random, n: int = _TEXT_LEN) -> str:
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(n))


def _padding(rng: random.Random, sid: str, count: int) -> list[dict]:
    return [
        {"id": f"{sid}_pad{k}", "class": "android.widget.TextView", "text": _word(rng)}
        for k in range(count)
    ]


def _adapter_list(sid: str, rows: int) -> dict:
    return {
        "id": f"{sid}_list",
        "class": "android.widget.ListView",
        "children": [
            {
                "id": f"{sid}_row",
                "class": "android.widget.LinearLayout",
                "repeat": rows,
                "children": [{"id": f"{sid}_row_text", "class": "android.widget.TextView", "text": "row"}],
            }
        ],
    }


def _fuzzables(rng: random.Random, sid: str, count: int) -> list[dict]:
    widgets = []
    for k in range(count):
        if k % 2 == 0:
            widgets.append(
                {"id": f"{sid}_fz{k}_edit", "class": "android.widget.EditText", "input_type": rng.choice(_INPUT_TYPES)}
            )
        else:
            widgets.append(
                {"id": f"{sid}_fz{k}_check", "class": "android.widget.CheckBox", "checkable": True, "clickable": True}
            )
    return widgets


def generate(shape: Shape, seed: int, tag: str = "synth") -> tuple[dict, dict]:
    """Return ``(model_doc, expected_stats)`` for one seeded app of this shape."""
    rng = random.Random(f"{tag}:{seed}")
    package = f"com.{tag.replace('-', '')}.s{seed}"
    names = [f"A{a}{_word(rng, 6).capitalize()}Activity" for a in range(shape.activities)]
    # Evenly spaced and the same in every activity, so that the replay work
    # does not depend on the seed.
    n_cleared = round(shape.clear_stack_rate * (shape.scenes - 1))
    cleared = {1 + (i * (shape.scenes - 1)) // n_cleared for i in range(n_cleared)}
    activities = []
    for a, name in enumerate(names):
        back_scenes = set(rng.sample(range(1, shape.scenes), shape.back_links))
        scenes = []
        for j in range(shape.scenes):
            # Widget ids are unique per app: equal ids would give scenes of
            # different activities the same structural id.
            sid = f"a{a}s{j}"
            buttons = [{"id": f"{sid}_b{k}", "class": _BUTTON, "clickable": True, "text": _word(rng)}
                       for k in range(shape.clickables)]
            transitions = []
            free = list(range(shape.clickables))
            rng.shuffle(free)
            for child in (2 * j + 1, 2 * j + 2):
                if child < shape.scenes:
                    tr = {"widget": f"{sid}_b{free.pop()}", "target": f"scene:s{child}"}
                    if child in cleared:
                        tr["clear_stack"] = True
                    transitions.append(tr)
            if j == 0 and shape.activities > 1:
                nxt = names[(a + 1) % shape.activities]
                transitions.append({"widget": f"{sid}_b{free.pop()}", "target": f"activity:{nxt}"})
            if j in back_scenes:
                transitions.append({"widget": f"{sid}_b{free.pop()}", "target": "scene:s0"})
            widgets = _padding(rng, sid, shape.padding)
            if j == 0:
                widgets += _fuzzables(rng, sid, shape.fuzzable)
            widgets += buttons
            if shape.rows:
                widgets.append(_adapter_list(sid, shape.rows))
            scenes.append({"name": f"s{j}", "widgets": widgets, "transitions": transitions})
        activity = {"name": name, "scenes": scenes}
        if a % 2 == 1:
            activity["required_extras"] = [[f"k{a}", rng.choice(_EXTRA_TYPES)]]
        activities.append(activity)
    return {"package": package, "activities": activities}, shape.expected_stats()


@dataclass(frozen=True)
class Mutation:
    texts: int  # scenes whose first padding widget gets a new text
    inserts: int  # scenes that gain a text widget
    deletes: int  # scenes that lose their last padding widget
    new_links: int  # dead buttons that start linking back to the entry scene
    cut_links: int  # back links that stop firing


def mutate(doc: dict, mutation: Mutation, seed: int) -> tuple[dict, dict]:
    """Return ``(v2_doc, expected_diff_summary)`` for a seeded edit of ``doc``.

    The edits never add or remove scenes, so every scene keeps its execution
    path and is matched across versions.  Widget edits make the scene a
    ``scene_update``; link edits add or remove exactly one transition pair.
    ``doc`` must come from :func:`generate` with ``padding >= 2``.
    """
    rng = random.Random(f"mutate:{seed}")
    v2 = copy.deepcopy(doc)
    scenes = [(a, j) for a, act in enumerate(v2["activities"]) for j in range(len(act["scenes"]))]

    def scene(key):
        a, j = key
        return v2["activities"][a]["scenes"][j]

    touched = set()
    for key in rng.sample(scenes, mutation.texts):
        pad = scene(key)["widgets"][0]
        pad["text"] = pad["text"][::-1] + "x"
        touched.add(key)
    for key in rng.sample(scenes, mutation.inserts):
        scene(key)["widgets"].append(
            {"id": f"a{key[0]}s{key[1]}_added", "class": "android.widget.TextView", "text": _word(rng)}
        )
        touched.add(key)
    for key in rng.sample(scenes, mutation.deletes):
        widgets = scene(key)["widgets"]
        last_pad = max(i for i, w in enumerate(widgets) if "_pad" in w["id"])
        del widgets[last_pad]
        touched.add(key)

    def is_back_link(tr):
        return tr["target"] == "scene:s0"

    linked = [k for k in scenes if k[1] > 0 and any(is_back_link(t) for t in scene(k)["transitions"])]
    for key in rng.sample(linked, mutation.cut_links):
        scene(key)["transitions"] = [t for t in scene(key)["transitions"] if not is_back_link(t)]
    unlinked = [k for k in scenes if k[1] > 0 and k not in linked]
    for key in rng.sample(unlinked, mutation.new_links):
        used = {t["widget"] for t in scene(key)["transitions"]}
        dead = sorted(
            w["id"] for w in scene(key)["widgets"] if w["class"] == _BUTTON and w["id"] not in used
        )
        scene(key)["transitions"].append({"widget": rng.choice(dead), "target": "scene:s0"})

    summary = {
        "scene_updates": len(touched),
        "added_scenes": 0,
        "removed_scenes": 0,
        "added_pairs": mutation.new_links,
        "removed_pairs": mutation.cut_links,
    }
    return v2, summary
