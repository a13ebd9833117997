"""The work an explore does, counted rather than timed: renders per distinct page
state, walks (`bfs_nodes` calls) per tree object on each side of the driver
contract, and tap selectors built per session."""

import sys
from collections import Counter
from pathlib import Path

import pytest

from scenetg import ExplorationConfig, benchmark_path, engine, explore, identity, layout
from scenetg.simulator import SimulatorSession, load_app_model, parse_app_model, simulate

PKG = "com.fixture.work"
CONFIGS = {  # the four configs the golden lock covers
    "default": {},
    "enable_fuzzing=False": {"enable_fuzzing": False},
    "enable_indirect=False": {"enable_indirect": False},
    "enable_scene_id=False": {"enable_scene_id": False},
}


def _side(frame) -> str:
    """The side of the driver contract whose code, innermost first, made the call in `frame`."""
    while frame is not None:
        name = frame.f_globals.get("__name__")
        if name in ("scenetg.simulator", "scenetg.engine"):
            return name
        frame = frame.f_back
    return "elsewhere"


def _count_walks(monkeypatch) -> Counter:
    """Walks from now on, by (side, tree object, collapse mode); every walked tree is kept alive so no id is reused."""
    walks = Counter()
    held = []
    bfs_nodes = layout.bfs_nodes

    def counted(tree, target_package, collapse_adapters=False):
        walks[_side(sys._getframe(1)), id(tree), collapse_adapters] += 1
        held.append(tree)
        return bfs_nodes(tree, target_package, collapse_adapters)

    monkeypatch.setattr(layout, "bfs_nodes", counted)
    monkeypatch.setattr(identity, "bfs_nodes", counted)
    return walks


def _count_renders(monkeypatch) -> list:
    renders = []
    render = SimulatorSession._render

    def counted(self, frame):
        renders.append((frame.instance.model.name, frame.scene.name))
        return render(self, frame)

    monkeypatch.setattr(SimulatorSession, "_render", counted)
    return renders


def _replay_shaped_model():
    """One activity of four scenes: the entry page holds four fuzzable widgets and links
    to s1 and s2, s1 links to s3, and two of the three links clear the back stack."""

    def buttons(scene, links):
        return [{"id": f"{scene}_b{k}", "class": "android.widget.Button", "clickable": True} for k in range(4)], [
            {"widget": f"{scene}_b{k}", "target": f"scene:{target}", **({"clear_stack": True} if clear else {})}
            for k, (target, clear) in enumerate(links)
        ]

    fuzzable = [
        {"id": "ed_0", "class": "android.widget.EditText", "input_type": "text"},
        {"id": "cb_1", "class": "android.widget.CheckBox", "checkable": True, "clickable": True},
        {"id": "ed_2", "class": "android.widget.EditText", "input_type": "number"},
        {"id": "cb_3", "class": "android.widget.CheckBox", "checkable": True, "clickable": True},
    ]
    scenes = []
    for name, links in (("s0", [("s1", True), ("s2", False)]), ("s1", [("s3", True)]), ("s2", []), ("s3", [])):
        widgets, transitions = buttons(name, links)
        scenes.append({"name": name, "widgets": (fuzzable if name == "s0" else []) + widgets, "transitions": transitions})
    return parse_app_model({"package": PKG, "activities": [{"name": "MainActivity", "scenes": scenes}]})


def test_replay_shape_renders_each_page_state_once_and_walks_each_tree_once(monkeypatch):
    model = _replay_shaped_model()
    renders = _count_renders(monkeypatch)
    walks = _count_walks(monkeypatch)
    result = explore(model, simulate(model), ExplorationConfig())
    assert result.report["stats"]["scenes"] == 4
    # 2^4 states of the entry page; s1-s3 show none of the fuzzed widgets, so each renders once.
    assert Counter(scene for _, scene in renders) == {"s0": 16, "s1": 1, "s2": 1, "s3": 1}
    assert len(renders) == 16 + 3
    assert max(walks.values()) == 1
    assert {side for side, _, _ in walks} == {"scenetg.simulator", "scenetg.engine"}


@pytest.mark.parametrize("label", sorted(CONFIGS))
def test_each_tree_is_walked_at_most_once_per_side_and_collapse_mode(label, monkeypatch):
    walks = _count_walks(monkeypatch)
    for path in sorted(Path(str(benchmark_path("app01.json"))).parent.glob("*.json")):
        model = load_app_model(path)
        explore(model, simulate(model), ExplorationConfig(**CONFIGS[label]))
    assert walks, "no walk was counted"
    assert {side for side, _, _ in walks} <= {"scenetg.simulator", "scenetg.engine"}
    twice = [key for key, count in walks.items() if count > 1]
    assert twice == []


def test_each_tap_selector_is_built_once_per_session(monkeypatch):
    built = {}  # model file -> the key of every tap selector the explorer built
    selector_for = engine._selector_for

    def counted(node):
        if sys._getframe(1).f_code.co_name == "_selector":  # the explorer's tap list, not fuzzing
            built[name].append(node.resource_id or (node.widget_class, node.bounds))
        return selector_for(node)

    monkeypatch.setattr(engine, "_selector_for", counted)
    for path in sorted(Path(str(benchmark_path("app01.json"))).parent.glob("*.json")):
        name = path.name
        built[name] = []
        model = load_app_model(path)
        explore(model, simulate(model), ExplorationConfig())
        assert len(built[name]) == len(set(built[name])), name
    # palette's 20 colour buttons recur on each of the 21 states of its one scene, each state a new tree.
    assert len(built["palette.json"]) == 20
