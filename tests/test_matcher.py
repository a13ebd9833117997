"""One matcher: `NodeIndex.match`, `match_component` and the simulator's `_resolve`
pick the node a plain breadth-first scan of the tree picks, on seeded random trees."""

import random
from collections import deque

import pytest

from conftest import PKG, make_node, make_tree
from scenetg.errors import SelectorNotFound
from scenetg.icc import IccMessage
from scenetg.layout import Bounds, NodeIndex, Selector, bfs_nodes, match_component
from scenetg.simulator import parse_app_model, simulate

FOREIGN = "com.android.systemui"
CLASSES = (
    "android.widget.Button",
    "android.widget.TextView",
    "android.widget.EditText",
    "android.widget.CheckBox",
    "android.widget.LinearLayout",
    "android.widget.ListView",
    "androidx.recyclerview.widget.RecyclerView",
)
RIDS = ("", "", f"{PKG}:id/a", f"{PKG}:id/b", f"{PKG}:id/c", "x:id/d")
BOUNDS = (Bounds(0, 0, 10, 10), Bounds(0, 10, 10, 20), Bounds(0, 0, 1080, 1920))


def _reference_match(tree, selector, package):
    """The first node of a breadth-first scan, foreign-package subtrees left out, that has every field the selector gives."""
    if tree.root.package != package:
        return None
    queue = deque([tree.root])
    while queue:
        node = queue.popleft()
        if (
            (selector.resource_id is None or node.resource_id == selector.resource_id)
            and (selector.widget_class is None or node.widget_class == selector.widget_class)
            and (selector.bounds is None or node.bounds == selector.bounds)
        ):
            return node
        queue.extend(child for child in node.children if child.package == package)
    return None


def _random_node(rng, depth):
    kids = [_random_node(rng, depth + 1) for _ in range(rng.randint(0, 4 if depth < 3 else 0))]
    return make_node(
        rid=rng.choice(RIDS),
        cls=rng.choice(CLASSES),
        package=FOREIGN if rng.random() < 0.15 else PKG,
        bounds=rng.choice(BOUNDS),
        children=kids,
    )


def _random_tree(rng):
    root = _random_node(rng, 0)
    root.package = FOREIGN if rng.random() < 0.05 else PKG
    return make_tree(root)


def _selectors(rng, nodes):
    """Every kind of selector, built from the tree's own nodes (foreign ones too) and from values no node has."""
    for node in nodes:
        yield Selector(resource_id=node.resource_id)
        yield Selector(widget_class=node.widget_class, bounds=node.bounds)
        yield Selector(resource_id=node.resource_id, widget_class=node.widget_class)
        yield Selector(resource_id=node.resource_id, widget_class=rng.choice(CLASSES), bounds=rng.choice(BOUNDS))
        yield Selector(widget_class=node.widget_class)
        yield Selector(bounds=node.bounds)
    yield Selector(resource_id="nope")
    yield Selector(widget_class=CLASSES[0], bounds=Bounds(1, 1, 2, 2))


def test_index_and_match_component_pick_what_a_full_scan_picks():
    rng = random.Random(20261018)
    seen = dict.fromkeys(("past the first id", "tie", "foreign hit", "miss"), 0)
    for _ in range(300):
        tree = _random_tree(rng)
        index = NodeIndex(tree, PKG)
        nodes = list(tree.root.iter_subtree())
        for selector in _selectors(rng, nodes):
            want = _reference_match(tree, selector, PKG)
            assert index.match(selector) is want, selector
            assert match_component(tree, selector, PKG) is want, selector
            hits = [n for n in nodes if selector.matches(n)]
            seen["miss"] += want is None
            seen["tie"] += selector.bounds is not None and selector.resource_id is None and len(hits) > 1
            seen["foreign hit"] += any(n.package != PKG for n in hits)
            first = index.by_rid.get(selector.resource_id)
            seen["past the first id"] += want is not None and first is not None and first is not want
    assert all(seen.values()), seen  # every case the index treats apart occurred


def test_index_order_is_bfs_nodes_and_by_rid_its_first_node_per_id():
    rng = random.Random(7)
    for _ in range(50):
        tree = _random_tree(rng)
        index = NodeIndex(tree, PKG)
        assert index.order == bfs_nodes(tree, PKG)
        for rid, node in index.by_rid.items():
            assert node is next(n for n in index.order if n.resource_id == rid)
        assert set(index.by_rid) == {n.resource_id for n in index.order}


def test_index_of_a_foreign_root_matches_nothing():
    tree = make_tree(make_node(rid="x:id/a", package=FOREIGN))
    assert NodeIndex(tree, PKG).match(Selector(resource_id="x:id/a")) is None


def _random_widget(rng, ids, depth):
    wid = "" if "" not in ids and rng.random() < 0.1 else f"w{len(ids)}"
    ids.add(wid)
    cls = rng.choice(CLASSES)
    widget = {"id": wid, "class": cls, "repeat": rng.choice((1, 1, 1, 0, 2, 3))}
    if rng.random() < 0.4:
        widget["rid"] = rng.choice(("a", "b", "c"))  # a resource id that several widgets render
    if cls.endswith("CheckBox"):
        widget["checkable"] = widget["clickable"] = True
        widget["checked"] = rng.random() < 0.5
    if depth < 2 and rng.random() < 0.4:
        widget["children"] = [_random_widget(rng, ids, depth + 1) for _ in range(rng.randint(1, 3))]
    return widget


def _random_model(rng):
    ids = set()
    widgets = [_random_widget(rng, ids, 0) for _ in range(rng.randint(1, 6))]
    checkable = sorted(w["id"] for w in widgets if w.get("checkable"))
    for widget in widgets:
        if checkable and rng.random() < 0.2:
            widget["visible_when"] = {"widget": rng.choice(checkable), "checked": rng.random() < 0.5}
    scene = {"name": "entry", "widgets": widgets}
    return parse_app_model({"package": PKG, "activities": [{"name": "MainActivity", "scenes": [scene]}]})


@pytest.mark.parametrize("seed", range(4))
def test_simulator_resolves_the_widget_behind_the_scanned_node(seed):
    rng = random.Random(seed)
    for _ in range(40):
        driver = simulate(_random_model(rng))
        assert driver.launch_activity(IccMessage("MainActivity")).success
        page = driver._current_page()
        nodes = list(page.tree.root.iter_subtree())
        for selector in _selectors(rng, nodes):
            # None when nothing matches, and for the root frame, which no widget owns.
            want = page.owners.get(id(_reference_match(page.tree, selector, PKG)))
            if want is None:
                with pytest.raises(SelectorNotFound):
                    driver._resolve(driver._top(), selector)
            else:
                assert driver._resolve(driver._top(), selector) is want, selector
