import random
import shutil
from types import SimpleNamespace

import pytest

from conftest import PKG, make_node, make_tree
from scenetg import diff
from scenetg.cli import EXIT_RUNTIME, main
from scenetg.diff import ChangeKind, RunSnapshot, diff_graphs, diff_trees, match_scenes
from scenetg.layout import serialize_tree

PROXY = "com.fixture.proxy"


def _snapshot(runs, name):
    _, out, _ = runs.run(name)
    return RunSnapshot.load(out)


class TestDiffTrees:
    def test_property_change_detected(self):
        old = make_tree(make_node(children=[make_node(rid="x:id/a", cls="android.widget.TextView", text="v1")]))
        new = make_tree(make_node(children=[make_node(rid="x:id/a", cls="android.widget.TextView", text="v2")]))
        changes = diff_trees(old, new, PKG)
        assert len(changes) == 1
        change = changes[0]
        assert change.kind is ChangeKind.PROPERTY_CHANGED
        assert (change.attribute, change.old, change.new) == ("text", "v1", "v2")

    def test_added_and_deleted_nodes(self):
        old = make_tree(make_node(children=[make_node(rid="x:id/a"), make_node(rid="x:id/b")]))
        new = make_tree(make_node(children=[make_node(rid="x:id/a"), make_node(rid="x:id/c")]))
        kinds = sorted(c.kind.value for c in diff_trees(old, new, PKG))
        # b and c have different ids but pair positionally, so the diff shows
        # the resource_id property change rather than an add/delete pair.
        assert kinds == ["PROPERTY_CHANGED"]
        new2 = make_tree(make_node(children=[make_node(rid="x:id/a")]))
        deleted = diff_trees(old, new2, PKG)
        assert [c.kind for c in deleted] == [ChangeKind.DELETED]
        assert deleted[0].resource_id == "x:id/b"

    def test_alignment_by_rid_beats_position(self):
        old = make_tree(make_node(children=[make_node(rid="x:id/a", text="a"), make_node(rid="x:id/b", text="b")]))
        new = make_tree(make_node(children=[make_node(rid="x:id/b", text="b"), make_node(rid="x:id/a", text="a")]))
        assert diff_trees(old, new, PKG) == []

    def test_adapter_rows_collapse_before_diffing(self):
        def lst(rows):
            return make_tree(
                make_node(
                    rid="x:id/list",
                    cls="android.widget.ListView",
                    children=[make_node(rid="x:id/row") for _ in range(rows)],
                )
            )

        assert diff_trees(lst(1), lst(5), PKG) == []

    def test_foreign_nodes_ignored(self):
        old = make_tree(make_node(children=[make_node(rid="x:id/a")]))
        new = make_tree(
            make_node(children=[make_node(rid="x:id/a"), make_node(package="other.pkg", rid="o:id/b")])
        )
        assert diff_trees(old, new, PKG) == []


def _quadratic_align(old_kids, new_kids):
    """The original O(n*m) child pairing, kept as the reference for `_align`."""
    pairs = []
    used_new = set()
    leftover_old = []
    for old_child in old_kids:
        match = None
        if old_child.resource_id:
            for j, new_child in enumerate(new_kids):
                if j in used_new:
                    continue
                if (new_child.resource_id, new_child.widget_class) == (
                    old_child.resource_id,
                    old_child.widget_class,
                ):
                    match = j
                    break
        if match is None:
            leftover_old.append(old_child)
        else:
            used_new.add(match)
            pairs.append((old_child, new_kids[match], match))
    leftover_new = [(j, c) for j, c in enumerate(new_kids) if j not in used_new]
    fallback = min(len(leftover_old), len(leftover_new))
    for i in range(fallback):
        j, new_child = leftover_new[i]
        pairs.append((leftover_old[i], new_child, j))
    deleted = leftover_old[fallback:]
    added = [(j, c) for j, c in leftover_new[fallback:]]
    pairs.sort(key=lambda p: p[2])
    return pairs, added, deleted


class TestAlign:
    @staticmethod
    def _kids(rng, count):
        # Few keys, so duplicates are common; "" is a child without a resource id.
        return [
            make_node(rid=rng.choice(["", "", "x:id/a", "x:id/b", "x:id/c"]), cls=rng.choice(["A", "B"]))
            for _ in range(count)
        ]

    @staticmethod
    def _positions(result, old_kids, new_kids):
        """The result in list positions, so that equal-valued children stay distinct."""
        pairs, added, deleted = result
        old_at = {id(c): i for i, c in enumerate(old_kids)}
        new_at = {id(c): j for j, c in enumerate(new_kids)}
        return (
            [(old_at[id(o)], new_at[id(n)], j) for o, n, j in pairs],
            [(j, new_at[id(c)]) for j, c in added],
            [old_at[id(c)] for c in deleted],
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_quadratic_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            old_kids, new_kids = self._kids(rng, rng.randrange(12)), self._kids(rng, rng.randrange(12))
            got = self._positions(diff._align(old_kids, new_kids), old_kids, new_kids)
            want = self._positions(_quadratic_align(old_kids, new_kids), old_kids, new_kids)
            assert got == want


class TestMatchScenes:
    def test_entry_scenes_keyed_by_activity(self, runs):
        old = _snapshot(runs, "app06.json")
        new = _snapshot(runs, "app06.json")
        matches, added, removed, ambiguous = match_scenes(old, new)
        assert not added and not removed and not ambiguous
        assert len(matches) == len(old.scenes)
        assert all(old_id == new_id for _, old_id, new_id in matches)


class TestDiffGraphs:
    def test_identical_runs_diff_empty(self, runs):
        report = diff_graphs(_snapshot(runs, "app03.json"), _snapshot(runs, "app03.json"))
        assert report.empty
        assert "no differences" in report.render_text()

    def test_added_drawer_entry(self, runs):
        report = diff_graphs(_snapshot(runs, "drawer_v1.json"), _snapshot(runs, "drawer_v2.json"))
        assert report.summary == {
            "scene_updates": 1,
            "added_scenes": 0,
            "removed_scenes": 0,
            "added_pairs": 0,
            "removed_pairs": 0,
        }
        [update] = report.scene_updates
        assert update.path_key == [["TAP", f"{PROXY}:id/btn_drawer"]]
        [change] = update.changes
        assert change.kind is ChangeKind.ADDED
        assert change.resource_id == f"{PROXY}:id/user_asset_settings"

    def test_added_spinner_options(self, runs):
        report = diff_graphs(_snapshot(runs, "spinner_v1.json"), _snapshot(runs, "spinner_v2.json"))
        [update] = report.scene_updates
        added = {c.resource_id for c in update.changes if c.kind is ChangeKind.ADDED}
        assert added == {f"{PROXY}:id/opt_chacha20_poly1305", f"{PROXY}:id/opt_zero"}
        assert not report.added_pairs and not report.added_scenes

    def test_nested_menu_gains_scene_and_pair(self, runs):
        old = _snapshot(runs, "nested_menu_v1.json")
        new = _snapshot(runs, "nested_menu_v2.json")
        report = diff_graphs(old, new)
        assert len(report.added_scenes) == 1
        assert len(report.added_pairs) == 1
        (src, dst, event, component) = report.added_pairs[0]
        assert event == "TAP" and component == f"{PROXY}:id/btn_restart_services"
        assert dst == report.added_scenes[0]
        [update] = report.scene_updates
        assert update.path_key == [
            ["TAP", f"{PROXY}:id/btn_menu"],
            ["TAP", f"{PROXY}:id/btn_custom_config"],
        ]
        assert not report.removed_scenes and not report.removed_pairs

    def test_reverse_direction_reports_removals(self, runs):
        report = diff_graphs(_snapshot(runs, "nested_menu_v2.json"), _snapshot(runs, "nested_menu_v1.json"))
        assert len(report.removed_scenes) == 1 and len(report.removed_pairs) == 1
        assert not report.added_scenes and not report.added_pairs

    def test_to_json_shape(self, runs):
        report = diff_graphs(_snapshot(runs, "drawer_v1.json"), _snapshot(runs, "drawer_v2.json"))
        doc = report.to_json()
        assert set(doc) == {
            "scene_updates",
            "added_scenes",
            "removed_scenes",
            "transition_pair_updates",
            "ambiguous_matches",
            "summary",
        }
        assert doc["scene_updates"][0]["activity"] == "MainActivity"
        assert doc["transition_pair_updates"] == {"added": [], "removed": []}


def _layout(out, sid):
    return out / "layouts" / f"{sid}.xml"


class TestDiffReadsEveryLayout:
    """Every stored layout is checked, so a malformed one fails the diff wherever it is."""

    @pytest.fixture(scope="class")
    def menus(self, runs):
        v1, v2 = runs.run("nested_menu_v1.json")[1], runs.run("nested_menu_v2.json")[1]
        matches, [added], _, _ = match_scenes(RunSnapshot.load(v1), RunSnapshot.load(v2))
        same = [
            (o, n)
            for _, o, n in matches
            if _layout(v1, o).read_bytes() == _layout(v2, n).read_bytes()
        ]
        assert same, "nested_menu has no byte-identical matched pair"
        return v1, v2, added, same[0]

    @pytest.mark.parametrize(
        "case", ["unmatched-in-old", "unmatched-in-new", "identical-in-old", "identical-in-new"]
    )
    def test_malformed_layout_fails_the_diff(self, menus, case, tmp_path, capsys):
        v1, v2, added, (same_old, same_new) = menus
        old, new = tmp_path / "old", tmp_path / "new"
        if case == "unmatched-in-old":  # the added scene seen from the reverse diff
            shutil.copytree(v2, old)
            shutil.copytree(v1, new)
            bad = _layout(old, added)
        else:
            shutil.copytree(v1, old)
            shutil.copytree(v2, new)
            bad = {
                "unmatched-in-new": _layout(new, added),
                "identical-in-old": _layout(old, same_old),
                "identical-in-new": _layout(new, same_new),
            }[case]
        bad.write_text("<hierarchy><node class='c'", encoding="utf-8")
        code = main(["diff", "--old", str(old), "--new", str(new), "--out", str(tmp_path / "d.json")])
        assert code == EXIT_RUNTIME
        assert "malformed hierarchy dump" in capsys.readouterr().err


class TestDiffWorkCounts:
    @pytest.fixture
    def spies(self, monkeypatch):
        checked, built, diffed = [], [], []
        real_check, real_parse, real_diff = diff.check_hierarchy_dump, diff.parse_hierarchy_dump, diff.diff_trees

        def check(text):
            checked.append(text)
            return real_check(text)

        def parse(text, activity):
            tree = real_parse(text, activity)
            built.append(tree)
            return tree

        def diff_trees_spy(old, new, package):
            diffed.append((old, new))
            return real_diff(old, new, package)

        monkeypatch.setattr(diff, "check_hierarchy_dump", check)
        monkeypatch.setattr(diff, "parse_hierarchy_dump", parse)
        monkeypatch.setattr(diff, "diff_trees", diff_trees_spy)
        return checked, built, diffed

    def test_self_diff_checks_each_layout_once_and_builds_no_tree(self, runs, spies):
        checked, built, diffed = spies
        _, out, _ = runs.run("app03.json")
        report = diff_graphs(RunSnapshot.load(out), RunSnapshot.load(out))
        assert report.empty
        layouts = sorted(p.read_text(encoding="utf-8") for p in (out / "layouts").glob("*.xml"))
        assert sorted(checked) == layouts
        assert built == []
        assert diffed == []

    def test_only_the_changed_drawer_pair_is_tree_diffed(self, runs, spies):
        _, built, diffed = spies
        report = diff_graphs(_snapshot(runs, "drawer_v1.json"), _snapshot(runs, "drawer_v2.json"))
        assert len(diffed) == 1
        assert len(built) == 2
        assert diffed[0][0] is built[0] and diffed[0][1] is built[1]
        assert {tree.source_activity for tree in built} == {report.scene_updates[0].activity}
        assert len(report.scene_updates[0].changes) == 1

    def test_a_text_changed_under_two_activities_is_built_for_each(self, spies, tmp_path):
        checked, built, _ = spies
        text = serialize_tree(make_tree(make_node(rid="x:id/root")))
        snapshot = SimpleNamespace(
            directory=tmp_path,
            scenes=[
                {"id": "s1", "activity": "A", "layout_ref": "layouts/s1.xml"},
                {"id": "s2", "activity": "B", "layout_ref": "layouts/s2.xml"},
            ],
            layouts={"s1": text, "s2": text},
        )
        trees = diff._read_layouts({("A", text), ("B", text)}, snapshot)
        assert sorted(trees) == [("A", text), ("B", text)]
        assert [tree.source_activity for tree in built] == ["A", "B"]
        assert checked == []
