import json
import random
from pathlib import Path

import pytest

from conftest import load_benchmark
from scenetg import benchmark_path, simulator
from scenetg.errors import DanglingReference, SchemaError, SelectorNotFound
from scenetg.icc import IccMessage, build_icc
from scenetg.layout import NodeIndex, Selector, parse_hierarchy_dump, serialize_tree
from scenetg.simulator import LaunchReason, load_app_model, parse_app_model, simulate

PKG = "com.fixture.sim"


def sel(wid):
    return Selector(resource_id=f"{PKG}:id/{wid}")


def current_dump(driver):
    """The current page as (xml, activity), the way a device driver receives it."""
    tree = driver.current_tree()
    return serialize_tree(tree), tree.source_activity


def _count_renders(monkeypatch, driver):
    """The frames `driver` renders from now on, one entry per render."""
    renders = []
    render = driver._render

    def counted(frame):
        renders.append(frame)
        return render(frame)

    monkeypatch.setattr(driver, "_render", counted)
    return renders


def _walk_checking_pages(model, rng, cache_size, name):
    """200 seeded random actions; after each, the page served (cached or not) must serialise like a fresh render."""
    driver = simulate(model)
    for _ in range(200):
        if not driver.running or rng.random() < 0.05:
            driver.launch_activity(build_icc(rng.choice(model.activities), 0))
        elif rng.random() < 0.1:
            driver.press_back()
        else:
            node = rng.choice(list(driver.current_tree().root.iter_subtree())[1:] or [None])
            if node is None:
                continue
            if node.resource_id:
                selector = Selector(resource_id=node.resource_id)
            else:
                selector = Selector(widget_class=node.widget_class, bounds=node.bounds)
            action = rng.choice(["tap", "tap", "toggle", "set_text"])
            if action == "set_text":
                driver.set_text(selector, rng.choice(["", "x", "42"]))
            else:
                getattr(driver, action)(selector)
        if driver.running:
            tree = driver.current_tree()
            fresh, _ = driver._render(driver._top())
            assert fresh is not tree, name
            assert tree.source_activity == fresh.source_activity, name
            assert serialize_tree(tree) == serialize_tree(fresh), name
        assert len(driver._pages) <= cache_size


MODEL = {
    "package": PKG,
    "activities": [
        {
            "name": "MainActivity",
            "scenes": [
                {
                    "name": "entry",
                    "widgets": [
                        {"id": "lbl_title", "class": "android.widget.TextView", "text": "home"},
                        {"id": "btn_about", "class": "android.widget.Button", "clickable": True},
                        {"id": "btn_detail", "class": "android.widget.Button", "clickable": True},
                        {"id": "btn_reset", "class": "android.widget.Button", "clickable": True},
                        {"id": "sw_dark", "class": "android.widget.Switch", "checkable": True, "clickable": True},
                        {"id": "ed_name", "class": "android.widget.EditText", "input_type": "text"},
                        {
                            "id": "lbl_hint",
                            "class": "android.widget.TextView",
                            "visible_when": [{"widget": "sw_dark", "checked": True}],
                        },
                        {
                            "id": "list_rows",
                            "class": "android.widget.ListView",
                            "children": [{"id": "row", "class": "android.widget.TextView", "repeat": 3}],
                        },
                    ],
                    "transitions": [
                        {"widget": "btn_about", "target": "scene:about"},
                        {"widget": "btn_detail", "target": "activity:DetailActivity"},
                        {"widget": "btn_reset", "target": "scene:about", "clear_stack": True},
                    ],
                },
                {
                    "name": "about",
                    "widgets": [
                        {"id": "lbl_about", "class": "android.widget.TextView"},
                        {"id": "btn_secret", "class": "android.widget.Button", "clickable": True},
                    ],
                    "transitions": [
                        {
                            "widget": "btn_secret",
                            "target": "scene:secret",
                            "guard": [{"widget": "ed_name", "filled": True}],
                        }
                    ],
                },
                {"name": "secret", "widgets": [{"id": "lbl_secret", "class": "android.widget.TextView"}]},
            ],
        },
        {
            "name": "DetailActivity",
            "scenes": [{"name": "entry", "widgets": [{"id": "lbl_detail", "class": "android.widget.TextView"}]}],
        },
    ],
    "seed_atg": [["MainActivity", "DetailActivity", "TAP", "btn_detail"]],
}


# Each scene reads state that another scene's widgets own: a visibility condition,
# a set_text and an increment name a widget of the other scene, and "empty" shows nothing.
CROSS_SCENE_MODEL = {
    "package": PKG,
    "activities": [
        {
            "name": "MainActivity",
            "scenes": [
                {
                    "name": "entry",
                    "widgets": [
                        {"id": "sw_a", "class": "android.widget.Switch", "checkable": True, "clickable": True},
                        {"id": "ed_a", "class": "android.widget.EditText"},
                        {"id": "lbl_count", "class": "android.widget.TextView", "text": "0"},
                        {
                            "id": "lbl_peek",
                            "class": "android.widget.TextView",
                            "visible_when": [{"widget": "cb_b", "checked": True}],
                        },
                        {
                            "id": "box",
                            "class": "android.widget.LinearLayout",
                            "children": [
                                {
                                    "id": "lbl_nested",
                                    "class": "android.widget.TextView",
                                    "visible_when": [{"widget": "lbl_b", "filled": True}],
                                }
                            ],
                        },
                        {"id": "btn_other", "class": "android.widget.Button", "clickable": True},
                        {"id": "btn_set", "class": "android.widget.Button", "clickable": True},
                        {"id": "btn_inc", "class": "android.widget.Button", "clickable": True},
                    ],
                    "transitions": [
                        {"widget": "btn_other", "target": "scene:other"},
                        {"widget": "btn_set", "set_text": {"widget": "lbl_b", "value": "set"}},
                        {"widget": "btn_inc", "increment": "lbl_taps"},
                    ],
                },
                {
                    "name": "other",
                    "widgets": [
                        {"id": "cb_b", "class": "android.widget.CheckBox", "checkable": True, "clickable": True},
                        {"id": "lbl_b", "class": "android.widget.TextView"},
                        {"id": "lbl_taps", "class": "android.widget.TextView", "text": "0"},
                        {
                            "id": "lbl_gated",
                            "class": "android.widget.TextView",
                            "visible_when": [{"widget": "sw_a", "checked": True}, {"widget": "ed_a", "filled": True}],
                        },
                        {"id": "btn_entry", "class": "android.widget.Button", "clickable": True},
                        {"id": "btn_inc_b", "class": "android.widget.Button", "clickable": True},
                        {"id": "btn_type", "class": "android.widget.Button", "clickable": True},
                        {"id": "btn_empty", "class": "android.widget.Button", "clickable": True},
                    ],
                    "transitions": [
                        {"widget": "btn_entry", "target": "scene:entry"},
                        {"widget": "btn_inc_b", "increment": "lbl_count"},
                        {"widget": "btn_type", "set_text": {"widget": "ed_a", "value": "typed"}, "target": "scene:entry"},
                        {"widget": "btn_empty", "target": "scene:empty"},
                    ],
                },
                {"name": "empty"},
            ],
        }
    ],
}

@pytest.fixture
def driver():
    model = parse_app_model(json.loads(json.dumps(MODEL)))
    driver = simulate(model)
    assert driver.launch_activity(IccMessage("MainActivity")).success
    return driver


class TestModelValidation:
    def test_parses_bundled_models(self):
        for name in ["app01.json", "app10.json", "fig5a.json", "guarded.json"]:
            model = load_benchmark(name)
            assert model.activities

    def test_missing_field_reports_path(self):
        bad = {"package": "p", "activities": [{"scenes": []}]}
        with pytest.raises(SchemaError, match=r"model\.activities\[0\]"):
            parse_app_model(bad)

    def test_activity_needs_entry_scene(self):
        bad = {"package": "p", "activities": [{"name": "A", "scenes": []}]}
        with pytest.raises(SchemaError, match="entry scene"):
            parse_app_model(bad)

    def test_bad_target_kind(self):
        bad = {
            "package": "p",
            "activities": [
                {
                    "name": "A",
                    "scenes": [
                        {
                            "name": "entry",
                            "widgets": [{"id": "b", "class": "c", "clickable": True}],
                            "transitions": [{"widget": "b", "target": "service:X"}],
                        }
                    ],
                }
            ],
        }
        with pytest.raises(SchemaError, match="target"):
            parse_app_model(bad)

    def test_dangling_scene_target(self):
        bad = {
            "package": "p",
            "activities": [
                {
                    "name": "A",
                    "scenes": [
                        {
                            "name": "entry",
                            "widgets": [{"id": "b", "class": "c", "clickable": True}],
                            "transitions": [{"widget": "b", "target": "scene:ghost"}],
                        }
                    ],
                }
            ],
        }
        with pytest.raises(DanglingReference, match="ghost"):
            parse_app_model(bad)

    def test_dangling_seed_atg_activity(self):
        bad = {
            "package": "p",
            "activities": [{"name": "A", "scenes": [{"name": "entry", "widgets": []}]}],
            "seed_atg": [["A", "B", "TAP", "btn"]],
        }
        with pytest.raises(DanglingReference, match="'B'"):
            parse_app_model(bad)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(SchemaError, match="invalid JSON"):
            load_app_model(path)


W = ("activities", 0, "scenes", 0, "widgets")
T = ("activities", 0, "scenes", 0, "transitions")
W_AT = r"model\.activities\[0\]\.scenes\[0\]\.widgets"
T_AT = r"model\.activities\[0\]\.scenes\[0\]\.transitions"

# (field path into MODEL, bad value, expected error path)
BAD_FIELDS = [
    (W + (1, "clickable"), "false", W_AT + r"\[1\]\.clickable"),
    (W + (7, "children", 0, "repeat"), "x", W_AT + r"\[7\]\.children\[0\]\.repeat"),
    (W + (7, "children", 0, "repeat"), -1, W_AT + r"\[7\]\.children\[0\]\.repeat"),
    (W + (7, "children", 0, "repeat"), True, W_AT + r"\[7\]\.children\[0\]\.repeat"),
    (W + (0, "text"), 5, W_AT + r"\[0\]\.text"),
    (W + (0, "rid"), 5, W_AT + r"\[0\]\.rid"),
    (W + (5, "input_type"), 5, W_AT + r"\[5\]\.input_type"),
    (W + (4, "checkable"), "true", W_AT + r"\[4\]\.checkable"),
    (W + (4, "checked"), 1, W_AT + r"\[4\]\.checked"),
    (W + (6, "visible_when", 0, "checked"), "yes", W_AT + r"\[6\]\.visible_when\[0\]\.checked"),
    (T + (2, "clear_stack"), "true", T_AT + r"\[2\]\.clear_stack"),
    (T + (0, "event"), "swipe", T_AT + r"\[0\]\.event"),
    (T + (0, "increment"), 3, T_AT + r"\[0\]\.increment"),
    (("activities", 0, "scenes", 1, "transitions", 0, "guard", 0, "filled"), 1, r"guard\[0\]\.filled"),
    (("activities", 0, "directly_launchable"), "no", r"model\.activities\[0\]\.directly_launchable"),
    (("activities", 0, "declared"), 0, r"model\.activities\[0\]\.declared"),
    (("activities", 0, "scenes", 1), 5, r"model\.activities\[0\]\.scenes\[1\]"),
    (("activities", 1, "required_extras"), [["k", "FLOAT"]], r"model\.activities\[1\]\.required_extras\[0\]"),
    (("activities", 1, "required_extras"), [["k", "STRING"], ["k", "NUMBER"]],
     r"model\.activities\[1\]\.required_extras\[1\]: duplicate extra key 'k'$"),
    (("activities", 1, "name"), "", r"model\.activities\[1\]\.name: must not be empty"),
    (("seed_atg", 0, 2), "SWIPE", r"model\.seed_atg\[0\]\.event"),
    (("activities", 1, "launch_failure"), "OK", r"model\.activities\[1\]\.launch_failure"),
    (("activities", 1, "launch_failure"), ["NOT_EXPORTED"], r"model\.activities\[1\]\.launch_failure"),
    (("activities", 0, "scenes", 1, "widgets", 0, "id"), "lbl_title", r"scenes\[1\]\.widgets\[0\]\.id: duplicate"),
    (("activities", 0, "scenes", 1, "transitions", 0, "guard", 0, "checked"), True, r"transitions\[0\]\.guard\[0\]: "),
    (W + (6, "visble_when"), [{"widget": "sw_dark", "checked": True}], W_AT + r"\[6\]\.visble_when: unknown field"),
    (W + (1, "clikable"), True, W_AT + r"\[1\]\.clikable: unknown field"),
    (T + (0, "targte"), "scene:about", T_AT + r"\[0\]\.targte: unknown field"),
    (("activities", 1, "launch_falure"), "NOT_EXPORTED", r"model\.activities\[1\]\.launch_falure: unknown field"),
    (("seed_atg", 0), {"caller": "MainActivity", "callee": "DetailActivity", "component": "btn_detail", "evnt": "BACK"},
     r"model\.seed_atg\[0\]\.evnt: unknown field"),
]


def _mutated(path, value):
    """A copy of MODEL with the field at `path` set to `value`."""
    doc = json.loads(json.dumps(MODEL))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize("path, value, where", BAD_FIELDS, ids=[f"{p[-1]}={v!r}" for p, v, _ in BAD_FIELDS])
def test_mistyped_field_is_schema_error_naming_path(path, value, where):
    with pytest.raises(SchemaError, match=where):
        parse_app_model(_mutated(path, value))


A0 = "model.activities[0]"
GHOST = {"widget": "ghost", "checked": True}

# (field path into MODEL, bad value, error type, exact message)
BAD_REFERENCES = [
    (T + (0, "widget"), "btn_secret", DanglingReference,
     f"{A0}.scenes[0].transitions[0]: widget 'btn_secret' not in scene 'entry'"),
    (T + (0, "guard"), [GHOST], DanglingReference, f"{A0}.scenes[0].transitions[0].guard: widget 'ghost' not in activity"),
    (T + (0, "set_text"), {"widget": "ghost", "value": "x"}, DanglingReference,
     f"{A0}.scenes[0].transitions[0].set_text: widget 'ghost' not in activity"),
    (T + (0, "increment"), "ghost", DanglingReference,
     f"{A0}.scenes[0].transitions[0].increment: widget 'ghost' not in activity"),
    (W + (7, "children", 0, "visible_when"), [GHOST], DanglingReference,
     f"{A0}.scenes[0]: visible_when of widget 'row' references unknown 'ghost'"),
    (T + (1, "target"), "activity:Ghost", DanglingReference,
     f"{A0}.scenes[0].transitions[1].target: activity 'Ghost' not declared"),
    (("activities", 0, "scenes", 1, "name"), "entry", SchemaError, f"{A0}.scenes[1]: duplicate scene name 'entry'"),
]


@pytest.mark.parametrize(
    "path, value, error, message", BAD_REFERENCES, ids=[f"{p[-1]}={v!r}" for p, v, _, _ in BAD_REFERENCES]
)
def test_bad_reference_is_typed_error_with_exact_message(path, value, error, message):
    with pytest.raises(error) as caught:
        parse_app_model(_mutated(path, value))
    assert type(caught.value) is error and str(caught.value) == message


class TestSession:
    def test_launch_failures(self):
        model = parse_app_model(json.loads(json.dumps(MODEL)))
        driver = simulate(model)
        assert driver.launch_activity(IccMessage("NopeActivity")).reason is LaunchReason.UNDECLARED
        fig = load_benchmark("fig5a.json")
        d2 = simulate(fig)
        assert d2.launch_activity(IccMessage("CalleeActivity")).reason is LaunchReason.NOT_EXPORTED

    def test_dump_is_parseable_and_stable(self, driver):
        raw, activity = current_dump(driver)
        assert activity == "MainActivity"
        tree = parse_hierarchy_dump(raw, activity)
        rids = [n.resource_id for n in tree.root.iter_subtree()]
        assert f"{PKG}:id/btn_about" in rids
        assert raw == current_dump(driver)[0]

    def test_repeat_renders_adapter_rows(self, driver):
        raw, _ = current_dump(driver)
        tree = parse_hierarchy_dump(raw, "MainActivity")
        rows = [n for n in tree.root.iter_subtree() if n.resource_id == f"{PKG}:id/row"]
        assert len(rows) == 3

    def test_repeat_zero_renders_no_copy(self):
        driver = simulate(parse_app_model(_mutated(W + (7, "children", 0, "repeat"), 0)))
        assert driver.launch_activity(IccMessage("MainActivity")).success
        rids = [n.resource_id for n in driver.current_tree().root.iter_subtree()]
        assert f"{PKG}:id/list_rows" in rids and f"{PKG}:id/row" not in rids

    def test_visible_when_gates_rendering(self, driver):
        assert f"{PKG}:id/lbl_hint" not in current_dump(driver)[0]
        driver.toggle(sel("sw_dark"))
        assert f"{PKG}:id/lbl_hint" in current_dump(driver)[0]

    def test_tap_scene_navigation_and_back(self, driver):
        driver.tap(sel("btn_about"))
        raw, activity = current_dump(driver)
        assert activity == "MainActivity" and f"{PKG}:id/lbl_about" in raw
        driver.press_back()
        raw, activity = current_dump(driver)
        assert activity == "MainActivity" and f"{PKG}:id/lbl_title" in raw

    def test_tap_activity_navigation(self, driver):
        driver.tap(sel("btn_detail"))
        assert f"{PKG}:id/lbl_detail" in current_dump(driver)[0]
        assert current_dump(driver)[1] == "DetailActivity"
        driver.press_back()
        assert current_dump(driver)[1] == "MainActivity"

    def test_back_past_root_exits_app(self, driver):
        driver.press_back()
        assert not driver.running

    def test_guarded_transition(self, driver):
        driver.tap(sel("btn_about"))
        driver.tap(sel("btn_secret"))
        assert f"{PKG}:id/lbl_about" in current_dump(driver)[0]
        driver.press_back()
        driver.set_text(sel("ed_name"), "alice")
        driver.tap(sel("btn_about"))
        driver.tap(sel("btn_secret"))
        assert f"{PKG}:id/lbl_secret" in current_dump(driver)[0]

    def test_tap_checkable_toggles(self, driver):
        driver.tap(sel("sw_dark"))
        tree = parse_hierarchy_dump(*current_dump(driver)[::1])
        node = next(n for n in tree.root.iter_subtree() if n.resource_id == f"{PKG}:id/sw_dark")
        assert node.checked

    def test_clear_stack_replaces_history(self, driver):
        driver.tap(sel("btn_about"))
        driver.press_back()
        driver.tap(sel("btn_reset"))
        driver.press_back()
        assert not driver.running

    def test_relaunch_resets_widget_state(self, driver):
        driver.set_text(sel("ed_name"), "alice")
        driver.launch_activity(IccMessage("MainActivity"))
        tree = parse_hierarchy_dump(*current_dump(driver))
        node = next(n for n in tree.root.iter_subtree() if n.resource_id == f"{PKG}:id/ed_name")
        assert node.text == ""

    def test_relaunch_gives_each_instance_fresh_state(self):
        doc = _mutated(T + (0, "increment"), "lbl_title")  # each tap of btn_about counts on lbl_title
        driver = simulate(parse_app_model(doc))

        def rendered(wid):
            return next(n for n in driver.current_tree().root.iter_subtree() if n.resource_id == f"{PKG}:id/{wid}")

        for _ in range(2):  # the second launch must start from the defaults again
            assert driver.launch_activity(IccMessage("MainActivity")).success
            assert rendered("lbl_title").text == "home" and not rendered("sw_dark").checked
            driver.toggle(sel("sw_dark"))
            driver.tap(sel("btn_about"))
            driver.press_back()
            assert rendered("lbl_title").text == "1" and rendered("sw_dark").checked

    def test_returned_tree_is_not_changed_by_later_actions(self, driver):
        tree = driver.current_tree()
        before = serialize_tree(tree)
        actions = [
            lambda: driver.set_text(sel("ed_name"), "alice"),
            lambda: driver.toggle(sel("sw_dark")),
            lambda: driver.tap(sel("btn_about")),
            lambda: driver.press_back(),
        ]
        for act in actions:
            act()
            assert serialize_tree(tree) == before
        assert serialize_tree(driver.current_tree()) != before

    def test_page_is_rendered_once_until_it_changes(self, driver, monkeypatch):
        renders = _count_renders(monkeypatch, driver)
        tree = driver.current_tree()
        assert driver.current_tree() is tree
        driver.tap(sel("lbl_title"))  # no transition, not checkable: a dead tap
        driver.toggle(sel("btn_about"))  # not checkable
        driver.screenshot_ref()
        assert driver.input_type_of(sel("ed_name")) == "text"
        assert driver.launch_activity(IccMessage("NopeActivity")).reason is LaunchReason.UNDECLARED
        assert driver.current_tree() is tree
        assert len(renders) == 1

    def test_each_page_change_renders_anew(self, driver, monkeypatch):
        # A new page state renders once; a revisited one gives back the tree first returned for it.
        renders = _count_renders(monkeypatch, driver)
        changes = [  # (action, the earlier page it returns to, by position in `pages`, or None)
            (lambda: driver.set_text(sel("ed_name"), "alice"), None),
            (lambda: driver.toggle(sel("sw_dark")), None),
            (lambda: driver.tap(sel("sw_dark")), 1),  # a checkable widget without a transition
            (lambda: driver.tap(sel("btn_about")), None),  # fires a transition
            (lambda: driver.press_back(), 1),
            (lambda: driver.launch_activity(IccMessage("MainActivity")), 0),  # a fresh instance
        ]
        pages = [driver.current_tree()]
        for change, revisits in changes:
            change()
            again = driver.current_tree()
            assert again is not pages[-1] and driver.current_tree() is again
            if revisits is None:
                assert all(again is not page for page in pages)
            else:
                assert again is pages[revisits]
            pages.append(again)
        assert len(renders) == 4  # the first page, set_text, toggle and btn_about

    def test_page_cache_drops_the_oldest_page_past_its_bound(self, driver, monkeypatch):
        monkeypatch.setattr(simulator, "PAGE_CACHE_SIZE", 2)
        renders = _count_renders(monkeypatch, driver)
        first = driver.current_tree()
        driver.set_text(sel("ed_name"), "alice")
        named = driver.current_tree()
        driver.toggle(sel("sw_dark"))  # a third page: `first` is dropped
        driver.current_tree()
        assert len(driver._pages) == 2 and len(renders) == 3
        driver.toggle(sel("sw_dark"))  # back to `named`, still cached
        assert driver.current_tree() is named and len(renders) == 3
        assert driver.launch_activity(IccMessage("MainActivity")).success
        again = driver.current_tree()  # the defaults again: rendered anew
        assert again is not first and serialize_tree(again) == serialize_tree(first)
        assert len(driver._pages) == 2 and len(renders) == 4

    @pytest.mark.parametrize("cache_size", [simulator.PAGE_CACHE_SIZE, 2], ids=["bound", "bound-2"])
    def test_cached_page_equals_a_fresh_render(self, cache_size, monkeypatch):
        # Seeded random walks over every bundled model: after each action the page
        # served (cached or not) must serialise like a fresh render of the top frame.
        monkeypatch.setattr(simulator, "PAGE_CACHE_SIZE", cache_size)
        rng = random.Random(20261018)
        for path in sorted(Path(str(benchmark_path("app01.json"))).parent.glob("*.json")):
            _walk_checking_pages(load_app_model(path), rng, cache_size, path.name)

    @pytest.mark.parametrize("cache_size", [simulator.PAGE_CACHE_SIZE, 2], ids=["bound", "bound-2"])
    def test_cached_page_equals_a_fresh_render_across_scenes(self, cache_size, monkeypatch):
        # A page's key reads only the slots its scene shows, so a widget one scene shows
        # and another scene's visibility condition, set_text or increment names must
        # still reach the key of every page it changes.
        monkeypatch.setattr(simulator, "PAGE_CACHE_SIZE", cache_size)
        rng = random.Random(14)
        for _ in range(10):
            _walk_checking_pages(parse_app_model(json.loads(json.dumps(CROSS_SCENE_MODEL))), rng, cache_size, "cross")

    def test_class_and_bounds_selector_honours_bounds(self):
        button = "android.widget.Button"
        doc = {
            "package": PKG,
            "activities": [
                {
                    "name": "MainActivity",
                    "scenes": [
                        {
                            "name": "entry",
                            "widgets": [
                                {"id": "", "class": button, "clickable": True},
                                {"id": "go", "class": button, "clickable": True},
                            ],
                            "transitions": [{"widget": "go", "target": "scene:next"}],
                        },
                        {"name": "next", "widgets": [{"id": "lbl_next", "class": "android.widget.TextView"}]},
                    ],
                }
            ],
        }
        driver = simulate(parse_app_model(doc))
        assert driver.launch_activity(IccMessage("MainActivity")).success
        go = next(n for n in driver.current_tree().root.iter_subtree() if n.resource_id == f"{PKG}:id/go")
        driver.tap(Selector(widget_class=button, bounds=go.bounds))
        assert f"{PKG}:id/lbl_next" in current_dump(driver)[0]

    def test_tap_acts_on_the_node_match_component_picks(self):
        # A Switch nested under lbl_title shares sw_dark's id: it renders first, but BFS reaches sw_dark first.
        nested = {"id": "sw_nested", "rid": "sw_dark", "class": "android.widget.Switch", "checkable": True}
        driver = simulate(parse_app_model(_mutated(W + (0, "children"), [nested])))
        assert driver.launch_activity(IccMessage("MainActivity")).success
        tree = driver.current_tree()
        picked = NodeIndex(tree, PKG).match(sel("sw_dark"))
        assert picked is not next(n for n in tree.root.iter_subtree() if n.resource_id == f"{PKG}:id/sw_dark")
        driver.tap(sel("sw_dark"))
        assert [n.bounds for n in driver.current_tree().root.iter_subtree() if n.checked] == [picked.bounds]

    def test_selector_not_found(self, driver):
        with pytest.raises(SelectorNotFound):
            driver.tap(sel("btn_ghost"))

    def test_screenshot_ref_scheme(self, driver):
        assert driver.screenshot_ref().startswith("sim://MainActivity/entry/")

    def test_input_type_of(self, driver):
        assert driver.input_type_of(sel("ed_name")) == "text"
        assert driver.input_type_of(sel("btn_about")) is None

    def test_rid_override_renders_shared_resource_id(self):
        model = load_benchmark("app10.json")
        driver = simulate(model)
        driver.launch_activity(IccMessage("MainActivity"))
        driver.toggle(Selector(resource_id="com.bench.app10:id/sw_a"))
        raw, _ = current_dump(driver)
        assert "com.bench.app10:id/overlay_panel" in raw
        assert "com.bench.app10:id/panel_a" not in raw
