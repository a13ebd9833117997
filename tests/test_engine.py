import copy
import json
import random
import re
from dataclasses import asdict
from types import SimpleNamespace

import pytest

from conftest import PKG, load_benchmark, make_node, make_tree
from scenetg import benchmark_path, engine, identity
from scenetg.cli import EXIT_OK, main
from scenetg.engine import (
    ExplorationConfig,
    apply_assignment,
    explore,
    fuzz_assignments,
    non_transitive_kind,
    write_outputs,
)
from scenetg.graphs import ActivityGraph, EventKind
from scenetg.icc import IccMessage, build_icc
from scenetg.layout import Selector, serialize_tree
from scenetg.simulator import parse_app_model, simulate


def _fuzz_page(extra=()):
    kids = [
        make_node(rid="x:id/ed", cls="android.widget.EditText"),
        make_node(rid="x:id/chk", cls="android.widget.CheckBox", checkable=True),
        make_node(rid="x:id/sw", cls="android.widget.Switch", checkable=True),
        *extra,
    ]
    return make_tree(make_node(cls="android.widget.FrameLayout", children=kids))


class TestFuzzAssignments:
    def test_non_transitive_classification(self):
        assert non_transitive_kind("android.widget.EditText") is EventKind.SET_TEXT
        assert non_transitive_kind("androidx.appcompat.widget.AppCompatEditText") is EventKind.SET_TEXT
        assert non_transitive_kind("android.widget.CheckBox") is EventKind.TOGGLE
        assert non_transitive_kind("androidx.appcompat.widget.SwitchCompat") is EventKind.TOGGLE
        assert non_transitive_kind("android.widget.ToggleButton") is EventKind.TOGGLE
        assert non_transitive_kind("android.widget.Button") is None

    def test_three_components_yield_eight_assignments(self):
        assignments = fuzz_assignments(_fuzz_page(), ExplorationConfig(), PKG)
        assert len(assignments) == 8

    def test_assignment_zero_is_all_defaults_msb_first(self):
        assignments = fuzz_assignments(_fuzz_page(), ExplorationConfig(), PKG)
        # Assignment 0: empty text, both unchecked.
        assert [value for _, _, value in assignments[0]] == ["", False, False]
        # Binary counting with the first BFS component as the most significant bit:
        # assignment 1 flips only the last component.
        assert [bool(v) for _, _, v in assignments[1]] == [False, False, True]
        assert [bool(v) for _, _, v in assignments[4]] == [True, False, False]

    def test_cap_limits_combinations(self):
        extra = [
            make_node(rid=f"x:id/c{i}", cls="android.widget.CheckBox", checkable=True)
            for i in range(5)
        ]
        assignments = fuzz_assignments(_fuzz_page(extra), ExplorationConfig(), PKG)
        assert len(assignments) == 2 ** 6  # capped at 6 of the 8 components
        assert all(len(a) == 6 for a in assignments)

    def test_edit_text_values_are_deterministic(self):
        a1 = fuzz_assignments(_fuzz_page(), ExplorationConfig(rng_seed=3), PKG)
        a2 = fuzz_assignments(_fuzz_page(), ExplorationConfig(rng_seed=3), PKG)
        assert a1[4][0][2] == a2[4][0][2] != ""

    def test_no_targets_yields_single_empty_assignment(self):
        tree = make_tree(make_node(cls="android.widget.FrameLayout"))
        assert fuzz_assignments(tree, ExplorationConfig(), PKG) == [[]]

    def test_input_type_is_asked_once_per_edit_text(self):
        widgets = [{"id": f"ed_{t}", "class": "android.widget.EditText", "input_type": t} for t in ("text", "number", "phone")]
        widgets.append({"id": "chk", "class": "android.widget.CheckBox", "checkable": True})
        model = parse_app_model({"package": PKG, "activities": [{"name": "MainActivity", "scenes": [{"name": "entry", "widgets": widgets}]}]})
        driver = _InputTypeCounter(simulate(model))
        result = explore(model, driver, ExplorationConfig(enable_scene_id=False))
        assert result.report["stats"]["scenes"] == 2 ** 4  # every assignment ran: raw states tell them apart
        assert driver.asked == [Selector(resource_id=f"{PKG}:id/ed_{t}") for t in ("text", "number", "phone")]

    @pytest.mark.parametrize("has_input_types", [True, False], ids=["with", "without"])
    def test_driver_without_input_type_of_fuzzes_string_values(self, has_input_types):
        # input_type_of is optional in the driver contract; without it every EditText gets the STRING form.
        widgets = [{"id": "ed_count", "class": "android.widget.EditText", "input_type": "number"}]
        model = parse_app_model({"package": PKG, "activities": [{"name": "MainActivity", "scenes": [{"name": "entry", "widgets": widgets}]}]})
        driver = _TextRecorder(simulate(model), has_input_types)
        result = explore(model, driver, ExplorationConfig())
        assert not result.report["partial"]
        assert result.report["outcomes"]["MainActivity"] == {"outcome": "DIRECT", "attempts": 1}
        assert driver.texts and all(re.fullmatch(r"\d+" if has_input_types else "[a-z]{8}", t) for t in driver.texts)


class _TextRecorder:
    """A driver that records every text it sets and, unless told to keep it, has no `input_type_of`."""

    def __init__(self, inner, has_input_types):
        self._inner = inner
        self._has_input_types = has_input_types
        self.texts = []

    def __getattr__(self, name):
        if name == "input_type_of" and not self._has_input_types:
            raise AttributeError(name)
        return getattr(self._inner, name)

    def set_text(self, selector, value):
        self.texts.append(value)
        self._inner.set_text(selector, value)


class _InputTypeCounter:
    """A driver that lists every selector its input types are asked for."""

    def __init__(self, inner):
        self._inner = inner
        self.asked = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def input_type_of(self, selector):
        self.asked.append(selector)
        return self._inner.input_type_of(selector)


class TestApplyAssignment:
    def test_drives_widgets_and_skips_noops(self):
        model = load_benchmark("guarded.json")
        driver = simulate(model)
        driver.launch_activity(IccMessage("MainActivity"))
        pkg = model.package
        assignment = [
            (EventKind.SET_TEXT, Selector(resource_id=f"{pkg}:id/ed_code"), "hello"),
            (EventKind.TOGGLE, Selector(resource_id=f"{pkg}:id/chk_agree"), False),  # no-op
            (EventKind.TOGGLE, Selector(resource_id=f"{pkg}:id/sw_mode"), True),
            (EventKind.TOGGLE, Selector(resource_id=f"{pkg}:id/sw_ghost"), True),  # missing
        ]
        events, missing = apply_assignment(driver, assignment, pkg)
        assert [e[0].value for e in events] == ["SET_TEXT", "TOGGLE"]
        assert [s.resource_id for s in missing] == [f"{pkg}:id/sw_ghost"]
        assert 'text="hello"' in serialize_tree(driver.current_tree())


# One activity whose `go` clears the stack, so every restore after it is a
# relaunch-and-replay; `go2` leads on only while the CheckBox is checked.
_REPLAY_MODEL = {
    "package": PKG,
    "activities": [
        {
            "name": "MainActivity",
            "scenes": [
                {
                    "name": "entry",
                    "widgets": [
                        {"id": "chk", "class": "android.widget.CheckBox", "checkable": True},
                        {"id": "go", "class": "android.widget.Button", "clickable": True},
                        {"id": "go2", "class": "android.widget.Button", "clickable": True},
                    ],
                    "transitions": [
                        {"widget": "go", "target": "scene:cleared", "clear_stack": True},
                        {"widget": "go2", "target": "scene:gated", "guard": {"widget": "chk", "checked": True}},
                    ],
                },
                {"name": "cleared", "widgets": [{"id": "lbl_cleared", "class": "android.widget.TextView"}]},
                {"name": "gated", "widgets": [{"id": "lbl_gated", "class": "android.widget.TextView"}]},
            ],
        }
    ],
}


def _ladder_model(activities: int, fan: int):
    """Activity k has a button to each of activities k+1 ... k+fan; only the first is directly launchable."""
    acts = []
    for k in range(activities):
        callees = range(k + 1, min(activities, k + fan + 1))
        widgets = [{"id": f"go_{j}", "class": "android.widget.Button", "clickable": True} for j in callees]
        acts.append(
            {
                "name": f"Act{k:02d}",
                "directly_launchable": k == 0,
                "scenes": [
                    {
                        "name": "entry",
                        "widgets": widgets or [{"id": "lbl_end", "class": "android.widget.TextView"}],
                        "transitions": [{"widget": f"go_{j}", "target": f"activity:Act{j:02d}"} for j in callees],
                    }
                ],
            }
        )
    return parse_app_model({"package": PKG, "activities": acts})


class _ClockedDriver:
    """Logs each acting call with the clock reading it was made at; the relaunch of a
    restore with steps to replay moves the clock an hour on."""

    def __init__(self, inner, clock, restoring):
        self._inner = inner
        self._clock = clock
        self._restoring = restoring
        self.acted = []

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _log(self, name):
        self.acted.append((name, self._clock.now))

    def launch_activity(self, icc):
        self._log("launch_activity")
        result = self._inner.launch_activity(icc)
        if self._restoring and self._restoring[-1]:
            self._clock.now += 3600
        return result

    def tap(self, selector):
        self._log("tap")
        self._inner.tap(selector)

    def set_text(self, selector, value):
        self._log("set_text")
        self._inner.set_text(selector, value)

    def toggle(self, selector):
        self._log("toggle")
        self._inner.toggle(selector)

    def press_back(self):
        self._log("press_back")
        self._inner.press_back()


class TestExploration:
    def test_fig5a_indirect_launching(self, runs):
        result, _, _ = runs.run("fig5a.json")
        outcomes = result.report["outcomes"]
        assert outcomes["CalleeActivity"]["outcome"] == "INDIRECT"
        assert outcomes["CalleeActivity"]["chain"] == [
            "CallerCActivity",
            "CallerAActivity",
            "CalleeActivity",
        ]
        assert outcomes["CallerCActivity"]["outcome"] == "DIRECT"
        assert result.report["stats"]["explored_activities"] == 4

    def test_fig5a_no_indirect_reports_failed(self, runs):
        result, _, _ = runs.run("fig5a.json", enable_indirect=False)
        outcomes = result.report["outcomes"]
        assert outcomes["CalleeActivity"]["outcome"] == "FAILED"
        assert result.report["stats"]["explored_activities"] == 3

    def test_seed_atg_components_expand_to_full_resource_ids(self, runs):
        result, _, _ = runs.run("fig5a.json")
        seeds = [e for e, origin in result.atg.edges() if origin.value == "SEED"]
        assert all(e.component.resource_id.startswith("com.fixture.fig5a:id/") for e in seeds)

    def test_guarded_scene_requires_fuzzing(self, runs):
        full, _, _ = runs.run("guarded.json")
        bare, _, _ = runs.run("guarded.json", enable_fuzzing=False)
        assert full.report["stats"]["scenes"] == 3
        assert bare.report["stats"]["scenes"] == 2

    def test_stop_rule_round_count(self, runs):
        result, _, _ = runs.run("stoprule.json")
        assert result.report["rounds"] == 2
        assert result.report["outcomes"]["OrphanActivity"]["outcome"] == "FAILED"
        assert not result.report["partial"]

    def test_self_loop_taps_record_no_edges(self, runs):
        result, _, _ = runs.run("palette.json")
        assert result.report["stats"] == {
            "explored_activities": 1,
            "scenes": 1,
            "transition_pairs": 0,
        }

    def test_timeout_marks_partial(self, runs):
        result, _, _ = runs.run("palette.json", enable_scene_id=False, max_actions=1000)
        assert result.report["partial"]
        assert result.report["stats"]["scenes"] >= 20
        assert result.report["stop_reason"] == "actions"
        assert result.trace[-1]["outcome"] == "action budget spent; partial results"

    def test_indirect_launch_scales_to_a_40_activity_ladder(self, monkeypatch):
        # Act39 alone has over a billion caller chains; the explorer must take
        # the shortest one that works without listing the others.
        drawn = []
        chains_of = ActivityGraph.caller_chains

        def counting(graph, target, launchable):
            for chain in chains_of(graph, target, launchable):
                drawn.append(chain)
                yield chain

        monkeypatch.setattr(ActivityGraph, "caller_chains", counting)
        model = _ladder_model(40, 3)
        result = explore(model, simulate(model), ExplorationConfig())
        outcomes = result.report["outcomes"]
        assert [entry["outcome"] for entry in outcomes.values()] == ["DIRECT"] + ["INDIRECT"] * 39
        assert len(drawn) == 39  # one chain examined per indirect launch: the first one works
        assert outcomes["Act39"]["chain"] == [f"Act{k:02d}" for k in range(0, 40, 3)]

    @pytest.mark.parametrize("budget", [1, 25, 300])
    def test_action_budget_caps_driver_actions(self, budget):
        model = load_benchmark("palette.json")
        explorer = engine.Explorer(model, simulate(model), ExplorationConfig(enable_scene_id=False, max_actions=budget))
        result = explorer.explore()
        assert explorer.driver.actions == budget
        assert result.report["partial"] and result.report["stop_reason"] == "actions"

    def test_complete_run_has_no_stop_reason(self, runs):
        result, _, _ = runs.run("palette.json")
        assert not result.report["partial"] and result.report["stop_reason"] is None

    def test_wall_clock_timeout_marks_partial(self, monkeypatch):
        # Each clock reading advances one second, so the deadline falls after a fixed number of checks.
        ticks = iter(range(10**9))
        monkeypatch.setattr(engine, "time", SimpleNamespace(monotonic=lambda: float(next(ticks))))
        model = load_benchmark("palette.json")
        result = explore(model, simulate(model), ExplorationConfig(enable_scene_id=False, dynamic_timeout=50))
        assert result.report["partial"] and result.report["stop_reason"] == "time"
        assert result.trace[-1]["outcome"] == "dynamic timeout reached; partial results"
        assert result.report["stats"]["scenes"] >= 20

    def test_deadline_stops_a_replay_between_two_actions(self, monkeypatch):
        # The clock passes the deadline at the relaunch of a restore that still has
        # the fuzz toggle to replay: that toggle must not reach the driver.
        clock = SimpleNamespace(now=0.0)
        monkeypatch.setattr(engine, "time", SimpleNamespace(monotonic=lambda: clock.now))
        restoring = []  # the path of the restore under way, if any
        restore = engine.Explorer._restore

        def tracked(explorer, act_name, sid, path):
            restoring.append(path)
            try:
                restore(explorer, act_name, sid, path)
            finally:
                restoring.pop()

        monkeypatch.setattr(engine.Explorer, "_restore", tracked)
        model = parse_app_model(_REPLAY_MODEL)
        driver = _ClockedDriver(simulate(model), clock, restoring)
        result = explore(model, driver, ExplorationConfig(dynamic_timeout=50))
        assert clock.now > 50 and driver.acted[-1] == ("launch_activity", 0.0)
        assert all(at <= 50 for _, at in driver.acted)  # nothing acted past the deadline
        assert result.report["partial"] and result.report["stop_reason"] == "time"
        assert result.trace[-1]["outcome"] == "dynamic timeout reached; partial results"

    def test_determinism_across_runs(self, tmp_path):
        from scenetg import explore, write_outputs

        outs = []
        for tag in ("r1", "r2"):
            model = load_benchmark("app04.json")
            out = tmp_path / tag
            result = explore(model, simulate(model), ExplorationConfig(rng_seed=5))
            write_outputs(result, out, model.package)
            outs.append(out)
        for fname in ("scenetg.json", "trace.log", "paths.json", "atg.json", "scenetg.dot"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes(), fname

    def test_artifacts_written(self, runs):
        result, out, _ = runs.run("app10.json")
        for fname in ("scenetg.json", "scenetg.dot", "atg.json", "report.json", "paths.json", "trace.log"):
            assert (out / fname).is_file(), fname
        layouts = list((out / "layouts").glob("*.xml"))
        assert len(layouts) == result.report["stats"]["scenes"]
        doc = json.loads((out / "scenetg.json").read_text())
        assert {s["id"] for s in doc["scenes"]} == {p.stem for p in layouts}
        paths = json.loads((out / "paths.json").read_text())
        assert set(paths) == {s["id"] for s in doc["scenes"]}

    @pytest.mark.parametrize("name", sorted(p.name for p in benchmark_path("").iterdir() if p.name.endswith(".json")))
    def test_explore_writes_nothing(self, name, tmp_path):
        # `out_dir` is accepted and ignored; write_outputs is the one writer of a run.
        model = load_benchmark(name)
        explore(model, simulate(model), ExplorationConfig(), out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("pair", ["drawer", "nested_menu", "spinner"])
    def test_written_runs_are_complete_and_diff(self, pair, tmp_path, capsys):
        outs = []
        for version in ("v1", "v2"):
            model = load_benchmark(f"{pair}_{version}.json")
            out = tmp_path / version
            write_outputs(explore(model, simulate(model), ExplorationConfig()), out, model.package)
            doc = json.loads((out / "scenetg.json").read_text(encoding="utf-8"))
            written = {p.relative_to(out).as_posix() for p in (out / "layouts").iterdir()}
            assert {scene["layout_ref"] for scene in doc["scenes"]} == written
            outs.append(out)
        argv = ["diff", "--old", str(outs[0]), "--new", str(outs[1]), "--out", str(tmp_path / "d.json")]
        assert main(argv) == EXIT_OK, capsys.readouterr().err

    def test_trace_records_launches_and_taps(self, runs):
        result, _, _ = runs.run("stoprule.json")
        actions = {r["action"] for r in result.trace}
        assert {"launch", "discover", "expand", "tap"} <= actions
        launches = [r for r in result.trace if r["action"] == "launch"]
        assert any(r["outcome"] == "NOT_EXPORTED" for r in launches)

    @pytest.mark.parametrize("scene_ids, stats", [(True, (3, 2)), (False, (4, 3))])
    def test_relaunch_replay_restores_the_fuzzed_state(self, scene_ids, stats):
        # The checked run must restore its CheckBox after `go`, or `go2` never leads on:
        # the replayed path already holds the fuzz toggle.
        model = parse_app_model(_REPLAY_MODEL)
        result = explore(model, simulate(model), ExplorationConfig(enable_scene_id=scene_ids))
        got = result.report["stats"]
        assert (got["scenes"], got["transition_pairs"]) == stats
        assert "notes" not in result.report["outcomes"]["MainActivity"]

    @pytest.mark.parametrize("name", ["fig5a.json", "guarded.json", "app01.json"])
    def test_each_page_is_hashed_once(self, name, monkeypatch):
        seen = _spy(monkeypatch, identity, "scene_id")
        model = load_benchmark(name)
        explore(model, simulate(model), ExplorationConfig())
        assert seen and len({id(tree) for tree in seen}) == len(seen)

    @pytest.mark.parametrize("name", ["fig5a.json", "guarded.json", "app01.json"])
    def test_raw_state_key_serialises_each_page_once(self, name, monkeypatch, tmp_path):
        seen = _spy(monkeypatch, engine, "serialize_tree")
        model = load_benchmark(name)
        result = explore(model, simulate(model), ExplorationConfig(enable_scene_id=False))
        write_outputs(result, tmp_path, model.package)
        assert len(list((tmp_path / "layouts").glob("*.xml"))) == result.report["stats"]["scenes"]
        assert seen and len({id(tree) for tree in seen}) == len(seen)


class _CopyingDriver:
    """A driver that returns a fresh deep copy of every tree, as one that parses each device dump does."""

    def __init__(self, inner):
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def current_tree(self):
        return copy.deepcopy(self._inner.current_tree())


def _explored_bytes(out) -> dict:
    """Every deterministic artifact of an explore output directory, by relative name."""
    return {
        p.relative_to(out).as_posix(): p.read_bytes()
        for p in sorted(out.rglob("*"))
        if p.is_file() and p.name != "report.json"  # its wall time differs between runs
    }


def _keying_explorer(package, scene_ids):
    """An explorer with nothing to explore, for calling its `_key` on a tree."""
    model = SimpleNamespace(package=package, activities=[], seed_atg=[])
    driver = SimpleNamespace(current_tree=None, screenshot_ref=None)
    return engine.Explorer(model, driver, ExplorationConfig(enable_scene_id=scene_ids))


class TestKeyMemo:
    @pytest.mark.parametrize("name", ["app01.json", "guarded.json"])
    @pytest.mark.parametrize("scene_ids", [True, False], ids=["scene-id", "raw-state"])
    def test_copied_trees_give_the_same_artifacts(self, name, scene_ids, tmp_path):
        config = ExplorationConfig(enable_scene_id=scene_ids)
        model = load_benchmark(name)
        plain = explore(model, simulate(model), config)
        write_outputs(plain, tmp_path / "plain", model.package)
        copied = explore(model, _CopyingDriver(simulate(model)), config)
        write_outputs(copied, tmp_path / "copied", model.package)
        assert _explored_bytes(tmp_path / "copied") == _explored_bytes(tmp_path / "plain")

    def test_a_tree_is_keyed_anew_under_another_mode(self, monkeypatch):
        tree = _fuzz_page()
        xml = serialize_tree(tree)
        sid, raw = identity.scene_id(tree, PKG), identity.raw_state_id(xml)
        assert _keying_explorer(PKG, True)._key(tree) == (sid, None)
        assert _keying_explorer(PKG, False)._key(tree) == (raw, xml)
        # Asked again in the mode it was last keyed under, the kept key answers.
        monkeypatch.setattr(identity, "raw_state_id", None)
        assert _keying_explorer(PKG, False)._key(tree) == (raw, xml)

    def test_a_tree_is_keyed_anew_for_another_package(self, monkeypatch):
        tree = _fuzz_page()
        other = "com.example.other"
        sid, other_sid = identity.scene_id(tree, PKG), identity.scene_id(tree, other)
        assert sid != other_sid
        assert _keying_explorer(PKG, True)._key(tree) == (sid, None)
        assert _keying_explorer(other, True)._key(tree) == (other_sid, None)
        monkeypatch.setattr(identity, "scene_id", None)
        assert _keying_explorer(other, True)._key(tree) == (other_sid, None)


def test_partial_runs_are_byte_identical(tmp_path):
    outs = []
    for tag in ("one", "two"):
        model = load_benchmark("palette.json")
        out = tmp_path / tag
        result = explore(model, simulate(model), ExplorationConfig(enable_scene_id=False, max_actions=700))
        write_outputs(result, out, model.package)
        assert result.report["partial"]
        outs.append(out)
    first, second = (_explored_bytes(out) for out in outs)
    for name in ("scenetg.json", "paths.json", "trace.log"):
        assert first[name] == second[name], name
    layouts = sorted(name for name in first if name.startswith("layouts/"))
    assert layouts and layouts == sorted(name for name in second if name.startswith("layouts/"))
    assert all(first[name] == second[name] for name in layouts)


def _reference_trace(trace) -> str:
    """trace.log as one `json.dumps` per record writes it."""
    return "".join(json.dumps(record) + "\n" for record in trace)


class TestTraceLog:
    # Characters that JSON escapes in different ways: quotes, backslash, the
    # short escapes, other control characters, non-ASCII, astral (written as a
    # surrogate pair) and lone surrogates.
    SPECIAL = ['"', "\\", "/", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "\xe9", "\u2028",
               "\u4e2d", "\U0001f600", "\ud800", "\udfff", "a", " "]

    @pytest.mark.parametrize("seed", range(5))
    def test_line_equals_json_dumps(self, seed):
        rng = random.Random(seed)

        def text():
            return "".join(
                rng.choice(self.SPECIAL) if rng.random() < 0.7 else chr(rng.randrange(0x110000))
                for _ in range(rng.randint(0, 12))
            )

        for _ in range(400):
            record = {"step": rng.randrange(10 ** rng.randint(1, 12))}
            record.update((key, text()) for key in ("activity", "scene_id", "action", "selector", "outcome"))
            assert engine._trace_line(record) == json.dumps(record) + "\n"

    def test_partial_run_trace_matches_the_reference_writer(self, tmp_path):
        model = load_benchmark("palette_trap.json")
        result = explore(model, simulate(model), ExplorationConfig(enable_scene_id=False, max_actions=500))
        assert result.report["stop_reason"] == "actions"
        write_outputs(result, tmp_path, model.package)
        assert (tmp_path / "trace.log").read_bytes() == _reference_trace(result.trace).encode("utf-8")


class TestBudgetedDriver:
    def test_running_and_screenshot_ref_follow_the_driver(self):
        model = load_benchmark("stoprule.json")
        inner = simulate(model)
        driver = engine._BudgetedDriver(inner, None)
        assert not driver.running
        driver.launch_activity(build_icc(model.activities[0], 0))
        assert driver.running
        assert driver.screenshot_ref() == "sim://MainActivity/entry/1"
        assert inner.screenshot_ref() == "sim://MainActivity/entry/2"  # one counter: the driver's own
        driver.press_back()  # past the root: the app exits
        assert not driver.running and driver.actions == 2

    def test_only_the_contract_names_reach_the_driver(self):
        inner = simulate(load_benchmark("stoprule.json"))
        driver = engine._BudgetedDriver(inner, None)
        assert driver.input_type_of == inner.input_type_of
        with pytest.raises(AttributeError):
            driver.model  # the simulator's own attribute, outside the contract
        assert engine._BudgetedDriver(_TextRecorder(inner, False), None).input_type_of is None


def _spy(monkeypatch, module, name):
    """Wrap `module.name`; the returned list holds every tree it is called with (kept alive, so ids stay unique)."""
    seen = []
    real = getattr(module, name)

    def spy(tree, *args):
        seen.append(tree)
        return real(tree, *args)

    monkeypatch.setattr(module, name, spy)
    return seen


class TestConfig:
    def test_rejects_bad_timeouts(self):
        with pytest.raises(ValueError):
            ExplorationConfig(dynamic_timeout=0)

    @pytest.mark.parametrize("budget", [0, -3, 2.5, True, "10"])
    def test_rejects_bad_action_budgets(self, budget):
        with pytest.raises(ValueError, match="max_actions"):
            ExplorationConfig(max_actions=budget)

    def test_to_json_roundtrip_keys(self):
        doc = asdict(ExplorationConfig())
        assert doc["enable_fuzzing"] and doc["enable_indirect"] and doc["enable_scene_id"]
