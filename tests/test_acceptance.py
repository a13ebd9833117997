"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The lines are written to the real stdout so they stay visible under pytest's
output capturing.
"""

import copy
import hashlib
import json
import random
import sys
from contextlib import contextmanager

import pytest

from conftest import PKG, load_benchmark, make_node, make_tree
from scenetg import ExplorationConfig
from scenetg.diff import ChangeKind, RunSnapshot, diff_graphs
from scenetg.engine import fuzz_assignments
from scenetg.identity import EMPTY_SCENE_ID, scene_id, signature_nodes
from scenetg.layout import Bounds

BENCHMARKS = [f"app{i:02d}.json" for i in range(1, 11)]
CRAFTED = ["fig5a.json", "guarded.json", "palette.json", "palette_trap.json", "stoprule.json"]
DIFF_MODELS = [
    "drawer_v1.json", "drawer_v2.json",
    "spinner_v1.json", "spinner_v2.json",
    "nested_menu_v1.json", "nested_menu_v2.json",
]

# (#All_Acts, #Pairs, #Scenes) per benchmark row.
TABLE_ROWS = {
    "app01.json": (8, 23, 17),
    "app02.json": (8, 18, 15),
    "app03.json": (9, 24, 22),
    "app04.json": (8, 21, 19),
    "app05.json": (8, 13, 13),
    "app06.json": (3, 19, 19),
    "app07.json": (3, 15, 14),
    "app08.json": (6, 14, 11),
    "app09.json": (3, 16, 11),
    "app10.json": (1, 6, 9),
}

# Raw-state ablation runs on the palette fixtures end on their own only after
# about 100k driver actions; give those runs a small action budget (same budget
# on both sides where compared).
ABLATION_BUDGET = {"palette.json": 1000, "palette_trap.json": 1000}


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        sys.__stdout__.write(f"criterion {number} ({description}): FAIL\n")
        raise
    sys.__stdout__.write(f"criterion {number} ({description}): PASS\n")


def test_criterion_1_benchmark_recovery(runs):
    with criterion(1, "benchmark graph recovery"):
        for name, (acts, pairs, scenes) in TABLE_ROWS.items():
            result, _, _ = runs.run(name)
            stats = result.report["stats"]
            got = (stats["explored_activities"], stats["transition_pairs"], stats["scenes"])
            assert got == (acts, pairs, scenes), f"{name}: got {got}, want {(acts, pairs, scenes)}"
            assert not result.report["partial"], name


def test_criterion_2_fuzzing_cardinality(runs):
    with criterion(2, "state fuzzing cardinality"):
        page = make_tree(
            make_node(
                cls="android.widget.FrameLayout",
                children=[
                    make_node(rid="x:id/ed", cls="android.widget.EditText"),
                    make_node(rid="x:id/chk", cls="android.widget.CheckBox", checkable=True),
                    make_node(rid="x:id/sw", cls="android.widget.Switch", checkable=True),
                ],
            )
        )
        assert len(fuzz_assignments(page, ExplorationConfig(), PKG)) == 8
        full, _, _ = runs.run("guarded.json")
        bare, _, _ = runs.run("guarded.json", enable_fuzzing=False)
        assert full.report["stats"]["scenes"] == 3  # entry, plain, secret
        assert bare.report["stats"]["scenes"] == 2  # secret unreachable without fuzzing


def test_criterion_3_indirect_launching_and_ablation_direction(runs):
    with criterion(3, "indirect launching + ablation direction"):
        result, _, _ = runs.run("fig5a.json")
        assert all(v["outcome"] in ("DIRECT", "INDIRECT") for v in result.report["outcomes"].values())
        assert result.report["outcomes"]["CalleeActivity"]["chain"] == [
            "CallerCActivity", "CallerAActivity", "CalleeActivity",
        ]
        no_ind, _, _ = runs.run("fig5a.json", enable_indirect=False)
        assert no_ind.report["outcomes"]["CalleeActivity"]["outcome"] == "FAILED"

        strategies = {
            "fuzzing": {"enable_fuzzing": False},
            "indirect": {"enable_indirect": False},
            "scene_id": {"enable_scene_id": False},
        }
        strict_seen = {name: False for name in strategies}
        for fixture in CRAFTED:
            full_scenes = runs.structural_scenes(fixture)
            for name, disabled in strategies.items():
                cfg = dict(disabled)
                if name == "scene_id" and fixture in ABLATION_BUDGET:
                    cfg["max_actions"] = ABLATION_BUDGET[fixture]
                reduced = runs.structural_scenes(fixture, **cfg)
                assert reduced <= full_scenes, (fixture, name)
                if reduced < full_scenes:
                    strict_seen[name] = True
        assert all(strict_seen.values()), strict_seen


def _random_tree(rng):
    classes = ["android.widget.FrameLayout", "android.widget.LinearLayout",
               "android.widget.TextView", "android.widget.Button", "android.widget.EditText"]
    counter = [0]

    def build(depth):
        counter[0] += 1
        node = make_node(
            rid=f"x:id/w{counter[0]}" if rng.random() < 0.8 else "",
            cls=rng.choice(classes),
            text=rng.choice(["", "hello", "42"]),
            checked=rng.random() < 0.3,
            bounds=Bounds(0, 0, rng.randrange(1, 1000), rng.randrange(1, 1000)),
        )
        if depth < 3 and counter[0] < 10:
            for _ in range(rng.randrange(0, 3)):
                node.children.append(build(depth + 1))
        return node

    return make_tree(build(0))


def _parents_of(tree):
    out = {}
    for node in tree.root.iter_subtree():
        for child in node.children:
            out[id(child)] = node
    return out


def test_criterion_4_scene_identity_properties():
    with criterion(4, "scene identity properties (10,000 trees)"):
        assert hashlib.md5(b"").hexdigest() == EMPTY_SCENE_ID
        # Remaining RFC 1321 reference vectors.
        vectors = {
            b"a": "0cc175b9c0f1b6a831c399e269772661",
            b"abc": "900150983cd24fb0d6963f7d28e17f72",
            b"message digest": "f96b697d7cb7938d525a2f31aaf161d0",
            b"abcdefghijklmnopqrstuvwxyz": "c3fcd3d76192e4007dfb496cca67e13b",
        }
        for data, digest in vectors.items():
            assert hashlib.md5(data).hexdigest() == digest

        rng = random.Random(20260823)
        for i in range(10_000):
            tree = _random_tree(rng)
            base = scene_id(tree, PKG)

            # Value mutations never change the id.
            mutated = copy.deepcopy(tree)
            victim = rng.choice(list(mutated.root.iter_subtree()))
            victim.text = victim.text + "!"
            victim.checked = not victim.checked
            victim.bounds = Bounds(1, 1, 1001, 1001)
            assert scene_id(mutated, PKG) == base, f"iteration {i}: value mutation changed id"

            # Structural mutations always change it.
            mutated = copy.deepcopy(tree)
            sig = signature_nodes(mutated, PKG)
            victim = rng.choice(sig)
            kind = i % 5
            if kind == 0:
                victim.resource_id = victim.resource_id + "_x"
            elif kind == 1:
                victim.widget_class = victim.widget_class + "Variant"
            elif kind == 2:
                victim.package = "com.other.pkg"
            elif kind == 3:
                victim.children.insert(
                    rng.randrange(len(victim.children) + 1),
                    make_node(rid="x:id/injected", cls="android.widget.TextView"),
                )
            else:
                parent = _parents_of(mutated).get(id(victim))
                if parent is None:  # victim is the root; drop a child or the root's id
                    victim.resource_id = victim.resource_id + "_y"
                else:
                    parent.children.remove(victim)
            assert scene_id(mutated, PKG) != base, f"iteration {i}: structural mutation kept id (kind {kind})"

        # Adapter lists of length 1 vs n hash equal.
        for n in (2, 5, 9):
            row = make_node(rid="x:id/row", cls="android.widget.TextView")
            one = make_tree(make_node(rid="x:id/l", cls="android.widget.ListView",
                                      children=[copy.deepcopy(row)]))
            many = make_tree(make_node(rid="x:id/l", cls="android.widget.ListView",
                                       children=[copy.deepcopy(row) for _ in range(n)]))
            assert scene_id(one, PKG) == scene_id(many, PKG)


def test_criterion_5_scene_id_ablation_pathology(runs):
    with criterion(5, "scene identification ablation pathology"):
        budget = ABLATION_BUDGET["palette.json"]
        with_id, _, _ = runs.run("palette.json", max_actions=budget)
        without, _, _ = runs.run("palette.json", enable_scene_id=False, max_actions=budget)
        assert with_id.report["stats"]["scenes"] == 1
        assert not with_id.report["partial"]
        assert without.report["stats"]["scenes"] >= 20


def test_criterion_6_diff_oracle(runs):
    with criterion(6, "cross-version diff oracle"):
        def snap(name):
            _, out, _ = runs.run(name)
            return RunSnapshot.load(out)

        proxy = "com.fixture.proxy"

        report = diff_graphs(snap("drawer_v1.json"), snap("drawer_v2.json"))
        [update] = report.scene_updates
        [change] = update.changes
        assert change.kind is ChangeKind.ADDED
        assert change.resource_id == f"{proxy}:id/user_asset_settings"
        assert not report.added_scenes and not report.added_pairs and not report.removed_pairs

        report = diff_graphs(snap("spinner_v1.json"), snap("spinner_v2.json"))
        [update] = report.scene_updates
        assert {c.resource_id for c in update.changes} == {
            f"{proxy}:id/opt_chacha20_poly1305",
            f"{proxy}:id/opt_zero",
        }
        assert all(c.kind is ChangeKind.ADDED for c in update.changes)
        assert not report.added_pairs

        report = diff_graphs(snap("nested_menu_v1.json"), snap("nested_menu_v2.json"))
        assert len(report.added_scenes) == 1
        [pair] = report.added_pairs
        assert pair[2] == "TAP" and pair[3] == f"{proxy}:id/btn_restart_services"
        [update] = report.scene_updates
        assert [c.resource_id for c in update.changes] == [f"{proxy}:id/btn_restart_services"]

        assert diff_graphs(snap("app05.json"), snap("app05.json")).empty


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "byte-identical deterministic runs"):
        from scenetg import explore, write_outputs
        from scenetg.simulator import simulate

        outs = []
        for tag in ("one", "two"):
            model = load_benchmark("app07.json")
            out = tmp_path / tag
            result = explore(
                model, simulate(model), ExplorationConfig(rng_seed=11), out_dir=out
            )
            write_outputs(result, out, model.package)
            outs.append(out)
        assert (outs[0] / "scenetg.json").read_bytes() == (outs[1] / "scenetg.json").read_bytes()
        assert (outs[0] / "trace.log").read_bytes() == (outs[1] / "trace.log").read_bytes()


def test_criterion_8_termination_and_stop_rule(runs):
    with criterion(8, "termination + stop rule"):
        for name in BENCHMARKS + CRAFTED + DIFF_MODELS:
            result, _, _ = runs.run(name)
            assert not result.report["partial"], name
        stop, _, _ = runs.run("stoprule.json")
        assert stop.report["rounds"] == 2
        assert stop.report["outcomes"]["OrphanActivity"]["outcome"] == "FAILED"
