import json
import random
import re

import pytest

from scenetg.errors import CorruptRun, MissingEdge
from scenetg.graphs import (
    ActivityEdge,
    ActivityGraph,
    EdgeOrigin,
    EventKind,
    SceneEdge,
    SceneGraph,
    export_dot,
    read_text,
    scenetg_document,
    stats,
)
from scenetg.layout import Selector


def aedge(caller, callee, component="btn"):
    return ActivityEdge(caller, callee, EventKind.TAP, Selector(resource_id=component))


class TestActivityGraph:
    def test_add_is_idempotent(self):
        g = ActivityGraph()
        assert g.add_edge(aedge("A", "B"))
        assert not g.add_edge(aedge("A", "B"))
        assert len(g) == 1  # a duplicate does not grow the graph
        g.add_edge(aedge("A", "C"))
        assert len(g) == 2

    def test_seed_origin_survives_dynamic_duplicate(self):
        g = ActivityGraph()
        g.add_edge(aedge("A", "B"), EdgeOrigin.SEED)
        g.add_edge(aedge("A", "B"), EdgeOrigin.DYNAMIC)
        [(edge, origin)] = g.edges()
        assert origin is EdgeOrigin.SEED

    def test_edge_action_returns_earliest(self):
        g = ActivityGraph()
        g.add_edge(aedge("A", "B", "btn_first"))
        g.add_edge(aedge("A", "B", "btn_second"))
        event, component = g.edge_action("A", "B")
        assert event is EventKind.TAP and component.resource_id == "btn_first"

    def test_edge_action_missing_raises(self):
        with pytest.raises(MissingEdge):
            ActivityGraph().edge_action("A", "B")

    def test_caller_chains_transitive_caller_case(self):
        # Callee <- {A, B} <- C; only C is directly launchable.
        g = ActivityGraph()
        g.add_edge(aedge("CallerA", "Callee", "btn_to_callee"))
        g.add_edge(aedge("CallerB", "Callee", "btn_to_callee_b"))
        g.add_edge(aedge("CallerC", "CallerA", "btn_to_a"))
        g.add_edge(aedge("CallerC", "CallerB", "btn_to_b"))
        chains = list(g.caller_chains("Callee", launchable=lambda a: a == "CallerC"))
        assert chains == [
            ["CallerC", "CallerA", "Callee"],
            ["CallerC", "CallerB", "Callee"],
        ]

    def test_caller_chains_stop_at_launchable_head(self):
        g = ActivityGraph()
        g.add_edge(aedge("A", "Callee"))
        g.add_edge(aedge("C", "A"))
        chains = list(g.caller_chains("Callee", launchable=lambda a: True))
        assert chains == [["A", "Callee"]]  # no extension past a launchable head

    def test_caller_chains_never_revisit(self):
        g = ActivityGraph()
        g.add_edge(aedge("A", "B"))
        g.add_edge(aedge("B", "A"))
        assert list(g.caller_chains("A", launchable=lambda a: False)) == []

    @pytest.mark.parametrize("seed", range(10))
    def test_caller_chains_match_the_exhaustive_reference(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            names = [f"A{i}" for i in range(rng.randint(1, 8))]
            density = rng.random()
            g = ActivityGraph()
            for caller in names:
                for callee in names:
                    if rng.random() < density:
                        g.add_edge(aedge(caller, callee))
            heads = {name for name in names if rng.random() < 0.4}
            target = rng.choice(names + ["Unknown"])
            want = _exhaustive_caller_chains(g, target, heads.__contains__)
            assert list(g.caller_chains(target, heads.__contains__)) == want

    def test_caller_chains_yield_the_shortest_first_without_listing_the_rest(self):
        # A ladder where each rung calls the next three: the chains from A00 to
        # A39 number in the billions, the shortest is 14 activities long.
        g = ActivityGraph()
        for k in range(40):
            for j in range(k + 1, min(40, k + 4)):
                g.add_edge(aedge(f"A{k:02d}", f"A{j:02d}"))
        asked = []

        def launchable(name):
            asked.append(name)
            return name == "A00"

        chains = g.caller_chains("A39", launchable)
        every_third = [f"A{k:02d}" for k in range(3, 40, 3)]
        assert next(chains) == ["A00"] + every_third  # the one chain of 14
        assert next(chains) == ["A00", "A01"] + every_third  # the first of 15, by name
        assert sorted(asked) == [f"A{k:02d}" for k in range(39)]  # each activity judged once


def _exhaustive_caller_chains(g, target, launchable):
    """The reference: every simple caller chain by reverse BFS, then sorted by (length, names)."""
    callers = {}
    for edge, _ in g.edges():
        callers.setdefault(edge.callee, set()).add(edge.caller)
    chains = []
    frontier = [(target,)]
    while frontier:
        extensions = []
        for path in frontier:
            for caller in sorted(callers.get(path[0], ())):
                if caller in path:
                    continue
                new_path = (caller,) + path
                if launchable(caller):
                    chains.append(list(new_path))
                else:
                    extensions.append(new_path)
        frontier = extensions
    chains.sort(key=lambda c: (len(c), c))
    return chains


class TestSceneGraph:
    def test_first_discovery_wins(self):
        g = SceneGraph()
        g.add_node("s1", "A", "layouts/s1.xml", "shot1")
        g.add_node("s1", "B", "layouts/other.xml", "shot2")
        assert list(g.nodes) == ["s1"]
        assert g.nodes["s1"].owning_activity == "A"
        assert g.nodes["s1"].layout_ref == "layouts/s1.xml"

    def test_edge_requires_endpoints(self):
        g = SceneGraph()
        g.add_node("s1", "A", "l", "p")
        with pytest.raises(MissingEdge):
            g.add_edge(SceneEdge("s1", "ghost", EventKind.TAP, Selector(resource_id="b")))

    def test_edges_deduplicate(self):
        g = SceneGraph()
        g.add_node("s1", "A", "l", "p")
        g.add_node("s2", "A", "l", "p")
        e = SceneEdge("s1", "s2", EventKind.TAP, Selector(resource_id="b"))
        assert g.add_edge(e)
        assert not g.add_edge(e)
        assert len(g.edges()) == 1

    def test_stats(self):
        g = SceneGraph()
        g.add_node("s1", "A", "l", "p")
        g.add_node("s2", "A", "l", "p")
        g.add_node("s3", "B", "l", "p")
        g.add_edge(SceneEdge("s1", "s2", EventKind.TAP, Selector(resource_id="b")))
        assert stats(g) == {"explored_activities": 2, "scenes": 3, "transition_pairs": 1}


class TestExports:
    def _graphs(self):
        sg = SceneGraph()
        sg.add_node("a" * 32, "MainActivity", "layouts/a.xml", "sim://1")
        sg.add_node("b" * 32, "MainActivity", "layouts/b.xml", "sim://2")
        sg.add_edge(SceneEdge("a" * 32, "b" * 32, EventKind.TAP, Selector(resource_id="p:id/btn")))
        ag = ActivityGraph()
        ag.add_edge(aedge("MainActivity", "DetailActivity", "p:id/btn"), EdgeOrigin.SEED)
        return sg, ag

    def test_export_json_shape_and_fixed_timestamp(self):
        sg, ag = self._graphs()
        doc = scenetg_document(sg, ag, "p")
        assert doc["package"] == "p"
        assert doc["generated_at"] == "0"
        assert [s["id"] for s in doc["scenes"]] == ["a" * 32, "b" * 32]
        assert doc["scene_edges"] == [
            {"src": "a" * 32, "dst": "b" * 32, "event": "TAP", "component": "p:id/btn"}
        ]
        assert doc["atg_edges"][0]["origin"] == "SEED"
        assert doc["stats"] == {"explored_activities": 1, "scenes": 2, "transition_pairs": 1}

    def test_export_json_is_deterministic(self):
        sg, ag = self._graphs()
        assert json.dumps(scenetg_document(sg, ag, "p")) == json.dumps(scenetg_document(sg, ag, "p"))

    def test_export_dot(self):
        sg, ag = self._graphs()
        dot = export_dot(scenetg_document(sg, ag, "p"))
        assert dot.startswith("digraph scenetg {")
        assert f'"{"a" * 32}" -> "{"b" * 32}" [label="TAP/p:id/btn"];' in dot
        assert "aaaaaaaa\\nMainActivity" in dot


class TestReadText:
    @pytest.mark.parametrize("raw", [b"a\r\nb\r\n", b"a\rb\r", b"a\r\nb\r", b"a\nb\n"], ids=["crlf", "cr", "mixed", "lf"])
    def test_newlines_read_as_lf(self, tmp_path, raw):
        path = tmp_path / "f.txt"
        path.write_bytes(raw)
        assert read_text(path) == "a\nb\n"

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "f.txt"
        path.write_bytes(b"ok\r\n\xff")
        with pytest.raises(CorruptRun, match=f"^{re.escape(str(path))}: not UTF-8 text: .*0xff in position 4"):
            read_text(path)
