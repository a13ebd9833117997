"""Shared test helpers: cached exploration runs and component-tree builders."""

import pytest

from scenetg import ExplorationConfig, benchmark_path, explore, write_outputs
from scenetg.identity import scene_id
from scenetg.layout import Bounds, ComponentNode, ComponentTree, parse_hierarchy_dump
from scenetg.simulator import load_app_model, simulate

PKG = "com.example.app"


def load_benchmark(name):
    return load_app_model(benchmark_path(name))


def make_node(rid="", cls="android.view.View", package=PKG, children=(), **kw):
    node = ComponentNode(widget_class=cls, package=package, resource_id=rid, **kw)
    node.children = list(children)
    return node


def make_tree(root, activity="MainActivity"):
    return ComponentTree(root=root, source_activity=activity)


class _RunCache:
    """Session cache of exploration runs keyed by (model, seed, config)."""

    def __init__(self, tmp_factory):
        self._tmp = tmp_factory
        self._runs = {}
        self._count = 0

    def run(self, name, seed=0, **cfg):
        key = (name, seed, tuple(sorted(cfg.items())))
        if key not in self._runs:
            self._count += 1
            out = self._tmp.mktemp(f"run{self._count}")
            model = load_benchmark(name)
            config = ExplorationConfig(rng_seed=seed, **cfg)
            result = explore(model, simulate(model), config)
            write_outputs(result, out, model.package)
            self._runs[key] = (result, out, model)
        return self._runs[key]

    def structural_scenes(self, name, seed=0, **cfg):
        """Scene ids recomputed from the recorded layouts (ablation-comparable)."""
        result, out, model = self.run(name, seed=seed, **cfg)
        ids = set()
        for layout in (out / "layouts").glob("*.xml"):
            tree = parse_hierarchy_dump(layout.read_text(encoding="utf-8"), "unknown")
            ids.add(scene_id(tree, model.package))
        return ids


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    return _RunCache(tmp_path_factory)
