"""Scene-driven GUI exploration and modeling over a deterministic app simulator."""

from importlib import resources

from .diff import DiffReport, RunSnapshot, diff_graphs, diff_trees, match_scenes
from .engine import ExplorationConfig, Explorer, apply_assignment, explore, fuzz_assignments, write_outputs
from .graphs import ActivityEdge, ActivityGraph, EventKind, SceneEdge, SceneGraph, export_dot, stats
from .icc import ExtraType, IccMessage, build_icc, direct_launch, generate_value
from .identity import is_adapter_view, node_hash, scene_id
from .layout import (
    Bounds,
    ComponentNode,
    ComponentTree,
    Selector,
    bfs_nodes,
    find_clickable,
    match_component,
    parse_hierarchy_dump,
    serialize_tree,
)
from .simulator import AppModel, LaunchResult, SimulatorSession, load_app_model, simulate

__version__ = "0.1.0"


def benchmark_path(name: str):
    """Path to a bundled app model (e.g. 'app01.json')."""
    return resources.files("scenetg") / "benchmarks" / name
