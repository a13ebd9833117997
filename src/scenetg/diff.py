"""Cross-version comparison of two exploration runs.

Scenes from adjacent versions are paired by execution path (the event/component
sequence that reached them); matched pairs whose stored layouts differ get a
layer-by-layer component-tree diff, and transition pairs are compared as sets
after mapping old scene ids through the matching.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

from .errors import CorruptRun, SceneTGError
from .graphs import read_json, read_run_document, read_text
from .layout import ComponentNode, ComponentTree, check_hierarchy_dump, children, parse_hierarchy_dump

TRACKED_PROPERTIES = ("resource_id", "widget_class", "package", "text", "clickable")


class ChangeKind(str, Enum):
    ADDED = "ADDED"
    DELETED = "DELETED"
    PROPERTY_CHANGED = "PROPERTY_CHANGED"


@dataclass(frozen=True)
class NodeChange:
    kind: ChangeKind
    path: tuple[int, ...]
    resource_id: str
    attribute: Optional[str] = None
    old: Optional[object] = None
    new: Optional[object] = None

    def to_json(self) -> dict:
        doc = {"kind": self.kind.value, "path": list(self.path), "resource_id": self.resource_id}
        if self.kind is ChangeKind.PROPERTY_CHANGED:
            doc.update({"attribute": self.attribute, "old": self.old, "new": self.new})
        return doc


@dataclass
class SceneUpdate:
    activity: str
    path_key: list
    old_id: str
    new_id: str
    changes: list[NodeChange]

    def to_json(self) -> dict:
        return {
            "activity": self.activity,
            "path_key": self.path_key,
            "old_id": self.old_id,
            "new_id": self.new_id,
            "changes": [c.to_json() for c in self.changes],
        }


@dataclass
class DiffReport:
    scene_updates: list[SceneUpdate] = field(default_factory=list)
    added_scenes: list[str] = field(default_factory=list)
    removed_scenes: list[str] = field(default_factory=list)
    added_pairs: list[tuple] = field(default_factory=list)
    removed_pairs: list[tuple] = field(default_factory=list)
    ambiguous_matches: list[list] = field(default_factory=list)

    @property
    def summary(self) -> dict:
        return {
            "scene_updates": len(self.scene_updates),
            "added_scenes": len(self.added_scenes),
            "removed_scenes": len(self.removed_scenes),
            "added_pairs": len(self.added_pairs),
            "removed_pairs": len(self.removed_pairs),
        }

    @property
    def empty(self) -> bool:
        return not any(self.summary.values())

    def to_json(self) -> dict:
        return {
            "scene_updates": [u.to_json() for u in self.scene_updates],
            "added_scenes": self.added_scenes,
            "removed_scenes": self.removed_scenes,
            "transition_pair_updates": {
                "added": [list(p) for p in self.added_pairs],
                "removed": [list(p) for p in self.removed_pairs],
            },
            "ambiguous_matches": self.ambiguous_matches,
            "summary": self.summary,
        }

    def render_text(self) -> str:
        lines = []
        for sid in self.added_scenes:
            lines.append(f"+scene {sid}")
        for sid in self.removed_scenes:
            lines.append(f"-scene {sid}")
        for update in self.scene_updates:
            parts = []
            for change in update.changes:
                sign = {"ADDED": "+", "DELETED": "-", "PROPERTY_CHANGED": "~"}[change.kind.value]
                label = change.resource_id or "/".join(str(i) for i in change.path)
                if change.kind is ChangeKind.PROPERTY_CHANGED:
                    parts.append(f"{sign}node({label}).{change.attribute}: {change.old!r} -> {change.new!r}")
                else:
                    parts.append(f"{sign}node({label})")
            path = " > ".join(f"{e}:{c}" for e, c in update.path_key) or "<entry>"
            lines.append(f"~scene({update.activity} / {path}): " + " ".join(parts))
        for pair in self.added_pairs:
            lines.append(f"+pair {pair[0][:8]} -> {pair[1][:8]} [{pair[2]}/{pair[3]}]")
        for pair in self.removed_pairs:
            lines.append(f"-pair {pair[0][:8]} -> {pair[1][:8]} [{pair[2]}/{pair[3]}]")
        if not lines:
            lines.append("no differences")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Run snapshots (one explored output directory)


@dataclass
class RunSnapshot:
    directory: Path
    package: str
    scenes: list[dict]  # ordered by discovery
    edges: set[tuple]  # (src, dst, event, component)
    paths: dict[str, list]  # scene id -> [[event, component], ...]
    layouts: dict[str, str]  # scene id -> layout text, checked by diff_graphs

    @classmethod
    def load(cls, directory) -> "RunSnapshot":
        directory = Path(directory)
        doc = read_run_document(directory)
        paths_file = directory / "paths.json"
        paths = read_json(paths_file)
        for sid, steps in paths.items():
            if not isinstance(steps, list):
                raise CorruptRun(f"{paths_file}: {sid}: expected a list of [event, component] pairs")
            for i, step in enumerate(steps):
                if not (isinstance(step, list) and len(step) == 2 and all(isinstance(x, str) for x in step)):
                    raise CorruptRun(f"{paths_file}: {sid}[{i}]: expected an [event, component] pair of strings")
        layouts = {}
        for i, scene in enumerate(doc["scenes"]):
            # One plain file name under layouts/, as the writer records it; a
            # ref out of the run could read another run's layout, or a device.
            folder, _, name = scene["layout_ref"].partition("/")
            if folder != "layouts" or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
                raise CorruptRun(
                    f"{directory / 'scenetg.json'}: scenes[{i}].layout_ref: must name a file under layouts/"
                )
            if scene["id"] not in paths:
                raise CorruptRun(f"{paths_file}: no path for scene {scene['id']}")
            layouts[scene["id"]] = read_text(directory / scene["layout_ref"])
        edges = {
            (e["src"], e["dst"], e["event"], e["component"]) for e in doc["scene_edges"]
        }
        return cls(
            directory=directory, package=doc["package"], scenes=doc["scenes"], edges=edges, paths=paths, layouts=layouts
        )


def _path_key(path: list) -> tuple:
    return tuple((event, component) for event, component in path)


def match_scenes(old: RunSnapshot, new: RunSnapshot):
    """Pair scenes with identical execution paths; first-discovered wins on clashes.

    Paths are recorded from the owning activity's launch, so the pairing key is
    (activity, path): entry scenes of different activities all have empty paths.
    """
    ambiguous = []

    def key_map(snapshot: RunSnapshot) -> dict:
        mapping = {}
        for scene in snapshot.scenes:  # discovery order
            key = (scene["activity"], _path_key(snapshot.paths[scene["id"]]))
            if key in mapping:
                ambiguous.append([key[0], list(map(list, key[1])), scene["id"]])
                continue
            mapping[key] = scene["id"]
        return mapping

    old_by_key = key_map(old)
    new_by_key = key_map(new)
    matches = []
    for key, old_id in old_by_key.items():
        if key in new_by_key:
            matches.append((key, old_id, new_by_key[key]))
    matched_old = {m[1] for m in matches}
    matched_new = {m[2] for m in matches}
    added = [s["id"] for s in new.scenes if s["id"] not in matched_new]
    removed = [s["id"] for s in old.scenes if s["id"] not in matched_old]
    return matches, added, removed, ambiguous


def _align(old_kids: list[ComponentNode], new_kids: list[ComponentNode]):
    """Pair children by (resource_id, widget_class); positional fallback otherwise.

    An old child with a resource id takes the first unused new child with its
    key; the rest pair by position in order.
    """
    slots: dict[tuple, deque] = {}  # key -> unused new positions, in order
    for j, new_child in enumerate(new_kids):
        if new_child.resource_id:
            slots.setdefault((new_child.resource_id, new_child.widget_class), deque()).append(j)
    pairs = []
    used_new = set()
    leftover_old = []
    for old_child in old_kids:
        free = slots.get((old_child.resource_id, old_child.widget_class)) if old_child.resource_id else None
        if free:
            match = free.popleft()
            used_new.add(match)
            pairs.append((old_child, new_kids[match], match))
        else:
            leftover_old.append(old_child)
    leftover_new = [(j, c) for j, c in enumerate(new_kids) if j not in used_new]
    # Positional fallback: pair remaining children in order.
    fallback = min(len(leftover_old), len(leftover_new))
    for i in range(fallback):
        j, new_child = leftover_new[i]
        pairs.append((leftover_old[i], new_child, j))
    deleted = leftover_old[fallback:]
    added = leftover_new[fallback:]
    pairs.sort(key=lambda p: p[2])
    return pairs, added, deleted


def _diff_nodes(old: ComponentNode, new: ComponentNode, path: tuple, changes: list, package: str):
    for attr in TRACKED_PROPERTIES:
        if getattr(old, attr) != getattr(new, attr):
            changes.append(
                NodeChange(
                    ChangeKind.PROPERTY_CHANGED,
                    path,
                    new.resource_id or old.resource_id,
                    attribute=attr,
                    old=getattr(old, attr),
                    new=getattr(new, attr),
                )
            )
    pairs, added, deleted = _align(
        children(old, package, collapse_adapters=True), children(new, package, collapse_adapters=True)
    )
    for j, child in added:
        changes.append(NodeChange(ChangeKind.ADDED, path + (j,), child.resource_id))
    for child in deleted:
        changes.append(NodeChange(ChangeKind.DELETED, path + (child.index,), child.resource_id))
    for old_child, new_child, j in pairs:
        _diff_nodes(old_child, new_child, path + (j,), changes, package)


def diff_trees(old: ComponentTree, new: ComponentTree, target_package: str) -> list[NodeChange]:
    """Level-order diff after the same filtering and adapter collapsing used for scene ids."""
    changes: list[NodeChange] = []
    old_in = old.root.package == target_package
    new_in = new.root.package == target_package
    if old_in and new_in:
        _diff_nodes(old.root, new.root, (), changes, target_package)
    elif new_in:
        changes.append(NodeChange(ChangeKind.ADDED, (), new.root.resource_id))
    elif old_in:
        changes.append(NodeChange(ChangeKind.DELETED, (), old.root.resource_id))
    return changes


def _read_layouts(changed: set, *snapshots: RunSnapshot) -> dict[tuple[str, str], ComponentTree]:
    """The tree of each (activity, layout text) in `changed`; each other layout text is only checked.

    Each distinct text is read once, in scene order, so a malformed layout
    fails the diff whether or not it is used; its error names the first
    layout file that holds the text. A text in `changed` under two
    activities is built once for each, so a tree names its own activity.
    """
    trees = {}
    seen = set()
    for snapshot in snapshots:
        for scene in snapshot.scenes:
            text = snapshot.layouts[scene["id"]]
            key = (scene["activity"], text)
            build = key in changed and key not in trees
            if build or text not in seen:
                seen.add(text)
                try:
                    if build:
                        trees[key] = parse_hierarchy_dump(text, scene["activity"])
                    else:
                        check_hierarchy_dump(text)
                except SceneTGError as exc:
                    exc.args = (f"{snapshot.directory / scene['layout_ref']}: {exc}",)
                    raise
    return trees


def diff_graphs(old: RunSnapshot, new: RunSnapshot) -> DiffReport:
    matches, added_scenes, removed_scenes, ambiguous = match_scenes(old, new)
    # Identical bytes make equal trees, whose diff is empty; so only the
    # layouts of a pair whose bytes differ are built into trees.
    changed = set()
    for (activity, _), old_id, new_id in matches:
        if old.layouts[old_id] != new.layouts[new_id]:
            changed.update(((activity, old.layouts[old_id]), (activity, new.layouts[new_id])))
    trees = _read_layouts(changed, old, new)
    report = DiffReport(
        added_scenes=added_scenes, removed_scenes=removed_scenes, ambiguous_matches=ambiguous
    )
    id_map = {}
    for (activity, path), old_id, new_id in matches:
        id_map[old_id] = new_id
        old_text, new_text = old.layouts[old_id], new.layouts[new_id]
        changes = (
            []
            if old_text == new_text
            else diff_trees(trees[activity, old_text], trees[activity, new_text], new.package)
        )
        if changes or old_id != new_id:
            report.scene_updates.append(
                SceneUpdate(activity, [list(p) for p in path], old_id, new_id, changes)
            )
    mapped_old = {
        (id_map.get(src, src), id_map.get(dst, dst), event, component)
        for src, dst, event, component in old.edges
    }
    report.added_pairs = sorted(new.edges - mapped_old)
    report.removed_pairs = sorted(mapped_old - new.edges)
    return report
