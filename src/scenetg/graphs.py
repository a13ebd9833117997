"""Activity and scene transition graphs: storage, caller queries, exports, metrics, file reading."""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Callable, Iterator

from .errors import CorruptRun, MissingEdge
from .layout import Selector


class EventKind(str, Enum):
    TAP = "TAP"
    SET_TEXT = "SET_TEXT"
    TOGGLE = "TOGGLE"


class EdgeOrigin(str, Enum):
    SEED = "SEED"
    DYNAMIC = "DYNAMIC"


@dataclass(frozen=True)
class ActivityEdge:
    caller: str
    callee: str
    event: EventKind
    component: Selector


@dataclass(frozen=True)
class SceneEdge:
    src: str
    dst: str
    event: EventKind
    component: Selector


@dataclass
class SceneNode:
    id: str
    owning_activity: str
    layout_ref: str
    screenshot_ref: str


class ActivityGraph:
    """Dynamically augmented ATG: one insertion-ordered dict from edge to origin.

    Inserts are idempotent; duplicates keep the earliest recorded origin (SEED
    wins over a later identical DYNAMIC edge). Edges are never removed, so
    `len` only grows.
    """

    def __init__(self):
        self._edges: dict[ActivityEdge, EdgeOrigin] = {}

    def add_edge(self, edge: ActivityEdge, origin: EdgeOrigin = EdgeOrigin.DYNAMIC) -> bool:
        if edge in self._edges:
            return False
        self._edges[edge] = origin
        return True

    def __len__(self) -> int:
        return len(self._edges)

    def edges(self) -> list[tuple[ActivityEdge, EdgeOrigin]]:
        return list(self._edges.items())

    def edge_action(self, caller: str, callee: str) -> tuple[EventKind, Selector]:
        """Earliest-discovered (event, component) that triggers caller -> callee."""
        for edge in self._edges:
            if edge.caller == caller and edge.callee == callee:
                return edge.event, edge.component
        raise MissingEdge(f"no edge {caller} -> {callee}")

    def caller_chains(self, target: str, launchable: Callable[[str], bool]) -> Iterator[list[str]]:
        """Chains [head, ..., target] whose head satisfies `launchable`, generated lazily.

        Yielded by (length ascending, lexicographic activity names); a chain
        never revisits an activity, and extension stops at a launchable head,
        so no activity between head and target is launchable. A length is
        enumerated only once the caller asks past every shorter chain, so the
        first chain costs polynomial time even where the chains are exponentially many.
        """
        callers: dict[str, set[str]] = {}
        for edge in self._edges:
            callers.setdefault(edge.callee, set()).add(edge.caller)
        # Reverse BFS through activities that are not launchable: dist[a] is the
        # fewest edges from a to target, a lower bound on any chain's rest from a.
        dist = {target: 0}
        heads: set[str] = set()
        frontier = [target]
        while frontier:
            reached = []
            for callee in frontier:
                for caller in callers.get(callee, ()):
                    if caller in dist or caller in heads:
                        continue
                    if launchable(caller):
                        heads.add(caller)
                    else:
                        dist[caller] = dist[callee] + 1
                        reached.append(caller)
            frontier = reached
        # The edges that can lie on a chain, by caller, callees in name order.
        succ: dict[str, list[str]] = {}
        for callee in sorted(dist):
            for caller in callers.get(callee, ()):
                if caller != target:
                    succ.setdefault(caller, []).append(callee)
        heads_in_order = sorted(heads)
        for length in range(1, len(dist) + 1):  # edges per chain
            for head in heads_in_order:
                path, on_path, pending = [head], {head}, [iter(succ[head])]
                while pending:
                    left = length - len(path)  # edges still to go after the next one
                    for callee in pending[-1]:
                        if callee == target:
                            if left == 0:
                                yield path + [target]
                        elif callee not in on_path and dist[callee] <= left:
                            path.append(callee)
                            on_path.add(callee)
                            pending.append(iter(succ.get(callee, ())))
                            break
                    else:
                        pending.pop()
                        on_path.discard(path.pop())


class SceneGraph:
    """SceneTG: hash-identified scene nodes plus labeled transition edges, both in discovery order."""

    def __init__(self):
        self.nodes: dict[str, SceneNode] = {}
        self._edges: dict[SceneEdge, None] = {}

    def add_node(self, scene_id: str, owning_activity: str, layout_ref: str, screenshot_ref: str) -> None:
        """Record a scene; first discovery wins (ownership and refs are kept)."""
        if scene_id not in self.nodes:
            self.nodes[scene_id] = SceneNode(scene_id, owning_activity, layout_ref, screenshot_ref)

    def add_edge(self, edge: SceneEdge) -> bool:
        if edge in self._edges:
            return False
        if edge.src not in self.nodes or edge.dst not in self.nodes:
            raise MissingEdge(f"edge endpoints must exist as scene nodes: {edge.src} -> {edge.dst}")
        self._edges[edge] = None
        return True

    def edges(self) -> list[SceneEdge]:
        return list(self._edges)


def stats(scenetg: SceneGraph) -> dict:
    activities = {node.owning_activity for node in scenetg.nodes.values()}
    return {
        "explored_activities": len(activities),
        "scenes": len(scenetg.nodes),
        "transition_pairs": len(scenetg.edges()),
    }


def scenetg_document(scenetg: SceneGraph, atg: ActivityGraph, package: str) -> dict:
    """The scenetg.json document; nodes and edges in discovery order, with a fixed timestamp."""
    return {
        "package": package,
        "generated_at": "0",
        "scenes": [
            {
                "id": n.id,
                "activity": n.owning_activity,
                "layout_ref": n.layout_ref,
                "screenshot_ref": n.screenshot_ref,
            }
            for n in scenetg.nodes.values()
        ],
        "scene_edges": [
            {"src": e.src, "dst": e.dst, "event": e.event.value, "component": e.component.describe()}
            for e in scenetg.edges()
        ],
        "atg_edges": [
            {
                "caller": e.caller,
                "callee": e.callee,
                "event": e.event.value,
                "component": e.component.describe(),
                "origin": origin.value,
            }
            for e, origin in atg.edges()
        ],
        "stats": stats(scenetg),
    }


def _dot(text: str) -> str:
    """`text` for the inside of a DOT quoted string: backslash and double quote escaped."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def export_dot(doc: dict) -> str:
    """DOT digraph of a scenetg.json document; scene nodes labeled with the 8-char id prefix plus activity."""
    lines = ["digraph scenetg {"]
    for scene in doc["scenes"]:
        sid = scene["id"]
        lines.append(f'  "{_dot(sid)}" [label="{_dot(sid[:8])}\\n{_dot(scene["activity"])}"];')
    for edge in doc["scene_edges"]:
        label = _dot(f"{edge['event']}/{edge['component']}")
        lines.append(f'  "{_dot(edge["src"])}" -> "{_dot(edge["dst"])}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# Top-level keys of a scenetg.json document, and the string fields of its scenes and edges.
_DOCUMENT_FIELDS = {"package": str, "scenes": list, "scene_edges": list, "atg_edges": list, "stats": dict}
_ENTRY_FIELDS = {
    "scenes": ("id", "activity", "layout_ref", "screenshot_ref"),
    "scene_edges": ("src", "dst", "event", "component"),
}


def read_text(path, where=None, error=CorruptRun) -> str:
    """The strict UTF-8 text of `path`: every file the package reads goes through here.

    `error` names `where` (the path by default) if the file cannot be opened or decoded.
    """
    try:
        with open(path, "rb", buffering=0) as fh:  # one read of the whole file, no buffer
            text = fh.read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{where or path}: not UTF-8 text: {exc}") from None
    except OSError as exc:
        raise error(f"{where or path}: cannot read: {exc}") from None
    # Universal newlines, as text mode reads them: CRLF and a lone CR become LF.
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def read_json(path, where=None, error=CorruptRun) -> dict:
    """A JSON file whose top level must be an object; `error` naming `where` otherwise, as in `read_text`."""
    where = where or path
    return parse_json(read_text(path, where, error), where, error)


def parse_json(text: str, where, error=CorruptRun) -> dict:
    """`text` decoded as JSON whose top level must be an object; `error` naming `where` otherwise."""
    try:
        value = json.loads(text)
        if "\\ud" in text or "\\uD" in text:  # JSON lets a surrogate escape stand alone; UTF-8 cannot encode that
            json.dumps(value, ensure_ascii=False).encode("utf-8")
    except ValueError as exc:  # malformed JSON or a lone surrogate
        raise error(f"{where}: invalid JSON: {exc}") from None
    except RecursionError:
        raise error(f"{where}: invalid JSON: nested too deeply") from None
    if not isinstance(value, dict):
        raise error(f"{where}: top level must be a JSON object")
    return value


def read_run_document(directory) -> dict:
    """The scenetg.json document of an explore output directory, with every field its readers use."""
    path = Path(directory) / "scenetg.json"
    doc = read_json(path)
    for key, kind in _DOCUMENT_FIELDS.items():
        if not isinstance(doc.get(key), kind):
            raise CorruptRun(f"{path}: {key}: missing or not a {kind.__name__}")
    for key, fields in _ENTRY_FIELDS.items():
        for i, entry in enumerate(doc[key]):
            if not isinstance(entry, dict) or not all(isinstance(entry.get(f), str) for f in fields):
                raise CorruptRun(f"{path}: {key}[{i}]: needs string fields {', '.join(fields)}")
    known = set()
    for i, scene in enumerate(doc["scenes"]):  # a repeated id would pair, diff and count one scene twice
        if scene["id"] in known:
            raise CorruptRun(f"{path}: scenes[{i}].id: repeats scene {scene['id']}")
        known.add(scene["id"])
    for i, edge in enumerate(doc["scene_edges"]):
        if edge["src"] not in known or edge["dst"] not in known:
            raise CorruptRun(
                f"{path}: scene_edges[{i}]: edge endpoints must exist as scenes: {edge['src']} -> {edge['dst']}"
            )
    return doc
