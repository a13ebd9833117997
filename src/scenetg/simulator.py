"""Deterministic in-memory app backend implementing the driver contract.

An AppModel is a declarative JSON description of a mock app: activities, their
scenes, widgets (with optional visibility conditions), and guarded transitions.
A session renders component trees from the current scene and widget states, so
exploration runs byte-identically for a fixed (model, seed).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

from .errors import DanglingReference, DriverError, SchemaError, SelectorNotFound
from .graphs import EventKind
from .icc import ExtraType, IccMessage
from .layout import Bounds, ComponentNode, ComponentTree, Selector, bfs_nodes


class LaunchReason(str, Enum):
    OK = "OK"
    NOT_EXPORTED = "NOT_EXPORTED"
    MISSING_EXTRA = "MISSING_EXTRA"
    WRONG_TYPE = "WRONG_TYPE"
    UNDECLARED = "UNDECLARED"


@dataclass(frozen=True)
class LaunchResult:
    reason: LaunchReason

    @property
    def success(self) -> bool:
        return self.reason is LaunchReason.OK


@dataclass(frozen=True)
class Condition:
    widget: str
    prop: str  # "checked" or "filled"
    value: bool


@dataclass
class WidgetModel:
    id: str
    widget_class: str
    rid: Optional[str] = None  # rendered resource id; defaults to the widget id
    text: str = ""
    clickable: bool = False
    checkable: bool = False
    checked: bool = False
    input_type: Optional[str] = None
    repeat: int = 1
    visible_when: list[Condition] = field(default_factory=list)
    children: list["WidgetModel"] = field(default_factory=list)


@dataclass
class TransitionModel:
    widget: str  # every transition fires on a tap of this widget
    guard: list[Condition] = field(default_factory=list)
    target: Optional[tuple[str, str]] = None  # ("scene"|"activity", name)
    set_text: Optional[tuple[str, str]] = None  # (widget id, value)
    increment: Optional[str] = None  # widget id whose text counts taps
    clear_stack: bool = False


@dataclass
class SceneModel:
    name: str
    widgets: list[WidgetModel]
    transitions: list[TransitionModel]

    def widget_ids(self) -> set[str]:
        ids = set()

        def walk(widgets):
            for w in widgets:
                ids.add(w.id)
                walk(w.children)

        walk(self.widgets)
        return ids


@dataclass
class ActivityModel:
    name: str
    scenes: list[SceneModel]
    directly_launchable: bool = True
    declared: bool = True
    launch_failure: Optional[LaunchReason] = None
    required_extras: list[tuple[str, str]] = field(default_factory=list)

    @property
    def entry_scene(self) -> SceneModel:
        return self.scenes[0]

    def scene(self, name: str) -> SceneModel:
        for s in self.scenes:
            if s.name == name:
                return s
        raise KeyError(name)


@dataclass
class AppModel:
    package: str
    activities: list[ActivityModel]
    seed_atg: list[tuple[str, str, str, str]] = field(default_factory=list)

    def activity(self, name: str) -> Optional[ActivityModel]:
        for a in self.activities:
            if a.name == name:
                return a
        return None


# ---------------------------------------------------------------------------
# Model loading / validation


# The exact type of each field a model object may carry (so a bool is no int).
_MODEL_TYPES = {"package": str, "activities": list, "seed_atg": list}
_ACTIVITY_TYPES = {"name": str, "scenes": list, "directly_launchable": bool, "declared": bool, "required_extras": list}
_SCENE_TYPES = {"name": str, "widgets": list, "transitions": list}
_WIDGET_TYPES = {
    "id": str,
    "class": str,
    "rid": str,
    "text": str,
    "clickable": bool,
    "checkable": bool,
    "checked": bool,
    "input_type": str,
    "repeat": int,
    "children": list,
}
_TRANSITION_TYPES = {"widget": str, "event": str, "increment": str, "clear_stack": bool}
_CONDITION_TYPES = {"widget": str, "checked": bool, "filled": bool}
_SET_TEXT_TYPES = {"widget": str, "value": str}
_FAILURE_REASONS = [r.value for r in LaunchReason if r is not LaunchReason.OK]


def _typed(obj, where: str, types: dict, required: tuple = ()) -> dict:
    """`obj` checked to be an object with its `required` keys and every present field of its type."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected object")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{where}: missing required field {key!r}")
    for key, value in obj.items():
        kind = types.get(key)
        if kind is not None and type(value) is not kind:
            raise SchemaError(f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return obj


def _parse_condition(obj, where: str) -> Condition:
    _typed(obj, where, _CONDITION_TYPES, ("widget",))
    for prop in ("checked", "filled"):
        if prop in obj:
            return Condition(obj["widget"], prop, obj[prop])
    raise SchemaError(f"{where}: condition needs 'checked' or 'filled'")


def _parse_conditions(obj, where: str) -> list[Condition]:
    if obj is None:
        return []
    if isinstance(obj, dict):
        obj = [obj]
    if not isinstance(obj, list):
        raise SchemaError(f"{where}: expected a condition or list of conditions")
    return [_parse_condition(c, f"{where}[{i}]") for i, c in enumerate(obj)]


def _parse_widget(obj, where: str, seen: set) -> WidgetModel:
    """One widget; `seen` holds the ids taken so far in its activity, which keeps one state slot per id."""
    _typed(obj, where, _WIDGET_TYPES, ("id", "class"))
    if obj["id"] in seen:
        raise SchemaError(f"{where}.id: duplicate widget id {obj['id']!r} in activity")
    seen.add(obj["id"])
    repeat = obj.get("repeat", 1)
    if repeat < 0:
        raise SchemaError(f"{where}.repeat: must be >= 0, got {repeat}")
    children = [_parse_widget(c, f"{where}.children[{i}]", seen) for i, c in enumerate(obj.get("children", []))]
    return WidgetModel(
        id=obj["id"],
        widget_class=obj["class"],
        rid=obj.get("rid"),
        text=obj.get("text", ""),
        clickable=obj.get("clickable", False),
        checkable=obj.get("checkable", False),
        checked=obj.get("checked", False),
        input_type=obj.get("input_type"),
        repeat=repeat,
        visible_when=_parse_conditions(obj.get("visible_when"), f"{where}.visible_when"),
        children=children,
    )


def _parse_transition(obj, where: str) -> TransitionModel:
    _typed(obj, where, _TRANSITION_TYPES, ("widget",))
    if obj.get("event", "tap") != "tap":
        raise SchemaError(f"{where}.event: only 'tap' is supported, got {obj['event']!r}")
    target = None
    if obj.get("target") is not None:
        raw = obj["target"]
        if not isinstance(raw, str) or ":" not in raw:
            raise SchemaError(f"{where}.target: expected 'scene:<name>' or 'activity:<name>'")
        kind, _, name = raw.partition(":")
        if kind not in ("scene", "activity"):
            raise SchemaError(f"{where}.target: unknown target kind {kind!r}")
        target = (kind, name)
    set_text = None
    if obj.get("set_text") is not None:
        st = _typed(obj["set_text"], f"{where}.set_text", _SET_TEXT_TYPES, ("widget", "value"))
        set_text = (st["widget"], st["value"])
    return TransitionModel(
        widget=obj["widget"],
        guard=_parse_conditions(obj.get("guard"), f"{where}.guard"),
        target=target,
        set_text=set_text,
        increment=obj.get("increment"),
        clear_stack=obj.get("clear_stack", False),
    )


def _validate_activity(activity: ActivityModel, model: AppModel, where: str) -> None:
    scene_names = set()
    for i, scene in enumerate(activity.scenes):
        if scene.name in scene_names:
            raise SchemaError(f"{where}.scenes[{i}]: duplicate scene name {scene.name!r}")
        scene_names.add(scene.name)
    activity_names = {a.name for a in model.activities}
    # Widget state is held per activity instance, so guards, effects, and
    # visibility conditions may reference widgets from any scene of the
    # activity; only a transition's trigger widget must live in its own scene.
    activity_ids = set()
    for scene in activity.scenes:
        activity_ids |= scene.widget_ids()
    for i, scene in enumerate(activity.scenes):
        ids = scene.widget_ids()
        sw = f"{where}.scenes[{i}]"
        for j, tr in enumerate(scene.transitions):
            tw = f"{sw}.transitions[{j}]"
            if tr.widget not in ids:
                raise DanglingReference(f"{tw}: widget {tr.widget!r} not in scene {scene.name!r}")
            for cond in tr.guard:
                if cond.widget not in activity_ids:
                    raise DanglingReference(f"{tw}.guard: widget {cond.widget!r} not in activity")
            if tr.set_text and tr.set_text[0] not in activity_ids:
                raise DanglingReference(f"{tw}.set_text: widget {tr.set_text[0]!r} not in activity")
            if tr.increment and tr.increment not in activity_ids:
                raise DanglingReference(f"{tw}.increment: widget {tr.increment!r} not in activity")
            if tr.target:
                kind, name = tr.target
                if kind == "scene" and name not in scene_names:
                    raise DanglingReference(f"{tw}.target: scene {name!r} not declared in activity")
                if kind == "activity" and name not in activity_names:
                    raise DanglingReference(f"{tw}.target: activity {name!r} not declared")

        def check_conditions(widgets):
            for w in widgets:
                for cond in w.visible_when:
                    if cond.widget not in activity_ids:
                        raise DanglingReference(
                            f"{sw}: visible_when of widget {w.id!r} references unknown {cond.widget!r}"
                        )
                check_conditions(w.children)

        check_conditions(scene.widgets)


def parse_app_model(doc: dict) -> AppModel:
    _typed(doc, "model", _MODEL_TYPES, ("package", "activities"))
    raw_acts = doc["activities"]
    if not raw_acts:
        raise SchemaError("model.activities: must not be empty")
    activities = []
    seen = set()
    for i, raw in enumerate(raw_acts):
        where = f"model.activities[{i}]"
        name = _typed(raw, where, _ACTIVITY_TYPES, ("name", "scenes"))["name"]
        if name in seen:
            raise SchemaError(f"{where}.name: duplicate activity {name!r}")
        seen.add(name)
        raw_scenes = raw["scenes"]
        if not raw_scenes:
            raise SchemaError(f"{where}.scenes: activity needs an entry scene")
        scenes, widget_ids = [], set()
        for j, rs in enumerate(raw_scenes):
            sw = f"{where}.scenes[{j}]"
            _typed(rs, sw, _SCENE_TYPES, ("name",))
            widgets = [_parse_widget(w, f"{sw}.widgets[{k}]", widget_ids) for k, w in enumerate(rs.get("widgets", []))]
            transitions = [
                _parse_transition(t, f"{sw}.transitions[{k}]")
                for k, t in enumerate(rs.get("transitions", []))
            ]
            scenes.append(SceneModel(rs["name"], widgets, transitions))
        failure = raw.get("launch_failure")
        if failure is not None and failure not in _FAILURE_REASONS:
            raise SchemaError(f"{where}.launch_failure: unknown failure reason {failure!r}")
        extras = []
        for k, pair in enumerate(raw.get("required_extras", [])):
            if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)):
                raise SchemaError(f"{where}.required_extras[{k}]: expected [key, type] strings")
            if pair[1] not in ExtraType.__members__:
                raise SchemaError(f"{where}.required_extras[{k}]: unknown extra type {pair[1]!r}")
            extras.append((pair[0], pair[1]))
        activities.append(
            ActivityModel(
                name=name,
                scenes=scenes,
                directly_launchable=raw.get("directly_launchable", True),
                declared=raw.get("declared", True),
                launch_failure=LaunchReason(failure) if failure is not None else None,
                required_extras=extras,
            )
        )
    seed_atg = []
    for i, raw in enumerate(doc.get("seed_atg", [])):
        where = f"model.seed_atg[{i}]"
        if isinstance(raw, dict):
            entry = (raw.get("caller"), raw.get("callee"), raw.get("event", "TAP"), raw.get("component"))
        elif isinstance(raw, (list, tuple)) and len(raw) == 4:
            entry = tuple(raw)
        else:
            raise SchemaError(f"{where}: expected [caller, callee, event, component]")
        if not all(isinstance(x, str) and x for x in entry):
            raise SchemaError(f"{where}: all four fields must be nonempty strings")
        if entry[2] not in EventKind.__members__:
            raise SchemaError(f"{where}.event: unknown event {entry[2]!r}")
        if entry[0] not in seen:
            raise DanglingReference(f"{where}.caller: activity {entry[0]!r} not declared")
        if entry[1] not in seen:
            raise DanglingReference(f"{where}.callee: activity {entry[1]!r} not declared")
        seed_atg.append(entry)
    model = AppModel(package=doc["package"], activities=activities, seed_atg=seed_atg)
    for i, act in enumerate(model.activities):
        _validate_activity(act, model, f"model.activities[{i}]")
    return model


def load_app_model(path) -> AppModel:
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"model: invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("model: top level must be an object")
    return parse_app_model(doc)


# ---------------------------------------------------------------------------
# Session

_EXTRA_FORMATS = {
    ExtraType.STRING: re.compile(r"^.+$"),
    ExtraType.CHAR: re.compile(r"^[A-Za-z]$"),
    ExtraType.BOOLEAN: re.compile(r"^(true|false)$"),
    ExtraType.NUMBER: re.compile(r"^\d+$"),
    ExtraType.PHONE: re.compile(r"^\d{11}$"),
    ExtraType.DATE: re.compile(r"^\d{4}-\d{2}-\d{2}$"),
    ExtraType.TIME: re.compile(r"^([01]\d|2[0-3]):[0-5]\d$"),
    ExtraType.EMAIL: re.compile(r"^[^@\s]+@[^@\s]+$"),
}


class _ActivityInstance:
    def __init__(self, model: ActivityModel):
        self.model = model
        self.states: dict[str, dict] = {}
        self._init_states(model)

    def _init_states(self, model: ActivityModel):
        def walk(widgets):
            for w in widgets:
                self.states.setdefault(w.id, {"text": w.text, "checked": w.checked, "count": 0})
                walk(w.children)

        for scene in model.scenes:
            walk(scene.widgets)

    def holds(self, cond: Condition) -> bool:
        st = self.states[cond.widget]
        if cond.prop == "checked":
            return st["checked"] == cond.value
        return (st["text"] != "") == cond.value


@dataclass
class _Frame:
    instance: _ActivityInstance
    scene_name: str


class SimulatorSession:
    """One deterministic app session; operations are strictly sequential."""

    def __init__(self, model: AppModel):
        self.model = model
        self._stack: list[_Frame] = []
        self._shots = 0
        # The current page as `_render` returned it; None once an action may have changed it.
        self._page: Optional[tuple[ComponentTree, dict[int, WidgetModel]]] = None

    # -- driver contract ----------------------------------------------------

    @property
    def running(self) -> bool:
        return bool(self._stack)

    def launch_activity(self, icc: IccMessage) -> LaunchResult:
        activity = self.model.activity(icc.target_activity)
        if activity is None or not activity.declared:
            return LaunchResult(LaunchReason.UNDECLARED)
        if not activity.directly_launchable:
            return LaunchResult(activity.launch_failure or LaunchReason.NOT_EXPORTED)
        supplied = {key: (extra_type, value) for key, extra_type, value in icc.extras}
        for key, type_name in activity.required_extras:
            expected = ExtraType(type_name)
            if key not in supplied:
                return LaunchResult(LaunchReason.MISSING_EXTRA)
            got_type, value = supplied[key]
            if got_type is not expected or not _EXTRA_FORMATS[expected].match(value):
                return LaunchResult(LaunchReason.WRONG_TYPE)
        # A direct launch starts a fresh task: widget states reset per visit.
        self._stack = [_Frame(_ActivityInstance(activity), activity.entry_scene.name)]
        self._page = None
        return LaunchResult(LaunchReason.OK)

    def current_tree(self) -> ComponentTree:
        return self._current_page()[0]

    def tap(self, selector: Selector) -> None:
        frame = self._top()
        widget = self._resolve(frame, selector)
        for tr in frame.instance.model.scene(frame.scene_name).transitions:
            if tr.widget == widget.id and all(frame.instance.holds(c) for c in tr.guard):
                self._fire(frame, tr)
                return
        self._flip(frame, widget)

    def set_text(self, selector: Selector, value: str) -> None:
        frame = self._top()
        widget = self._resolve(frame, selector)
        frame.instance.states[widget.id]["text"] = value
        self._page = None

    def toggle(self, selector: Selector) -> None:
        frame = self._top()
        self._flip(frame, self._resolve(frame, selector))

    def press_back(self) -> None:
        if self._stack:
            self._stack.pop()
        self._page = None

    def screenshot_ref(self) -> str:
        frame = self._top()
        self._shots += 1
        return f"sim://{frame.instance.model.name}/{frame.scene_name}/{self._shots}"

    def input_type_of(self, selector: Selector) -> Optional[str]:
        frame = self._top()
        try:
            widget = self._resolve(frame, selector)
        except SelectorNotFound:
            return None
        return widget.input_type

    # -- internals ----------------------------------------------------------

    def _top(self) -> _Frame:
        if not self._stack:
            raise DriverError("no app running")
        return self._stack[-1]

    def _flip(self, frame: _Frame, widget: WidgetModel) -> None:
        if widget.checkable:
            st = frame.instance.states[widget.id]
            st["checked"] = not st["checked"]
            self._page = None

    def _fire(self, frame: _Frame, tr: TransitionModel) -> None:
        self._page = None
        if tr.set_text:
            wid, value = tr.set_text
            frame.instance.states[wid]["text"] = value
        if tr.increment:
            st = frame.instance.states[tr.increment]
            st["count"] += 1
            st["text"] = str(st["count"])
        if tr.target is None:
            return
        kind, name = tr.target
        if kind == "scene":
            new_frame = _Frame(frame.instance, name)
        else:
            target = self.model.activity(name)
            new_frame = _Frame(_ActivityInstance(target), target.entry_scene.name)
        if tr.clear_stack:
            self._stack = [new_frame]
        else:
            self._stack.append(new_frame)

    def _resource_id(self, wid: str) -> str:
        return f"{self.model.package}:id/{wid}" if wid else ""

    def _visible_widgets(self, widgets: list[WidgetModel], instance: _ActivityInstance):
        out = []
        for w in widgets:
            if all(instance.holds(c) for c in w.visible_when):
                out.extend([w] * max(1, w.repeat))
        return out

    def _render_widget(self, widget: WidgetModel, instance: _ActivityInstance, index: int, owners: dict) -> ComponentNode:
        k = len(owners) + 1  # preorder position: each widget node gets its own 100 px row
        st = instance.states[widget.id]
        node = ComponentNode(
            widget_class=widget.widget_class,
            package=self.model.package,
            resource_id=self._resource_id(widget.rid or widget.id),
            text=st["text"],
            bounds=Bounds(0, k * 100, 1080, k * 100 + 100),
            clickable=widget.clickable,
            checkable=widget.checkable,
            checked=st["checked"],
            enabled=True,
            index=index,
        )
        owners[id(node)] = widget
        for i, child in enumerate(self._visible_widgets(widget.children, instance)):
            node.children.append(self._render_widget(child, instance, i, owners))
        return node

    def _current_page(self) -> tuple[ComponentTree, dict[int, WidgetModel]]:
        """The top frame's page; rendered once, then reused until an action changes the page."""
        if self._page is None:
            self._page = self._render(self._top())
        return self._page

    def _render(self, frame: _Frame) -> tuple[ComponentTree, dict[int, WidgetModel]]:
        """A fresh tree of the frame's page, and the widget model behind each node (keyed by `id(node)`)."""
        scene = frame.instance.model.scene(frame.scene_name)
        owners: dict[int, WidgetModel] = {}
        root = ComponentNode(
            widget_class="android.widget.FrameLayout",
            package=self.model.package,
            resource_id="",
            bounds=Bounds(0, 0, 1080, 1920),
            enabled=True,
            index=0,
        )
        for i, w in enumerate(self._visible_widgets(scene.widgets, frame.instance)):
            root.children.append(self._render_widget(w, frame.instance, i, owners))
        return ComponentTree(root=root, source_activity=frame.instance.model.name), owners

    def _resolve(self, frame: _Frame, selector: Selector) -> WidgetModel:
        """The widget behind the first BFS node the selector matches: the node `match_component` picks."""
        tree, owners = self._current_page()
        node = next((n for n in bfs_nodes(tree, self.model.package) if selector.matches(n)), None)
        widget = owners.get(id(node))
        if widget is None:
            raise SelectorNotFound(f"{selector.describe()!r} not on scene {frame.scene_name!r}")
        return widget


def simulate(model: AppModel, seed: int = 0) -> SimulatorSession:
    """Fresh session at the 'no app running' state; the simulator is deterministic, so `seed` is unused."""
    return SimulatorSession(model)
