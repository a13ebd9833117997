"""Deterministic in-memory app backend implementing the driver contract.

An AppModel is a declarative JSON description of a mock app: activities, their
scenes, widgets (with optional visibility conditions), and guarded transitions.
A session renders component trees from the current scene and widget states, so
exploration runs byte-identically for a fixed (model, seed).
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Callable, NamedTuple, Optional

from .errors import DanglingReference, DriverError, SchemaError, SelectorNotFound
from .graphs import parse_json, read_text
from .icc import ExtraType, IccMessage
from .layout import BOUNDS_CACHE_SIZE, Bounds, ComponentNode, ComponentTree, NodeIndex, Selector


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
    widgets: list[WidgetModel]  # the top-level widgets, in render order
    transitions: list[TransitionModel]
    # The values of the state slots a render of the scene reads, from an activity
    # instance's per-widget dict: its own widgets, nested ones too, and every widget
    # their `visible_when` names. Set by `_parse_scenes`.
    shown: Callable[[dict], object] = lambda slots: ()


@dataclass
class ActivityModel:
    name: str
    scenes: dict[str, SceneModel]  # by name, in declaration order; the first is the entry scene
    widgets: dict[str, WidgetModel]  # every widget of every scene, nested ones too, by id
    directly_launchable: bool = True
    declared: bool = True
    launch_failure: Optional[LaunchReason] = None
    required_extras: list[tuple[str, ExtraType]] = field(default_factory=list)

    @property
    def entry_scene(self) -> SceneModel:
        return next(iter(self.scenes.values()))


@dataclass
class AppModel:
    package: str
    by_name: dict[str, ActivityModel]  # the activities by name, in declaration order
    seed_atg: list[tuple[str, str, str, str]] = field(default_factory=list)

    @property
    def activities(self) -> list[ActivityModel]:
        return list(self.by_name.values())

    def activity(self, name: str) -> Optional[ActivityModel]:
        return self.by_name.get(name)


# ---------------------------------------------------------------------------
# Model loading / validation


# The fields each model object may carry, with the exact type of each (so a
# bool is no int); None marks a field whose own reader checks it.
_MODEL_TYPES = {"package": str, "activities": list, "seed_atg": list}
_ACTIVITY_TYPES = {
    "name": str,
    "scenes": list,
    "directly_launchable": bool,
    "declared": bool,
    "launch_failure": None,
    "required_extras": list,
}
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
    "visible_when": None,
    "children": list,
}
_TRANSITION_TYPES = {
    "widget": str,
    "event": str,
    "target": None,
    "guard": None,
    "set_text": None,
    "increment": str,
    "clear_stack": bool,
}
_CONDITION_TYPES = {"widget": str, "checked": bool, "filled": bool}
_SET_TEXT_TYPES = {"widget": str, "value": str}
_SEED_ATG_TYPES = dict.fromkeys(("caller", "callee", "event", "component"))
_FAILURE_REASONS = [r.value for r in LaunchReason if r is not LaunchReason.OK]


def _typed(obj, where: str, types: dict, required: tuple = ()) -> dict:
    """`obj` checked to be an object with its `required` keys and only fields of `types`, each of its type."""
    if not isinstance(obj, dict):
        raise SchemaError(f"{where}: expected object")
    for key in required:
        if key not in obj:
            raise SchemaError(f"{where}: missing required field {key!r}")
    for key, value in obj.items():
        if key not in types:
            raise SchemaError(f"{where}.{key}: unknown field")
        kind = types[key]
        if kind is not None and type(value) is not kind:
            raise SchemaError(f"{where}.{key}: expected {kind.__name__}, got {type(value).__name__}")
    return obj


def _parse_condition(obj, where: str) -> Condition:
    _typed(obj, where, _CONDITION_TYPES, ("widget",))
    if "checked" in obj and "filled" in obj:
        raise SchemaError(f"{where}: condition has both 'checked' and 'filled'")
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


def _parse_widget(obj, where: str, widgets: dict) -> WidgetModel:
    """One widget, entered with its children into `widgets`: its activity's widgets by id, one state slot each."""
    _typed(obj, where, _WIDGET_TYPES, ("id", "class"))
    if obj["id"] in widgets:
        raise SchemaError(f"{where}.id: duplicate widget id {obj['id']!r} in activity")
    repeat = obj.get("repeat", 1)
    if repeat < 0:
        raise SchemaError(f"{where}.repeat: must be >= 0, got {repeat}")
    widget = widgets[obj["id"]] = WidgetModel(
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
    )
    widget.children = [_parse_widget(c, f"{where}.children[{i}]", widgets) for i, c in enumerate(obj.get("children", []))]
    return widget


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


def _parse_scenes(raw_scenes: list, where: str, launches: list) -> tuple[dict, dict]:
    """An activity's scenes by name and widgets by id, with the references within the activity checked.

    Each `activity:` target is appended to `launches` as (path, name), to be
    checked once every activity is declared.
    """
    scenes: dict[str, SceneModel] = {}
    widgets: dict[str, WidgetModel] = {}
    owned = []  # per scene: its path and its own widget ids, the run of `widgets` that its parse added
    for j, rs in enumerate(raw_scenes):
        sw = f"{where}.scenes[{j}]"
        name = _typed(rs, sw, _SCENE_TYPES, ("name",))["name"]
        if name in scenes:
            raise SchemaError(f"{sw}: duplicate scene name {name!r}")
        first = len(widgets)
        roots = [_parse_widget(w, f"{sw}.widgets[{k}]", widgets) for k, w in enumerate(rs.get("widgets", []))]
        transitions = [_parse_transition(t, f"{sw}.transitions[{k}]") for k, t in enumerate(rs.get("transitions", []))]
        scenes[name] = SceneModel(name, roots, transitions)
        owned.append((sw, list(widgets)[first:]))
    # Widget state is held per activity instance, so guards, effects, and
    # visibility conditions may reference widgets from any scene of the
    # activity; only a transition's trigger widget must live in its own scene.
    # A render of the scene reads only its own widgets' slots and those their
    # visibility conditions name, so those alone make its page state.
    for scene, (sw, own) in zip(scenes.values(), owned):
        shown = dict.fromkeys(own)
        for j, tr in enumerate(scene.transitions):
            tw = f"{sw}.transitions[{j}]"
            if tr.widget not in own:
                raise DanglingReference(f"{tw}: widget {tr.widget!r} not in scene {scene.name!r}")
            for cond in tr.guard:
                if cond.widget not in widgets:
                    raise DanglingReference(f"{tw}.guard: widget {cond.widget!r} not in activity")
            if tr.set_text and tr.set_text[0] not in widgets:
                raise DanglingReference(f"{tw}.set_text: widget {tr.set_text[0]!r} not in activity")
            if tr.increment and tr.increment not in widgets:
                raise DanglingReference(f"{tw}.increment: widget {tr.increment!r} not in activity")
            if tr.target:
                kind, target = tr.target
                if kind == "scene" and target not in scenes:
                    raise DanglingReference(f"{tw}.target: scene {target!r} not declared in activity")
                if kind == "activity":
                    launches.append((f"{tw}.target", target))
        for wid in own:
            for cond in widgets[wid].visible_when:
                if cond.widget not in widgets:
                    raise DanglingReference(f"{sw}: visible_when of widget {wid!r} references unknown {cond.widget!r}")
                shown[cond.widget] = None
        if shown:
            scene.shown = itemgetter(*shown)
    return scenes, widgets


def parse_app_model(doc: dict) -> AppModel:
    _typed(doc, "model", _MODEL_TYPES, ("package", "activities"))
    raw_acts = doc["activities"]
    if not raw_acts:
        raise SchemaError("model.activities: must not be empty")
    activities: dict[str, ActivityModel] = {}
    launches: list[tuple[str, str]] = []
    for i, raw in enumerate(raw_acts):
        where = f"model.activities[{i}]"
        name = _typed(raw, where, _ACTIVITY_TYPES, ("name", "scenes"))["name"]
        if not name:
            raise SchemaError(f"{where}.name: must not be empty")
        if name in activities:
            raise SchemaError(f"{where}.name: duplicate activity {name!r}")
        if not raw["scenes"]:
            raise SchemaError(f"{where}.scenes: activity needs an entry scene")
        scenes, widgets = _parse_scenes(raw["scenes"], where, launches)
        failure = raw.get("launch_failure")
        if failure is not None and failure not in _FAILURE_REASONS:
            raise SchemaError(f"{where}.launch_failure: unknown failure reason {failure!r}")
        extras = []
        for k, pair in enumerate(raw.get("required_extras", [])):
            if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)):
                raise SchemaError(f"{where}.required_extras[{k}]: expected [key, type] strings")
            if pair[1] not in ExtraType.__members__:
                raise SchemaError(f"{where}.required_extras[{k}]: unknown extra type {pair[1]!r}")
            if any(key == pair[0] for key, _ in extras):  # the launch reads one value per key
                raise SchemaError(f"{where}.required_extras[{k}]: duplicate extra key {pair[0]!r}")
            extras.append((pair[0], ExtraType[pair[1]]))
        activities[name] = ActivityModel(
            name=name,
            scenes=scenes,
            widgets=widgets,
            directly_launchable=raw.get("directly_launchable", True),
            declared=raw.get("declared", True),
            launch_failure=LaunchReason(failure) if failure is not None else None,
            required_extras=extras,
        )
    seed_atg = []
    for i, raw in enumerate(doc.get("seed_atg", [])):
        where = f"model.seed_atg[{i}]"
        if isinstance(raw, dict):
            _typed(raw, where, _SEED_ATG_TYPES)
            entry = (raw.get("caller"), raw.get("callee"), raw.get("event", "TAP"), raw.get("component"))
        elif isinstance(raw, (list, tuple)) and len(raw) == 4:
            entry = tuple(raw)
        else:
            raise SchemaError(f"{where}: expected [caller, callee, event, component]")
        if not all(isinstance(x, str) and x for x in entry):
            raise SchemaError(f"{where}: all four fields must be nonempty strings")
        if entry[2] != "TAP":  # a chain replays each hop as a tap, so its edge is a tap
            raise SchemaError(f"{where}.event: only 'TAP' is supported, got {entry[2]!r}")
        if entry[0] not in activities:
            raise DanglingReference(f"{where}.caller: activity {entry[0]!r} not declared")
        if entry[1] not in activities:
            raise DanglingReference(f"{where}.callee: activity {entry[1]!r} not declared")
        seed_atg.append(entry)
    for where, name in launches:
        if name not in activities:
            raise DanglingReference(f"{where}: activity {name!r} not declared")
    return AppModel(package=doc["package"], by_name=activities, seed_atg=seed_atg)


# A character no stored layout can carry: XML 1.0 has no form for a C0 control
# other than tab, LF and CR, nor for U+FFFE or U+FFFF, not even a character
# reference. A model string holding one would explore, and write a layout that
# no diff can read.
_UNWRITABLE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]").search
# The JSON escapes that can stand for one: \b, \f, \u0000-\u001f, \ufffe, \uffff.
# Tab, LF and CR escapes match too; the walk lets them pass.
_UNWRITABLE_ESCAPE = re.compile(r"\\(?:[bf]|u00[01]|u[fF]{3}[eEfF])").search


def _refuse_unwritable(doc: dict) -> None:
    """SchemaError at the first string of `doc`, in document order, that holds a character no layout can carry."""
    stack = [("model", doc)]
    while stack:
        where, value = stack.pop()
        if isinstance(value, str):
            bad = _UNWRITABLE(value)
            if bad:
                raise SchemaError(f"{where}: {bad.group()!r} cannot be written to a layout (XML 1.0 has no form for it)")
        elif isinstance(value, dict):
            stack.extend((f"{where}.{key}", child) for key, child in reversed(value.items()))
        elif isinstance(value, list):
            stack.extend((f"{where}[{i}]", value[i]) for i in reversed(range(len(value))))


def load_app_model(path) -> AppModel:
    text = read_text(path, "model", SchemaError)
    doc = parse_json(text, "model", SchemaError)
    # The text is scanned once, and the strings are walked only on a hit. JSON
    # refuses a raw control character in a string, so only U+FFFE and U+FFFF
    # can be there as themselves; anything else would be an escape.
    if "\ufffe" in text or "\uffff" in text or _UNWRITABLE_ESCAPE(text):
        _refuse_unwritable(doc)
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


# Distinct pages a session keeps rendered; past it the oldest is dropped, and a
# return to that page state renders it anew.
PAGE_CACHE_SIZE = 1024

_SCREEN = Bounds(0, 0, 1080, 1920)


@functools.lru_cache(maxsize=BOUNDS_CACHE_SIZE)
def _row(k: int) -> Bounds:
    """The bounds of the k-th 100 px row, one frozen instance for every node drawn in it."""
    return Bounds(0, k * 100, 1080, k * 100 + 100)


class _Page(NamedTuple):
    """One rendered page: its tree and the widget model behind each node (by `id(node)`)."""

    tree: ComponentTree
    owners: dict[int, WidgetModel]


class _ActivityInstance:
    """One activity instance's widget states: one slot per widget of the activity, by id, in model order."""

    def __init__(self, model: ActivityModel):
        self.model = model
        self.text = {wid: w.text for wid, w in model.widgets.items()}
        self.checked = {wid: w.checked for wid, w in model.widgets.items()}
        self.count = dict.fromkeys(model.widgets, 0)  # taps counted by `increment`; shown only through `text`

    def holds(self, cond: Condition) -> bool:
        if cond.prop == "checked":
            return self.checked[cond.widget] == cond.value
        return (self.text[cond.widget] != "") == cond.value

    def page_key(self, scene: SceneModel) -> tuple:
        """Everything `_render` reads of a frame on this instance showing `scene`."""
        return (self.model.name, scene.name, scene.shown(self.text), scene.shown(self.checked))


@dataclass
class _Frame:
    instance: _ActivityInstance
    scene: SceneModel


class SimulatorSession:
    """One deterministic app session; operations are strictly sequential."""

    def __init__(self, model: AppModel):
        self.model = model
        self._stack: list[_Frame] = []
        self._shots = 0
        # Every page rendered so far (up to PAGE_CACHE_SIZE), by `page_key`: a page state seen
        # again gives back the same tree. `_page` is the current one; None once an
        # action may have changed it.
        self._pages: dict[tuple, _Page] = {}
        self._page: Optional[_Page] = None

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
        for key, expected in activity.required_extras:
            if key not in supplied:
                return LaunchResult(LaunchReason.MISSING_EXTRA)
            got_type, value = supplied[key]
            if got_type is not expected or not _EXTRA_FORMATS[expected].match(value):
                return LaunchResult(LaunchReason.WRONG_TYPE)
        # A direct launch starts a fresh task: widget states reset per visit.
        self._stack = [_Frame(_ActivityInstance(activity), activity.entry_scene)]
        self._page = None
        return LaunchResult(LaunchReason.OK)

    def current_tree(self) -> ComponentTree:
        return self._current_page().tree

    def tap(self, selector: Selector) -> None:
        frame = self._top()
        widget = self._resolve(frame, selector)
        for tr in frame.scene.transitions:
            if tr.widget == widget.id and all(frame.instance.holds(c) for c in tr.guard):
                self._fire(frame, tr)
                return
        self._flip(frame, widget)

    def set_text(self, selector: Selector, value: str) -> None:
        frame = self._top()
        widget = self._resolve(frame, selector)
        frame.instance.text[widget.id] = value
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
        return f"sim://{frame.instance.model.name}/{frame.scene.name}/{self._shots}"

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
            checked = frame.instance.checked
            checked[widget.id] = not checked[widget.id]
            self._page = None

    def _fire(self, frame: _Frame, tr: TransitionModel) -> None:
        self._page = None
        instance = frame.instance
        if tr.set_text:
            wid, value = tr.set_text
            instance.text[wid] = value
        if tr.increment:
            instance.count[tr.increment] += 1
            instance.text[tr.increment] = str(instance.count[tr.increment])
        if tr.target is None:
            return
        kind, name = tr.target
        if kind == "scene":
            new_frame = _Frame(instance, instance.model.scenes[name])
        else:
            target = self.model.activity(name)
            new_frame = _Frame(_ActivityInstance(target), target.entry_scene)
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
                out.extend([w] * w.repeat)
        return out

    def _render_widget(self, widget: WidgetModel, instance: _ActivityInstance, index: int, owners: dict) -> ComponentNode:
        node = ComponentNode(  # positional, in field order
            widget.widget_class,
            self.model.package,
            self._resource_id(widget.rid or widget.id),
            instance.text[widget.id],
            _row(len(owners) + 1),  # preorder position: each widget node gets its own 100 px row
            widget.clickable,
            widget.checkable,
            instance.checked[widget.id],
            True,
            False,
            False,
            index,
            [],
        )
        owners[id(node)] = widget
        for i, child in enumerate(self._visible_widgets(widget.children, instance)):
            node.children.append(self._render_widget(child, instance, i, owners))
        return node

    def _current_page(self) -> _Page:
        """The top frame's page, rendered only the first time its page state is seen."""
        if self._page is None:
            frame = self._top()
            key = frame.instance.page_key(frame.scene)
            page = self._pages.get(key)
            if page is None:
                page = self._pages[key] = _Page(*self._render(frame))
                if len(self._pages) > PAGE_CACHE_SIZE:
                    del self._pages[next(iter(self._pages))]
            self._page = page
        return self._page

    def _render(self, frame: _Frame) -> tuple[ComponentTree, dict[int, WidgetModel]]:
        """A fresh tree of the frame's page, and the widget model behind each node (keyed by `id(node)`)."""
        owners: dict[int, WidgetModel] = {}
        root = ComponentNode(
            widget_class="android.widget.FrameLayout",
            package=self.model.package,
            resource_id="",
            bounds=_SCREEN,
            enabled=True,
            index=0,
        )
        for i, w in enumerate(self._visible_widgets(frame.scene.widgets, frame.instance)):
            root.children.append(self._render_widget(w, frame.instance, i, owners))
        return ComponentTree(root=root, source_activity=frame.instance.model.name), owners

    def _resolve(self, frame: _Frame, selector: Selector) -> WidgetModel:
        """The widget behind the node the selector picks on the current page (`NodeIndex.match`)."""
        page = self._current_page()
        widget = page.owners.get(id(NodeIndex.of(page.tree, self.model.package).match(selector)))
        if widget is None:
            raise SelectorNotFound(f"{selector.describe()!r} not on scene {frame.scene.name!r}")
        return widget


def simulate(model: AppModel) -> SimulatorSession:
    """Fresh session at the 'no app running' state."""
    return SimulatorSession(model)
