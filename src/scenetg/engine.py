"""Smart exploration: direct launch, state fuzzing, exhaustive per-activity
exploration, indirect launching, re-queue, and the ATG-growth stop rule."""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring_ascii as _json_str  # the C escaper of json.dumps(ensure_ascii=True)
from pathlib import Path
from typing import Callable, Optional

from . import identity
from .errors import DriverError, SelectorNotFound
from .graphs import ActivityEdge, ActivityGraph, EdgeOrigin, EventKind, SceneEdge, SceneGraph, stats
from .icc import build_icc, direct_launch, value_for_input_type
from .layout import ComponentNode, ComponentTree, NodeIndex, Selector, serialize_tree

# Non-transitive components fuzzed per page (2^cap assignments at most); the rest keep their defaults.
FUZZ_COMPONENT_CAP = 6
# Depth of in-activity scene expansion; back-press restores try this many presses plus two.
MAX_DEPTH_PER_ACTIVITY = 20


@dataclass
class ExplorationConfig:
    dynamic_timeout: float = 1800.0
    rng_seed: int = 0
    enable_fuzzing: bool = True
    enable_indirect: bool = True
    enable_scene_id: bool = True
    max_actions: Optional[int] = None  # driver actions (launches included) before the run stops partial

    def __post_init__(self):
        if not self.dynamic_timeout > 0:  # also rejects NaN, which would never time out
            raise ValueError("dynamic_timeout must be positive")
        if self.max_actions is not None and not (type(self.max_actions) is int and self.max_actions > 0):
            raise ValueError("max_actions must be a positive integer")


# Class simple-name suffixes covering support-library variants, each with the event that drives it.
_NON_TRANSITIVE_SUFFIXES = (
    ("EditText", EventKind.SET_TEXT),
    ("CheckBox", EventKind.TOGGLE),
    ("SwitchCompat", EventKind.TOGGLE),
    ("Switch", EventKind.TOGGLE),
    ("ToggleButton", EventKind.TOGGLE),
)


def non_transitive_kind(widget_class: str) -> Optional[EventKind]:
    """SET_TEXT for an EditText, TOGGLE for a two-state widget, None for any other class."""
    simple = widget_class.rsplit(".", 1)[-1]
    for suffix, kind in _NON_TRANSITIVE_SUFFIXES:
        if simple.endswith(suffix):
            return kind
    return None


def _selector_for(node: ComponentNode) -> Selector:
    if node.resource_id:
        return Selector(resource_id=node.resource_id)
    return Selector(widget_class=node.widget_class, bounds=node.bounds)


def fuzz_assignments(
    tree: ComponentTree,
    config: ExplorationConfig,
    target_package: str,
    input_type_lookup: Optional[Callable[[Selector], Optional[str]]] = None,
) -> list[list[tuple[EventKind, Selector, object]]]:
    """All 2^k widget-state combinations over the page's non-transitive components.

    Each assignment is a list of (event, selector, wanted state) steps: the text
    for SET_TEXT, checked or not for TOGGLE. Components are taken in BFS order;
    beyond the cap they stay pinned at their defaults. Assignment order is binary
    counting with the first component as the most significant bit, so
    assignment 0 is all-defaults.
    """
    pairs = []  # the (off, on) steps of each fuzzed component
    for node in NodeIndex.of(tree, target_package).order:
        event = non_transitive_kind(node.widget_class)
        if event is None:
            continue
        selector = _selector_for(node)
        if event is EventKind.TOGGLE:
            off, on = False, True
        else:
            itype = input_type_lookup(selector) if input_type_lookup else None
            off, on = "", value_for_input_type(itype or "text", config.rng_seed, salt=node.resource_id)
        pairs.append(((event, selector, off), (event, selector, on)))
        if len(pairs) == FUZZ_COMPONENT_CAP:
            break
    return [list(steps) for steps in itertools.product(*pairs)]


def _issue(driver, event: EventKind, selector: Selector, value) -> None:
    """Act out one path step; a TOGGLE flips the widget, whatever state the step names."""
    if event is EventKind.TAP:
        driver.tap(selector)
    elif event is EventKind.SET_TEXT:
        driver.set_text(selector, value)
    else:
        driver.toggle(selector)


def apply_assignment(driver, assignment, target_package: str):
    """Drive the page into the requested widget states.

    Returns (events, missing): `events` is the list of steps actually issued
    (no-ops skipped), `missing` the selectors that matched nothing; missing
    entries never abort the rest of the assignment.
    """
    events = []
    missing = []
    for step in assignment:
        event, selector, value = step
        node = NodeIndex.of(driver.current_tree(), target_package).match(selector)
        if node is None:
            missing.append(selector)
        elif (node.text if event is EventKind.SET_TEXT else node.checked) != value:
            _issue(driver, event, selector, value)
            events.append(step)
    return events, missing


class ExplorationTimeout(Exception):
    """The run stops partial; `args[0]` is the report's `stop_reason`: "time" or "actions"."""


class _BudgetedDriver:
    """The driver as the explorer sees it: the one place that gates the calls that act.

    The call that would exceed `max_actions` raises ExplorationTimeout("actions"),
    and one made past `deadline` (a `time.monotonic()` reading, None for no limit)
    raises ExplorationTimeout("time"), both before it reaches the driver. The
    contract's other names are the driver's own, bound or forwarded here; the
    optional `input_type_of` is None for a driver without it. The explorer reaches
    the driver through these names alone.
    """

    def __init__(self, driver, max_actions: Optional[int]):
        self._driver = driver
        self._max_actions = max_actions
        self.actions = 0
        self.deadline: Optional[float] = None
        self.current_tree = driver.current_tree
        self.screenshot_ref = driver.screenshot_ref
        self.input_type_of = getattr(driver, "input_type_of", None)

    @property
    def running(self) -> bool:
        return self._driver.running

    def _act(self) -> None:
        if self.actions == self._max_actions:
            raise ExplorationTimeout("actions")
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ExplorationTimeout("time")
        self.actions += 1

    def launch_activity(self, icc):
        self._act()
        return self._driver.launch_activity(icc)

    def tap(self, selector) -> None:
        self._act()
        self._driver.tap(selector)

    def set_text(self, selector, value) -> None:
        self._act()
        self._driver.set_text(selector, value)

    def toggle(self, selector) -> None:
        self._act()
        self._driver.toggle(selector)

    def press_back(self) -> None:
        self._act()
        self._driver.press_back()


@dataclass
class _RunCtx:
    run_id: str
    expanded: set = field(default_factory=set)


@dataclass
class ExplorationResult:
    scenetg: SceneGraph
    atg: ActivityGraph
    report: dict
    trace: list[dict]
    paths: dict[str, list]
    layouts: dict[str, str]  # scene id -> layout text, in discovery order; write_outputs writes each


class Explorer:
    """One exploration session over one driver; strictly sequential."""

    def __init__(self, model, driver, config: ExplorationConfig):
        self.model = model
        self.driver = _BudgetedDriver(driver, config.max_actions)
        self.config = config
        self.package = model.package
        self._mode = (config.enable_scene_id, self.package)
        self.scenetg = SceneGraph()
        self.atg = ActivityGraph()
        self.trace: list[dict] = []
        self.paths: dict[str, list] = {}
        self.layouts: dict[str, str] = {}
        self.failed_direct: set[str] = set()
        self.launch_methods: dict[str, tuple] = {}
        self.outcomes: dict[str, dict] = {act.name: {} for act in model.activities}
        # resource id, or (class, bounds) without one -> the selector of that node. The states of a
        # page share its clickables, so each selector is built once per session.
        self._selectors: dict[object, Selector] = {}
        for caller, callee, event, component in model.seed_atg:
            selector = Selector(resource_id=f"{self.package}:id/{component}")
            self.atg.add_edge(
                ActivityEdge(caller, callee, EventKind(event), selector), EdgeOrigin.SEED
            )

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, action: str, activity: str = "", scene_id: str = "", selector: str = "", outcome: str = ""):
        self.trace.append(
            {
                "step": len(self.trace) + 1,
                "activity": activity,
                "scene_id": scene_id,
                "action": action,
                "selector": selector,
                "outcome": outcome,
            }
        )

    def _key(self, tree: ComponentTree) -> tuple[str, Optional[str]]:
        """The tree's state key and the text a raw-state key hashed (None under scene ids).

        Both are kept on the tree with the mode they were made under, so a tree object
        the driver returns again is keyed once; another mode or package keys it anew.
        """
        kept = tree._state_key
        if kept is None or kept[0] != self._mode:
            if self.config.enable_scene_id:
                key, xml = identity.scene_id(tree, self.package), None
            else:
                xml = serialize_tree(tree)
                key = identity.raw_state_id(xml)
            kept = tree._state_key = (self._mode, (key, xml))
        return kept[1]

    def _selector(self, node: ComponentNode) -> Selector:
        key = node.resource_id or (node.widget_class, node.bounds)
        selector = self._selectors.get(key)
        if selector is None:
            selector = self._selectors[key] = _selector_for(node)
        return selector

    def _record_scene(self, tree: ComponentTree, path: list) -> str:
        sid, xml = self._key(tree)
        if sid in self.scenetg.nodes:
            return sid
        self.scenetg.add_node(sid, tree.source_activity, f"layouts/{sid}.xml", self.driver.screenshot_ref())
        self.layouts[sid] = xml if xml is not None else serialize_tree(tree)
        self.paths[sid] = [[event.value, selector.describe()] for event, selector, _ in path]
        self._record("discover", tree.source_activity, sid, outcome="new scene")
        return sid

    # -- launching -----------------------------------------------------------

    def _try_direct(self, act) -> bool:
        icc = build_icc(act, self.config.rng_seed)
        result = direct_launch(self.driver, icc)
        self._record("launch", act.name, selector="", outcome=result.reason.value)
        if result.success:
            self.launch_methods[act.name] = ("direct", icc)
            self.failed_direct.discard(act.name)
            return True
        self.failed_direct.add(act.name)
        return False

    def _relaunch(self, act_name: str) -> bool:
        method = self.launch_methods.get(act_name)
        if method is None:
            return False
        kind, payload = method
        if kind == "direct":
            result = direct_launch(self.driver, payload)
            return result.success
        return self._launch_via_chain(payload)

    def _launch_via_chain(self, chain: list[str]) -> bool:
        head = self.model.activity(chain[0])
        if head is None or not self._try_direct(head):
            return False
        src_sid = self._record_scene(self.driver.current_tree(), [])
        for a, b in zip(chain, chain[1:]):
            event, component = self.atg.edge_action(a, b)
            tree = self.driver.current_tree()
            activity = tree.source_activity
            if NodeIndex.of(tree, self.package).match(component) is None:
                self._record("replay", activity, src_sid, component.describe(), "component missing")
                return False
            self.driver.tap(component)
            ntree = self.driver.current_tree()
            nact = ntree.source_activity
            self._record("tap", activity, src_sid, component.describe(), f"replay -> {nact}")
            if nact != b:
                return False
            dst_sid = self._record_scene(ntree, [])
            self.atg.add_edge(ActivityEdge(a, b, event, component))
            self.scenetg.add_edge(SceneEdge(src_sid, dst_sid, event, component))
            src_sid = dst_sid
        return True

    def _indirect_launch(self, target: str) -> Optional[list[str]]:
        """Try caller chains from the latest ATG; returns the successful chain."""

        def launchable(name: str) -> bool:
            act = self.model.activity(name)
            return act is not None and name not in self.failed_direct

        # A failed chain head lands in failed_direct, which lengthens the
        # candidate chains on the next pass, so ask again after each failure;
        # each pass enumerates chains only up to the first untried one.
        tried: set[tuple[str, ...]] = set()
        while True:
            chains = self.atg.caller_chains(target, launchable)
            chain = next((c for c in chains if tuple(c) not in tried), None)  # [head, ..., target]
            if chain is None:
                return None
            tried.add(tuple(chain))
            if self._launch_via_chain(chain):
                self._record("indirect", target, outcome="via " + " -> ".join(chain))
                return chain

    # -- exploration ---------------------------------------------------------

    def _explore_act(self, act) -> None:
        if self.config.enable_fuzzing:
            assignments = fuzz_assignments(self.driver.current_tree(), self.config, self.package, self.driver.input_type_of)
        else:
            assignments = [[]]
        for idx, assignment in enumerate(assignments):
            if idx > 0 and not self._relaunch(act.name):
                self._record("relaunch", act.name, outcome="failed; remaining assignments skipped")
                break
            events, missing = apply_assignment(self.driver, assignment, self.package)
            for event, selector, _ in events:
                self._record(event.value.lower(), act.name, selector=selector.describe(), outcome="fuzz")
            for selector in missing:
                self._record("fuzz", act.name, selector=selector.describe(), outcome="selector missing")
            run = _RunCtx(run_id=f"{act.name}#{idx}")
            try:
                self._explore_scene(run, depth=0, path=events)
            except (DriverError, SelectorNotFound) as exc:
                self._record("abort", act.name, outcome=f"driver error: {exc}")
                self.outcomes[act.name].setdefault("notes", []).append(str(exc))
                break

    def _explore_scene(self, run: _RunCtx, depth: int, path: list) -> None:
        tree = self.driver.current_tree()
        activity = tree.source_activity
        sid = self._record_scene(tree, path)
        if sid in run.expanded or depth >= MAX_DEPTH_PER_ACTIVITY:
            return
        run.expanded.add(sid)
        self._record("expand", activity, sid, outcome=f"run={run.run_id}")
        taps = [self._selector(n) for n in NodeIndex.of(tree, self.package).order if n.clickable]
        for selector in taps:
            self.driver.tap(selector)
            ntree = self.driver.current_tree()
            nact = ntree.source_activity
            if nact != activity:
                nsid = self._record_scene(ntree, [])
                self.atg.add_edge(ActivityEdge(activity, nact, EventKind.TAP, selector))
                self.scenetg.add_edge(SceneEdge(sid, nsid, EventKind.TAP, selector))
                self._record("tap", activity, sid, selector.describe(), f"activity -> {nact}")
                self._restore(activity, sid, path)
            else:
                nsid = self._key(ntree)[0]
                if nsid == sid:
                    self._record("tap", activity, sid, selector.describe(), "no scene change")
                    continue
                step = (EventKind.TAP, selector, None)
                self._record_scene(ntree, path + [step])
                self.scenetg.add_edge(SceneEdge(sid, nsid, EventKind.TAP, selector))
                self._record("tap", activity, sid, selector.describe(), f"scene -> {nsid[:8]}")
                self._explore_scene(run, depth + 1, path + [step])
                self._restore(activity, sid, path)

    def _restore(self, act_name: str, sid: str, path: list) -> None:
        """Back-press until the source scene is observed; otherwise relaunch and replay
        `path`, which holds every event issued on the fresh instance, fuzz events first."""
        for _ in range(MAX_DEPTH_PER_ACTIVITY + 2):
            if not self.driver.running:
                break
            tree = self.driver.current_tree()
            if tree.source_activity == act_name and self._key(tree)[0] == sid:
                return
            self.driver.press_back()
            self._record("back", tree.source_activity, outcome="rollback")
        if not self._relaunch(act_name):
            raise DriverError(f"cannot restore {act_name}: relaunch failed")
        for event, selector, value in path:
            _issue(self.driver, event, selector, value)
            self._record(event.value.lower(), act_name, selector=selector.describe(), outcome="replay")
        tree = self.driver.current_tree()
        if tree.source_activity != act_name or self._key(tree)[0] != sid:
            raise DriverError(f"cannot restore scene {sid[:8]} of {act_name}")

    # -- top level (the smart dynamic analysis loop) --------------------------

    def explore(self) -> ExplorationResult:
        config = self.config
        start = time.monotonic()
        self.driver.deadline = start + config.dynamic_timeout
        remaining = list(self.model.activities)
        rounds = 0
        stop_reason = None
        try:
            while remaining:
                rounds += 1
                atg_size = len(self.atg)
                next_round = []
                for act in remaining:
                    if self._try_direct(act):
                        self._explore_act(act)
                        self.outcomes[act.name]["outcome"] = "DIRECT"
                        continue
                    if not config.enable_indirect:
                        self.outcomes[act.name]["outcome"] = "FAILED"
                        continue
                    chain = self._indirect_launch(act.name)
                    if chain:
                        self.launch_methods[act.name] = ("chain", chain)
                        self._explore_act(act)
                        entry = self.outcomes[act.name]
                        entry["outcome"] = "INDIRECT"
                        entry["chain"] = chain
                    else:
                        entry = self.outcomes[act.name]
                        entry["attempts"] = entry.get("attempts", 0) + 1
                        next_round.append(act)
                # Stop rule: re-launch failures only while the ATG kept growing.
                if next_round and len(self.atg) > atg_size:
                    remaining = next_round
                else:
                    for act in next_round:
                        self.outcomes[act.name]["outcome"] = "FAILED"
                    remaining = []
        except ExplorationTimeout as stop:
            stop_reason = stop.args[0]
            outcome = "dynamic timeout reached" if stop_reason == "time" else "action budget spent"
            self._record("timeout", outcome=outcome + "; partial results")
        for entry in self.outcomes.values():
            entry.setdefault("outcome", "FAILED")
            entry.setdefault("attempts", 1)
        wall = time.monotonic() - start
        report = {
            "package": self.package,
            "seed": config.rng_seed,
            "config": asdict(config),
            "rounds": rounds,
            "partial": stop_reason is not None,
            "stop_reason": stop_reason,
            "wall_time_s": round(wall, 6),
            "outcomes": self.outcomes,
            "stats": stats(self.scenetg),
        }
        return ExplorationResult(self.scenetg, self.atg, report, self.trace, self.paths, self.layouts)


def explore(model, driver, config: ExplorationConfig, out_dir=None) -> ExplorationResult:
    """Explore in memory; `write_outputs` writes the run. `out_dir` is ignored: the
    benchmark's workloads and the acceptance tests, both kept fixed, still pass it."""
    return Explorer(model, driver, config).explore()


def _trace_line(record: dict) -> str:
    """One trace.log line: `json.dumps(record) + "\\n"` for a `_record` dict, keys in its order."""
    return (
        f'{{"step": {record["step"]}, "activity": {_json_str(record["activity"])}, '
        f'"scene_id": {_json_str(record["scene_id"])}, "action": {_json_str(record["action"])}, '
        f'"selector": {_json_str(record["selector"])}, "outcome": {_json_str(record["outcome"])}}}\n'
    )


def write_outputs(result: ExplorationResult, out_dir, package: str) -> None:
    """Write the full explore artifact set, each layout to the `layout_ref` scenetg.json records.

    scenetg.dot and atg.json are rendered from the scenetg.json document, the
    same input `scenetg export` reads back. trace.log has one JSON object per
    record, its strings escaped to ASCII by the C escaper `json.dumps` uses.
    """
    from .graphs import export_dot, scenetg_document  # resolved per call: perfbench/tracing.py wraps export_dot

    out = Path(out_dir)
    (out / "layouts").mkdir(parents=True, exist_ok=True)
    for sid, node in result.scenetg.nodes.items():
        (out / node.layout_ref).write_text(result.layouts[sid], encoding="utf-8")
    doc = scenetg_document(result.scenetg, result.atg, package)
    (out / "scenetg.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    (out / "scenetg.dot").write_text(export_dot(doc), encoding="utf-8")
    atg_doc = {"package": package, "atg_edges": doc["atg_edges"]}
    (out / "atg.json").write_text(json.dumps(atg_doc, indent=2) + "\n", encoding="utf-8")
    (out / "report.json").write_text(json.dumps(result.report, indent=2) + "\n", encoding="utf-8")
    (out / "paths.json").write_text(json.dumps(result.paths, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    with (out / "trace.log").open("w", encoding="utf-8") as fh:
        fh.writelines(map(_trace_line, result.trace))
