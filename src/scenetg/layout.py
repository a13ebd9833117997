"""Component trees: parse uiautomator-style hierarchy dumps and answer structural queries.

The dump format is an XML document with root element ``hierarchy`` and one
``node`` element per component. Booleans are the strings ``true``/``false``
and bounds use the ``[l,t][r,b]`` form.
"""

from __future__ import annotations

import functools
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Iterator, Optional
from xml.sax.saxutils import quoteattr

from .errors import MissingAttribute, ParseError

_BOUNDS_RE = re.compile(r"^\[(-?\d+),(-?\d+)\]\[(-?\d+),(-?\d+)\]$")


@dataclass(frozen=True)
class Bounds:
    left: int = 0
    top: int = 0
    right: int = 0
    bottom: int = 0

    def __post_init__(self):
        if self.left > self.right or self.top > self.bottom:
            raise ValueError(f"degenerate bounds {self}")

    @classmethod
    def parse(cls, text: str) -> "Bounds":
        m = _BOUNDS_RE.match(text.strip())
        if not m:
            raise ParseError(f"malformed bounds attribute: {text!r}")
        try:
            return cls(*map(int, m.groups()))
        except ValueError:
            raise ParseError(f"degenerate bounds attribute: {text!r}") from None

    def render(self) -> str:
        return f"[{self.left},{self.top}][{self.right},{self.bottom}]"


@dataclass
class ComponentNode:
    widget_class: str
    package: str
    resource_id: str = ""
    text: str = ""
    bounds: Bounds = field(default_factory=Bounds)
    clickable: bool = False
    checkable: bool = False
    checked: bool = False
    enabled: bool = False
    scrollable: bool = False
    long_clickable: bool = False
    index: int = 0
    children: list["ComponentNode"] = field(default_factory=list)

    def iter_subtree(self) -> Iterator["ComponentNode"]:
        yield self
        for child in self.children:
            yield from child.iter_subtree()


@dataclass
class ComponentTree:
    """One page, a read-only snapshot. What is derived from it is kept on it: the index
    `NodeIndex.of` builds and the explorer's state key. A copy or pickle drops both,
    so it indexes and keys anew."""

    root: ComponentNode
    source_activity: str
    _index: Optional["NodeIndex"] = field(default=None, init=False, repr=False, compare=False)
    _state_key: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        # The class-level None defaults stand in for the dropped fields.
        return {"root": self.root, "source_activity": self.source_activity}


@dataclass(frozen=True)
class Selector:
    """Matches a node iff every present field equals the node's field."""

    resource_id: Optional[str] = None
    widget_class: Optional[str] = None
    bounds: Optional[Bounds] = None

    def __post_init__(self):
        if self.resource_id is None and self.widget_class is None and self.bounds is None:
            raise ValueError("selector needs at least one field")

    def matches(self, node: ComponentNode) -> bool:
        if self.resource_id is not None and node.resource_id != self.resource_id:
            return False
        if self.widget_class is not None and node.widget_class != self.widget_class:
            return False
        if self.bounds is not None and node.bounds != self.bounds:
            return False
        return True

    def describe(self) -> str:
        if self.resource_id is not None:
            return self.resource_id
        if self.widget_class is not None:
            return self.widget_class
        return self.bounds.render()


# Distinct bounds texts kept parsed. Bounds is frozen, so every node whose
# bounds text is the same can share one instance; a text that fails raises
# each time it is seen (lru_cache keeps results, never exceptions).
BOUNDS_CACHE_SIZE = 4096
_bounds = functools.lru_cache(maxsize=BOUNDS_CACHE_SIZE)(Bounds.parse)
_NO_BOUNDS = Bounds()


def _node_from_element(elem: ET.Element, position: int) -> ComponentNode:
    # The node's own attributes are checked before its children are built, so
    # the first bad node in document order is the one reported.
    get = elem.attrib.get
    widget_class, package = get("class"), get("package")
    if widget_class is None:
        raise MissingAttribute("node is missing the 'class' attribute")
    if package is None:
        raise MissingAttribute("node is missing the 'package' attribute")
    bounds, index = get("bounds"), get("index")
    try:
        index = position if index is None else int(index)
    except ValueError:
        raise ParseError(f"malformed index attribute: {index!r}") from None
    return ComponentNode(  # positional, in field order
        widget_class,
        package,
        get("resource-id", ""),
        get("text", ""),
        _NO_BOUNDS if bounds is None else _bounds(bounds),
        get("clickable") == "true",
        get("checkable") == "true",
        get("checked") == "true",
        get("enabled") == "true",
        get("scrollable") == "true",
        get("long-clickable") == "true",
        index,
        [_node_from_element(c, i) for i, c in enumerate(elem) if c.tag == "node"],
    )


# What `serialize_tree` writes around its node lines, one to a line;
# `_parse_written` and `_check_written` accept that form and no other.
_WRITTEN_HEAD = '<?xml version="1.0" encoding="UTF-8"?>\n<hierarchy>\n'
_WRITTEN_TAIL = "\n</hierarchy>\n"
# A string value XML keeps as it is: no quote, `&` or `<`, no control character
# (XML rewrites tab, newline and CR, and rejects the rest), no surrogate and
# neither U+FFFE nor U+FFFF.
_WRITTEN_VALUE = r'"([^"&<\x00-\x1f\ud800-\udfff\ufffe\uffff]*)"'
_WRITTEN_FLAG = '"(true|false)"'
_WRITTEN_LINE = re.compile(
    " *(?:</node>|<node"
    ' index="([0-9]+)"'
    f" class={_WRITTEN_VALUE} package={_WRITTEN_VALUE} resource-id={_WRITTEN_VALUE} text={_WRITTEN_VALUE}"
    f" clickable={_WRITTEN_FLAG} checkable={_WRITTEN_FLAG} checked={_WRITTEN_FLAG}"
    f" enabled={_WRITTEN_FLAG} scrollable={_WRITTEN_FLAG} long-clickable={_WRITTEN_FLAG}"
    r' bounds="(\[-?[0-9]+,-?[0-9]+\]\[-?[0-9]+,-?[0-9]+\])"( /)?>)'
).fullmatch
# Deeper nesting goes to the general parse. The bound is far below the ~500
# levels where that parse's recursion stops, so the fast path builds no tree
# the general parse would refuse, and `diff_trees` never recurses deeper.
_WRITTEN_MAX_DEPTH = 100


def _parse_written(text: str, source_activity: str) -> Optional[ComponentTree]:
    """The tree of a dump in exactly the form `serialize_tree` writes, or None for any other text.

    None hands the text to the general parse, which builds the same tree or
    reports the error; so this never raises.
    """
    if not (text.startswith(_WRITTEN_HEAD) and text.endswith(_WRITTEN_TAIL)):
        return None
    roots: list[ComponentNode] = []
    stack = [roots]  # the children list of each open node, under the roots
    try:
        for line in text[len(_WRITTEN_HEAD) : -len(_WRITTEN_TAIL)].split("\n"):
            m = _WRITTEN_LINE(line)
            if m is None:
                return None
            index, cls, pkg, rid, txt, clk, chk, chd, ena, scr, lng, bounds, leaf = m.groups()
            if index is None:  # </node>
                if len(stack) == 1:
                    return None
                stack.pop()
                continue
            if len(stack) > _WRITTEN_MAX_DEPTH:
                return None
            kids: list[ComponentNode] = []
            stack[-1].append(
                ComponentNode(  # positional, in field order
                    cls,
                    pkg,
                    rid,
                    txt,
                    _bounds(bounds),
                    clk == "true",
                    chk == "true",
                    chd == "true",
                    ena == "true",
                    scr == "true",
                    lng == "true",
                    int(index),
                    kids,
                )
            )
            if leaf is None:
                stack.append(kids)
    except (ParseError, ValueError):  # degenerate bounds; an index past int's digit limit
        return None
    if len(stack) != 1 or len(roots) != 1:
        return None
    return ComponentTree(root=roots[0], source_activity=source_activity)


def _check_written(text: str) -> bool:
    """Whether `_parse_written` builds a tree from `text`: its walk and rules, building no node.

    The same line pattern, `bounds` and `index` checks, depth bound, close
    rule and single-root rule; so True exactly where `_parse_written` returns
    a tree.
    """
    if not (text.startswith(_WRITTEN_HEAD) and text.endswith(_WRITTEN_TAIL)):
        return False
    depth = roots = 0
    try:
        for line in text[len(_WRITTEN_HEAD) : -len(_WRITTEN_TAIL)].split("\n"):
            m = _WRITTEN_LINE(line)
            if m is None:
                return False
            index, bounds, leaf = m.group(1, 12, 13)
            if index is None:  # </node>
                if depth == 0:
                    return False
                depth -= 1
                continue
            if depth == 0:
                roots += 1
            elif depth >= _WRITTEN_MAX_DEPTH:
                return False
            _bounds(bounds)
            int(index)
            if leaf is None:
                depth += 1
    except (ParseError, ValueError):  # degenerate bounds; an index past int's digit limit
        return False
    return depth == 0 and roots == 1


def _parse_general(text: str, source_activity: str) -> ComponentTree:
    """The ElementTree parse, for a dump in any form; a bad one raises ParseError or MissingAttribute."""
    try:
        root_elem = ET.fromstring(text)
    except (ET.ParseError, UnicodeEncodeError) as exc:  # the latter for a lone surrogate: ET encodes text first
        line, column = getattr(exc, "position", None) or (None, None)
        raise ParseError(f"malformed hierarchy dump: {exc}", line=line, column=column) from exc
    if root_elem.tag == "hierarchy":
        node_elems = [c for c in root_elem if c.tag == "node"]
        if len(node_elems) != 1:
            raise ParseError(f"hierarchy must contain exactly one root node, found {len(node_elems)}")
        root_elem = node_elems[0]
    elif root_elem.tag != "node":
        raise ParseError(f"unexpected root element {root_elem.tag!r}")
    try:
        root = _node_from_element(root_elem, 0)
    except RecursionError:
        raise ParseError("hierarchy nested too deeply to parse") from None
    return ComponentTree(root=root, source_activity=source_activity)


def parse_hierarchy_dump(text: str, source_activity: str) -> ComponentTree:
    """Parse a hierarchy dump into a ComponentTree, preserving nesting and sibling order.

    Text in exactly the form `serialize_tree` writes takes a line-pattern fast
    path; any other text is parsed by ElementTree.
    """
    tree = _parse_written(text, source_activity)
    return tree if tree is not None else _parse_general(text, source_activity)


def check_hierarchy_dump(text: str) -> None:
    """Raise what `parse_hierarchy_dump` raises for `text`, if anything.

    Text in the writer's form is checked line by line and builds no node;
    any other text goes through the ElementTree parse.
    """
    if not _check_written(text):
        _parse_general(text, "")


def _flag(on: bool) -> str:
    return "true" if on else "false"


# The characters that make quoteattr rewrite a value or change its quotes; a
# value without any is written as it is, in double quotes, which is what
# quoteattr would give.
_NEEDS_QUOTEATTR = re.compile('[&<>"\n\r\t]').search


def _quote(value: str) -> str:
    return quoteattr(value) if _NEEDS_QUOTEATTR(value) else f'"{value}"'


def _render_node(node: ComponentNode, out: list, depth: int) -> None:
    # Only the four string fields can hold characters that need escaping; the
    # index, flags and bounds are digits, true/false and "[l,t][r,b]".
    pad = "  " * depth
    line = (
        f'index="{node.index}" class={_quote(node.widget_class)} package={_quote(node.package)} '
        f"resource-id={_quote(node.resource_id)} text={_quote(node.text)} "
        f'clickable="{_flag(node.clickable)}" checkable="{_flag(node.checkable)}" checked="{_flag(node.checked)}" '
        f'enabled="{_flag(node.enabled)}" scrollable="{_flag(node.scrollable)}" '
        f'long-clickable="{_flag(node.long_clickable)}" bounds="{node.bounds.render()}"'
    )
    if node.children:
        out.append(f"{pad}<node {line}>")
        for child in node.children:
            _render_node(child, out, depth + 1)
        out.append(f"{pad}</node>")
    else:
        out.append(f"{pad}<node {line} />")


def serialize_tree(tree: ComponentTree) -> str:
    """Render a ComponentTree back into dump text (inverse of parse on the read attributes)."""
    out: list[str] = []
    _render_node(tree.root, out, 1)
    return _WRITTEN_HEAD + "\n".join(out) + _WRITTEN_TAIL


# Standard adapter-backed widgets, matched by class simple-name suffix so that
# support-library variants (e.g. AppCompatSpinner) are covered.
ADAPTER_VIEW_SUFFIXES = (
    "ListView",
    "ExpandableListView",
    "GridView",
    "RecyclerView",
    "Spinner",
    "ViewPager",
    "Gallery",
    "StackView",
)


def is_adapter_view(node: ComponentNode) -> bool:
    simple = node.widget_class.rsplit(".", 1)[-1]
    return simple.endswith(ADAPTER_VIEW_SUFFIXES)


def children(node: ComponentNode, target_package: str, collapse_adapters: bool = False) -> list[ComponentNode]:
    """The node's target-package children; an adapter view keeps only its first when collapsing."""
    kids = [c for c in node.children if c.package == target_package]
    if collapse_adapters and is_adapter_view(node):
        return kids[:1]
    return kids


def bfs_nodes(tree: ComponentTree, target_package: str, collapse_adapters: bool = False) -> list[ComponentNode]:
    """Breadth-first node order under the `children` rule.

    Foreign-package nodes are dropped with their whole subtree; with
    `collapse_adapters`, adapters inside a kept first child are collapsed too.
    """
    if tree.root.package != target_package:
        return []
    order = [tree.root]
    for node in order:  # the list is the queue: it grows while being walked
        if node.children:
            order.extend(children(node, target_package, collapse_adapters))
    return order


class NodeIndex:
    """One tree's `bfs_nodes` order, walked once, and the first node of that order per resource id.

    `match` is what a selector means to the engine and the simulator alike:
    the first node of the order the selector matches, or None. A tree's
    index goes stale if the tree is changed after it was built.
    """

    __slots__ = ("package", "order", "by_rid")

    def __init__(self, tree: ComponentTree, target_package: str):
        self.package = target_package
        self.order = bfs_nodes(tree, target_package)
        # Filled from the back, so the node that stays for an id is its first in the order.
        self.by_rid = {node.resource_id: node for node in reversed(self.order)}

    @classmethod
    def of(cls, tree: ComponentTree, target_package: str) -> "NodeIndex":
        """The tree's index, built the first time any caller asks and kept on the tree."""
        index = tree._index
        if index is None or index.package != target_package:
            index = tree._index = cls(tree, target_package)
        return index

    def match(self, selector: Selector) -> Optional[ComponentNode]:
        if selector.resource_id is not None:
            node = self.by_rid.get(selector.resource_id)
            if node is None or selector.matches(node):
                return node
            # The first node with this id fails the selector's other fields; a later one may not.
        return next((n for n in self.order if selector.matches(n)), None)
