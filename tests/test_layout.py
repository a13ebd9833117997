import copy
import random
import re
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path
from xml.sax.saxutils import quoteattr

import pytest

from conftest import PKG, make_node, make_tree
from test_golden import ABLATIONS
from scenetg import benchmark_path
from scenetg.errors import MissingAttribute, ParseError, SceneTGError
from scenetg.layout import (
    BOUNDS_CACHE_SIZE,
    Bounds,
    ComponentNode,
    ComponentTree,
    NodeIndex,
    Selector,
    _bounds,
    _parse_written,
    bfs_nodes,
    parse_hierarchy_dump,
    serialize_tree,
)

DUMP = """<?xml version="1.0" encoding="UTF-8"?>
<hierarchy>
  <node index="0" class="android.widget.FrameLayout" package="com.example.app" bounds="[0,0][1080,1920]" enabled="true">
    <node index="0" class="android.widget.Button" package="com.example.app" resource-id="com.example.app:id/btn_ok" text="OK" clickable="true" enabled="true" bounds="[0,100][1080,200]" />
    <node index="1" class="android.widget.TextView" package="com.example.app" resource-id="com.example.app:id/lbl" text="hello" bounds="[0,200][1080,300]" />
    <node index="2" class="android.widget.FrameLayout" package="com.android.systemui" bounds="[0,300][1080,400]">
      <node index="0" class="android.widget.Button" package="com.android.systemui" clickable="true" bounds="[0,300][540,400]" />
    </node>
  </node>
</hierarchy>
"""


class TestBounds:
    def test_parse_render_roundtrip(self):
        b = Bounds.parse("[0,100][1080,200]")
        assert (b.left, b.top, b.right, b.bottom) == (0, 100, 1080, 200)
        assert b.render() == "[0,100][1080,200]"

    def test_negative_coordinates(self):
        assert Bounds.parse("[-5,-10][5,10]").left == -5

    def test_malformed_raises(self):
        with pytest.raises(ParseError):
            Bounds.parse("0,100,1080,200")

    def test_degenerate_raises(self):
        with pytest.raises(ValueError):
            Bounds(10, 0, 0, 5)

    @pytest.mark.parametrize("text", ["[10,0][0,5]", "[0,10][5,0]"])
    def test_parsing_degenerate_bounds_is_parse_error(self, text):
        with pytest.raises(ParseError, match="bounds"):
            Bounds.parse(text)


class TestParse:
    def test_structure_and_attributes(self):
        tree = parse_hierarchy_dump(DUMP, "MainActivity")
        assert tree.source_activity == "MainActivity"
        root = tree.root
        assert root.widget_class == "android.widget.FrameLayout"
        assert len(root.children) == 3
        button = root.children[0]
        assert button.resource_id == "com.example.app:id/btn_ok"
        assert button.text == "OK"
        assert button.clickable and button.enabled and not button.checked
        assert button.bounds == Bounds(0, 100, 1080, 200)
        assert root.children[2].package == "com.android.systemui"

    def test_missing_class_raises(self):
        with pytest.raises(MissingAttribute):
            parse_hierarchy_dump('<node package="p" />', "A")

    def test_missing_package_raises(self):
        with pytest.raises(MissingAttribute):
            parse_hierarchy_dump('<node class="c" />', "A")

    def test_malformed_xml_raises_with_position(self):
        with pytest.raises(ParseError) as exc:
            parse_hierarchy_dump("<hierarchy><node class='c'", "A")
        assert exc.value.line is not None

    @pytest.mark.parametrize(
        "dump",
        ['<node class="a\ud800" package="p"/>', '<hierarchy><node class="a\ud800" package="p"/></hierarchy>'],
        ids=["bare", "hierarchy"],
    )
    def test_lone_surrogate_is_parse_error(self, dump):
        # ElementTree encodes the text to UTF-8 before it parses, which a lone surrogate fails.
        with pytest.raises(ParseError, match="^malformed hierarchy dump: "):
            parse_hierarchy_dump(dump, "A")

    def test_hierarchy_needs_exactly_one_root_node(self):
        two = '<hierarchy><node class="c" package="p"/><node class="c" package="p"/></hierarchy>'
        with pytest.raises(ParseError):
            parse_hierarchy_dump(two, "A")

    @pytest.mark.parametrize(
        "attribute",
        ['bounds="[10,0][0,5]"', 'index="x"', 'index=""', 'index="1.5"'],
        ids=["bounds", "x", "empty", "float"],
    )
    def test_bad_value_is_parse_error(self, attribute):
        dump = f'<hierarchy><node class="c" package="p"><node class="c" package="p" {attribute} /></node></hierarchy>'
        with pytest.raises(ParseError):
            parse_hierarchy_dump(dump, "A")

    def test_unexpected_root_element(self):
        with pytest.raises(ParseError):
            parse_hierarchy_dump("<window />", "A")

    def test_serialize_parse_roundtrip(self):
        tree = parse_hierarchy_dump(DUMP, "MainActivity")
        again = parse_hierarchy_dump(serialize_tree(tree), "MainActivity")
        flat = lambda t: [
            (n.resource_id, n.widget_class, n.package, n.text, n.clickable, n.bounds)
            for n in t.root.iter_subtree()
        ]
        assert flat(tree) == flat(again)

    @pytest.mark.parametrize(
        "value",
        ['say "hi"', "it's", "\"both\" 'kinds'", "a & b", "a < b", "a > b", "a\nb", "a\tb"],
        ids=["dquote", "squote", "both-quotes", "amp", "lt", "gt", "newline", "tab"],
    )
    def test_escaped_text_and_resource_id(self, value):
        node = make_node(rid=f"x:id/{value}", text=value, bounds=Bounds(0, 100, 1080, 200), clickable=True)
        tree = make_tree(make_node(cls="android.widget.FrameLayout", children=[node]))
        assert serialize_tree(tree) == _quoteattr_everywhere(tree)
        back = parse_hierarchy_dump(serialize_tree(tree), "MainActivity").root.children[0]
        assert (back.resource_id, back.text, back.bounds, back.clickable) == (f"x:id/{value}", value, node.bounds, True)


    def test_quoting_only_when_needed_matches_quoteattr_everywhere(self):
        # Random strings over every character quoteattr rewrites, the single
        # quote it chooses around, and text outside ASCII.
        rng = random.Random(20231)
        alphabet = "&<>\"'\n\r\tab :/._é漢😀"

        def word():
            return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))

        def node(children=()):
            return make_node(rid=word(), cls=word(), package=word(), text=word(), children=children)

        for _ in range(300):
            tree = make_tree(node(children=[node() for _ in range(rng.randrange(3))]))
            assert serialize_tree(tree) == _quoteattr_everywhere(tree)


def _quoteattr_everywhere(tree):
    """Reference dump text: every attribute value passed through `quoteattr`."""
    out = ['<?xml version="1.0" encoding="UTF-8"?>', "<hierarchy>"]

    def render(node, depth):
        flag = lambda on: "true" if on else "false"
        attrs = [
            ("index", str(node.index)),
            ("class", node.widget_class),
            ("package", node.package),
            ("resource-id", node.resource_id),
            ("text", node.text),
            ("clickable", flag(node.clickable)),
            ("checkable", flag(node.checkable)),
            ("checked", flag(node.checked)),
            ("enabled", flag(node.enabled)),
            ("scrollable", flag(node.scrollable)),
            ("long-clickable", flag(node.long_clickable)),
            ("bounds", node.bounds.render()),
        ]
        pad = "  " * depth
        line = " ".join(f"{k}={quoteattr(v)}" for k, v in attrs)
        if not node.children:
            out.append(f"{pad}<node {line} />")
            return
        out.append(f"{pad}<node {line}>")
        for child in node.children:
            render(child, depth + 1)
        out.append(f"{pad}</node>")

    render(tree.root, 1)
    out.append("</hierarchy>")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# The parse before the bounds memo, kept as the reference the current one must
# agree with: the same tree field for field, or the same error.


def _reference_node(elem: ET.Element, position: int) -> ComponentNode:
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
    node = ComponentNode(
        widget_class=widget_class,
        package=package,
        resource_id=get("resource-id", ""),
        text=get("text", ""),
        bounds=Bounds() if bounds is None else Bounds.parse(bounds),
        clickable=get("clickable") == "true",
        checkable=get("checkable") == "true",
        checked=get("checked") == "true",
        enabled=get("enabled") == "true",
        scrollable=get("scrollable") == "true",
        long_clickable=get("long-clickable") == "true",
        index=index,
    )
    node.children = [_reference_node(c, i) for i, c in enumerate(elem) if c.tag == "node"]
    return node


def _reference_parse(text: str, source_activity: str) -> ComponentTree:
    try:
        root_elem = ET.fromstring(text)
    except ET.ParseError as exc:
        line, column = exc.position if exc.position else (None, None)
        raise ParseError(f"malformed hierarchy dump: {exc}", line=line, column=column) from exc
    if root_elem.tag == "hierarchy":
        node_elems = [c for c in root_elem if c.tag == "node"]
        if len(node_elems) != 1:
            raise ParseError(f"hierarchy must contain exactly one root node, found {len(node_elems)}")
        root_elem = node_elems[0]
    elif root_elem.tag != "node":
        raise ParseError(f"unexpected root element {root_elem.tag!r}")
    return ComponentTree(root=_reference_node(root_elem, 0), source_activity=source_activity)


def _outcome(parse, text):
    try:
        return parse(text, "A")
    except SceneTGError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


BAD_BOUNDS = ["[0,0][1,1", "0,0,1,1", "", "[a,0][1,1]", "[1.5,0][2,2]", "[10,0][0,5]", "[0,10][5,0]"]


def _mutate(kind, rng, hierarchy):
    """Apply one edit of `kind` to a random place of the parsed layout; returns the (new) document root."""
    nodes = list(hierarchy.iter("node"))
    if not nodes:  # an earlier edit removed every node
        return hierarchy
    parents = {child: parent for parent in hierarchy.iter() for child in parent}
    node = rng.choice(nodes)
    if kind in ("class", "package"):
        node.attrib.pop(kind, None)
    elif kind == "bad-index":
        node.set("index", rng.choice(["x", "", "1.5", " 2 ", "-3"]))
    elif kind == "no-index":
        # The position among all children applies, non-node elements counted.
        node.attrib.pop("index", None)
        if node in parents:
            parent = parents[node]
            parent.insert(rng.randrange(list(parent).index(node) + 1), ET.Element(rng.choice(["decor", "view"])))
    elif kind == "bad-bounds":
        node.set("bounds", rng.choice(BAD_BOUNDS))
    elif kind == "padded-bounds":
        text = rng.choice([node.get("bounds", "[0,0][0,0]")] * 3 + BAD_BOUNDS)
        node.set("bounds", rng.choice([" ", "\t", "\n "]) + text + rng.choice(["", " ", "\n"]))
    elif kind == "no-bounds":
        node.attrib.pop("bounds", None)
    elif kind == "wrap":
        # A non-node element hides the nodes inside it.
        if node in parents:
            parent = parents[node]
            wrapper = ET.Element("group")
            parent.insert(list(parent).index(node), wrapper)
            parent.remove(node)
            wrapper.append(node)
    elif kind == "two-roots":
        hierarchy.append(copy.deepcopy(nodes[0]))
    elif kind == "no-root":
        for child in [c for c in hierarchy if c.tag == "node"]:
            hierarchy.remove(child)
    elif kind == "foreign-root":
        hierarchy.tag = rng.choice(["window", "Hierarchy"])
    elif kind == "bare-node-root":
        return copy.deepcopy(nodes[0])
    return hierarchy


MUTATIONS = (
    "class", "package", "bad-index", "no-index", "bad-bounds", "padded-bounds",
    "no-bounds", "wrap", "two-roots", "no-root", "foreign-root", "bare-node-root",
)
BUNDLED = sorted(p.name for p in Path(str(benchmark_path("app01.json"))).parent.glob("*.json"))


def _bundled_layouts(runs):
    for name in BUNDLED:
        _, out, _ = runs.run(name)
        for path in sorted((out / "layouts").glob("*.xml")):
            yield path.read_text(encoding="utf-8")


class TestParseAgainstReference:
    def test_mutated_bundled_layouts_parse_as_the_reference_does(self, runs):
        rng = random.Random(9)
        seen = set()
        for text in _bundled_layouts(runs):
            cases = [text, text[: rng.randrange(len(text))]]  # as recorded, and cut short
            for kind in MUTATIONS:
                doc = ET.fromstring(text)
                for extra in [kind] + rng.sample(MUTATIONS, rng.randrange(3)):
                    doc = _mutate(extra, rng, doc)
                cases.append(ET.tostring(doc, encoding="unicode"))
            for case in cases:
                got = _outcome(parse_hierarchy_dump, case)
                assert got == _outcome(_reference_parse, case), case
                seen.add(type(got) if isinstance(got, ComponentTree) else (got[0], got[1].split(":")[0]))
        # Every kind of outcome was reached, so the comparison is not vacuous.
        assert {ComponentTree, (MissingAttribute, "node is missing the 'class' attribute"),
                (MissingAttribute, "node is missing the 'package' attribute"),
                (ParseError, "malformed index attribute"), (ParseError, "malformed bounds attribute"),
                (ParseError, "degenerate bounds attribute"), (ParseError, "malformed hierarchy dump"),
                (ParseError, "hierarchy must contain exactly one root node, found 0"),
                (ParseError, "hierarchy must contain exactly one root node, found 2"),
                (ParseError, "unexpected root element 'window'")} <= seen


class TestBoundsCache:
    def test_each_distinct_bounds_text_is_parsed_once(self, runs):
        texts = list(_bundled_layouts(runs))
        _bounds.cache_clear()
        for text in texts:
            parse_hierarchy_dump(text, "A")
        distinct = {b for text in texts for b in re.findall(r'bounds="([^"]*)"', text)}
        assert len(distinct) < BOUNDS_CACHE_SIZE
        assert _bounds.cache_info().misses == len(distinct)

    def test_nodes_with_equal_bounds_text_share_one_bounds(self):
        first, second = parse_hierarchy_dump(DUMP, "A"), parse_hierarchy_dump(DUMP, "A")
        shared = {}
        for tree in (first, second):
            for node in tree.root.iter_subtree():
                shared.setdefault(node.bounds.render(), set()).add(id(node.bounds))
        assert all(len(ids) == 1 for ids in shared.values())
        assert first.root.children[0].bounds is second.root.children[0].bounds

    def test_cache_stays_at_its_bound(self):
        count = BOUNDS_CACHE_SIZE + 10
        kids = "".join(f'<node class="c" package="p" bounds="[0,0][{i},1]" />' for i in range(count))
        _bounds.cache_clear()
        parse_hierarchy_dump(f'<node class="c" package="p">{kids}</node>', "A")
        info = _bounds.cache_info()
        assert info.misses == count
        assert info.currsize == info.maxsize == BOUNDS_CACHE_SIZE

    def test_bad_bounds_raise_every_time_and_are_not_kept(self):
        _bounds.cache_clear()
        for _ in range(2):
            with pytest.raises(ParseError, match="degenerate bounds"):
                parse_hierarchy_dump('<node class="c" package="p" bounds="[10,0][0,5]" />', "A")
        assert _bounds.cache_info().misses == 2
        assert _bounds.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# The writer-form fast path: `_parse_written` builds the reference's tree or
# returns None, and `parse_hierarchy_dump` then gives the reference's outcome.

# Characters XML keeps as they are inside a double-quoted value...
KEPT = ["a", "Z", "0", " ", "'", ">", "\x7f", "\x85", "é", "\u2028", "\ue000", "\ufffd", "\U0001f600",
        "\U0001fffe", "]]>"]
# ...and ones it rewrites or rejects there.
CHANGED = ['"', "&", "<", "\t", "\x01", "\ud800", "\ufffe", "\uffff"]
EDITS = ("cut-short", "deleted", "inserted", "swapped", "crlf", "bom", "amp", "tab", "second-root", "extra-close",
         "trailing", "unclosed", "long-index", "degenerate", "degenerate-cut")


def _random_tree(rng, alphabet):
    def word():
        return "".join(rng.choice(alphabet) for _ in range(rng.randrange(4)))

    def node(depth):
        kids = [node(depth + 1) for _ in range(rng.randrange(3 if depth < 3 else 1))]
        left, top = rng.randrange(50), rng.randrange(50)
        bounds = Bounds(left, top, left + rng.randrange(50), top + rng.randrange(50))
        flags = [rng.random() < 0.5 for _ in range(6)]
        return ComponentNode(word(), word(), word(), word(), bounds, *flags, rng.randrange(12), kids)

    return make_tree(node(0), "A")


def _raw_written(tree):
    """`serialize_tree`'s text with every string value put between double quotes as it is, never escaped."""
    values = iter([s for n in tree.root.iter_subtree() for s in (n.widget_class, n.package, n.resource_id, n.text)])
    blank = copy.deepcopy(tree)
    for node in blank.root.iter_subtree():
        node.widget_class = node.package = node.resource_id = node.text = "\0"
    return re.sub("\0", lambda _: next(values), serialize_tree(blank))


def _written_chain(depth):
    """A writer-form layout that is one chain of `depth` nodes, built without recursion."""
    attrs = ('class="c" package="p" resource-id="" text="" clickable="false" checkable="false" checked="false" '
             'enabled="true" scrollable="false" long-clickable="false" bounds="[0,0][1,1]"')
    opens = [f'{"  " * d}<node index="0" {attrs}>' for d in range(1, depth)]
    leaf = f'{"  " * depth}<node index="0" {attrs} />'
    closes = [f'{"  " * d}</node>' for d in range(depth - 1, 0, -1)]
    return "\n".join(['<?xml version="1.0" encoding="UTF-8"?>', "<hierarchy>", *opens, leaf, *closes, "</hierarchy>\n"])


def _edits(rng, text):
    """(kind, text) for each of EDITS, applied at random places of one canonical layout."""
    lines = text.split("\n")
    first = 2  # the root's line
    at = rng.randrange(first, len(lines) - 2)  # a node line
    line = lines[at]
    if line.strip() == "</node>":
        line = lines[first]
    a, b = rng.sample(re.findall(r' [a-z-]+="[^"]*"', line), 2)
    swapped = line.replace(a, "\0").replace(b, a).replace("\0", b)
    value = rng.choice(re.findall(r' (?:class|package|resource-id|text)="[^"]*', line))
    root = lines[first] if lines[first].endswith(" />") else lines[first][:-1] + " />"
    degenerate = re.sub(r'bounds="[^"]*"', 'bounds="[10,0][0,5]"', text, count=1)
    k = rng.randrange(len(text))
    yield "cut-short", text[:k]
    yield "deleted", text[:k] + text[k + 1 :]
    yield "inserted", text[:k] + rng.choice('a <>"&/\n=\t') + text[k:]
    yield "swapped", text.replace(line, swapped, 1)
    yield "crlf", text.replace("\n", "\r\n")
    yield "bom", "\ufeff" + text
    yield "amp", text.replace(value, value + "&amp;", 1)
    yield "tab", text.replace(value, value + "\t", 1)
    yield "second-root", "\n".join(lines[:-2] + [root] + lines[-2:])
    yield "extra-close", "\n".join(lines[:-2] + ["</node>", root] + lines[-2:])
    yield "trailing", text + rng.choice(["x", "<!-- c -->", " ", "\n"])
    yield "unclosed", "\n".join(x for x in lines if x.strip() != "</node>" or rng.random() < 0.7)
    yield "long-index", re.sub(r'index="[0-9]*"', f'index="{"9" * 5000}"', text, count=1)  # past int()'s digit limit
    yield "degenerate", degenerate
    # Cut short after the bad bounds, before the root closes, and given the
    # writer's last line back: ET's error must win over the bounds error.
    k = rng.randrange(degenerate.index("[10,0][0,5]") + 12, degenerate.rindex("</node>"))
    yield "degenerate-cut", degenerate[:k] + "\n</hierarchy>\n"


class TestWrittenFastPath:
    def test_random_trees_parse_as_the_reference_does_or_hand_off(self):
        rng = random.Random(17)
        taken = handed_off = 0
        for alphabet in (KEPT, KEPT + CHANGED):
            for _ in range(1500):
                tree = _random_tree(rng, alphabet)
                for text in (serialize_tree(tree), _raw_written(tree)):
                    fast = _parse_written(text, "A")
                    if fast is None:
                        handed_off += 1
                    else:
                        taken += 1
                        assert fast == _reference_parse(text, "A"), text
        assert taken > 1000 and handed_off > 1000

    def test_edited_bundled_layouts_parse_as_the_reference_does(self, runs):
        rng = random.Random(23)
        fast_path = {}  # edit kind -> the fast-path outcomes (taken or not) of its cases
        for text in _bundled_layouts(runs):
            for kind, case in _edits(rng, text):
                got = _outcome(parse_hierarchy_dump, case)
                assert got == _outcome(_reference_parse, case), (kind, case)
                if kind == "degenerate-cut":
                    assert got[1].startswith("malformed hierarchy dump"), got
                fast_path.setdefault(kind, set()).add(_parse_written(case, "A") is not None)
        assert sorted(fast_path) == sorted(EDITS)
        # Every edit handed off somewhere, and some edits kept the writer's form.
        assert all(False in seen for seen in fast_path.values())
        assert any(True in seen for seen in fast_path.values())

    def test_depth_bound(self):
        chain = None
        for _ in range(100):
            chain = make_node(cls="c", package="p", bounds=Bounds(0, 0, 1, 1), enabled=True, children=[chain] if chain else [])
        at_bound = serialize_tree(make_tree(chain))
        assert at_bound == _written_chain(100)
        assert _parse_written(at_bound, "A") == _reference_parse(at_bound, "A")
        past_bound = _written_chain(101)
        assert _parse_written(past_bound, "A") is None
        assert parse_hierarchy_dump(past_bound, "A") == _reference_parse(past_bound, "A")
        with pytest.raises(ParseError, match="^hierarchy nested too deeply to parse$"):
            parse_hierarchy_dump(_written_chain(1200), "A")


class TestWriterReaderLock:
    def test_every_bundled_layout_takes_the_fast_path(self, runs):
        # A change to `serialize_tree`'s form (attribute order, quoting) that
        # would send every stored layout to the general parse fails here.
        count = 0
        for cfg in [{}] + [{flag: False} for flag in ABLATIONS]:
            for name in BUNDLED:
                _, out, _ = runs.run(name, **cfg)
                for path in sorted((out / "layouts").glob("*.xml")):
                    assert _parse_written(path.read_text(encoding="utf-8"), "A") is not None, (cfg, path.name)
                    count += 1
        assert count == 1504

    @pytest.mark.parametrize("value", ["a&b", 'say "hi"'])
    def test_value_that_needs_escaping_round_trips_through_the_general_parse(self, value):
        tree = make_tree(make_node(cls="android.widget.FrameLayout", children=[make_node(rid=value, text=value)]), "A")
        text = serialize_tree(tree)
        assert _parse_written(text, "A") is None
        assert parse_hierarchy_dump(text, "A") == tree


class TestQueries:
    def test_bfs_order_and_foreign_subtree_filtering(self):
        tree = parse_hierarchy_dump(DUMP, "MainActivity")
        order = bfs_nodes(tree, PKG)
        assert [n.widget_class.rsplit(".", 1)[-1] for n in order] == [
            "FrameLayout",
            "Button",
            "TextView",
        ]

    def test_bfs_foreign_root_is_empty(self):
        tree = make_tree(make_node(package="other.pkg"))
        assert bfs_nodes(tree, PKG) == []

    def test_find_clickable_excludes_foreign(self):
        tree = parse_hierarchy_dump(DUMP, "MainActivity")
        clickable = [n.resource_id for n in NodeIndex(tree, PKG).order if n.clickable]
        assert clickable == ["com.example.app:id/btn_ok"]

    def test_selector_fields_and_describe(self):
        node = make_node(rid="x:id/a", cls="android.widget.Button", bounds=Bounds(0, 0, 10, 10))
        assert Selector(resource_id="x:id/a").matches(node)
        assert not Selector(resource_id="x:id/b").matches(node)
        assert Selector(widget_class="android.widget.Button", bounds=Bounds(0, 0, 10, 10)).matches(node)
        assert Selector(resource_id="x:id/a").describe() == "x:id/a"
        assert Selector(widget_class="c").describe() == "c"
        assert Selector(bounds=Bounds(0, 0, 1, 1)).describe() == "[0,0][1,1]"

    def test_selector_requires_a_field(self):
        with pytest.raises(ValueError):
            Selector()

    def test_match_component_first_bfs_hit(self):
        tree = parse_hierarchy_dump(DUMP, "MainActivity")
        index = NodeIndex(tree, PKG)
        node = index.match(Selector(resource_id="com.example.app:id/lbl"))
        assert node is not None and node.text == "hello"
        assert index.match(Selector(resource_id="nope")) is None
        # A duplicate id resolves to its first BFS occurrence: the shallower node, then the earlier sibling.
        deep = make_node(rid="x:id/dup", text="deep")
        kids = [make_node(children=[deep]), make_node(rid="x:id/dup", text="first"), make_node(rid="x:id/dup", text="second")]
        tree = make_tree(make_node(children=kids))
        assert NodeIndex(tree, PKG).match(Selector(resource_id="x:id/dup")).text == "first"

    def test_match_component_resolves_ambiguity_silently(self):
        # Several matches are not an error or a warning: the first BFS node wins.
        kids = [make_node(rid="x:id/dup", text="first"), make_node(rid="x:id/dup", text="second")]
        tree = make_tree(make_node(children=kids))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            node = NodeIndex(tree, PKG).match(Selector(resource_id="x:id/dup"))
        assert node.text == "first"

    def test_match_component_skips_foreign_package_nodes(self):
        # The overlay's node carries the same id and comes first in a whole-tree BFS.
        foreign = make_node(rid=f"{PKG}:id/ok", package="com.android.systemui", text="overlay")
        own = make_node(cls="android.widget.LinearLayout", children=[make_node(rid=f"{PKG}:id/ok", text="app")])
        tree = make_tree(make_node(children=[foreign, own]))
        assert NodeIndex(tree, PKG).match(Selector(resource_id=f"{PKG}:id/ok")).text == "app"
