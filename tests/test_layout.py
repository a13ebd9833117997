import warnings
from xml.sax.saxutils import quoteattr

import pytest

from conftest import PKG, make_node, make_tree
from scenetg.errors import MissingAttribute, ParseError
from scenetg.layout import (
    Bounds,
    Selector,
    bfs_nodes,
    find_clickable,
    match_component,
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
        assert [n.resource_id for n in find_clickable(tree, PKG)] == ["com.example.app:id/btn_ok"]

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
        node = match_component(tree, Selector(resource_id="com.example.app:id/lbl"), PKG)
        assert node is not None and node.text == "hello"
        assert match_component(tree, Selector(resource_id="nope"), PKG) is None
        # A duplicate id resolves to its first BFS occurrence: the shallower node, then the earlier sibling.
        deep = make_node(rid="x:id/dup", text="deep")
        kids = [make_node(children=[deep]), make_node(rid="x:id/dup", text="first"), make_node(rid="x:id/dup", text="second")]
        tree = make_tree(make_node(children=kids))
        assert match_component(tree, Selector(resource_id="x:id/dup"), PKG).text == "first"

    def test_match_component_resolves_ambiguity_silently(self):
        # Several matches are not an error or a warning: the first BFS node wins.
        kids = [make_node(rid="x:id/dup", text="first"), make_node(rid="x:id/dup", text="second")]
        tree = make_tree(make_node(children=kids))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            node = match_component(tree, Selector(resource_id="x:id/dup"), PKG)
        assert node.text == "first"

    def test_match_component_skips_foreign_package_nodes(self):
        # The overlay's node carries the same id and comes first in a whole-tree BFS.
        foreign = make_node(rid=f"{PKG}:id/ok", package="com.android.systemui", text="overlay")
        own = make_node(cls="android.widget.LinearLayout", children=[make_node(rid=f"{PKG}:id/ok", text="app")])
        tree = make_tree(make_node(children=[foreign, own]))
        assert match_component(tree, Selector(resource_id=f"{PKG}:id/ok"), PKG).text == "app"
