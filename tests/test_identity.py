import hashlib

from conftest import PKG, make_node, make_tree
from scenetg.identity import (
    EMPTY_SCENE_ID,
    SIGNATURE_CACHE_SIZE,
    _signature_hash,
    node_signature,
    raw_state_id,
    scene_id,
    signature_nodes,
)
from scenetg.layout import Bounds, is_adapter_view

# Frozen MD5 vectors (computed independently and pinned).
MD5_EMPTY = "d41d8cd98f00b204e9800998ecf8427e"
MD5_ABC = "900150983cd24fb0d6963f7d28e17f72"
MD5_VIEW_SIG = "b0423b22a1284ac800cbfa58d892f1a1"  # "|android.view.View|com.ex"
MD5_BTN_SIG = "a4986b509d7b9ecabd917b2cb8ea38ff"  # "btn_ok|android.widget.Button|com.ex"


def node_hash(node):
    """The reference for `scene_id`'s cached per-node digests: MD5 of the signature, hashed afresh."""
    return hashlib.md5(node_signature(node).encode("utf-8")).hexdigest()


def test_md5_reference_vectors():
    assert hashlib.md5(b"").hexdigest() == MD5_EMPTY
    assert hashlib.md5(b"abc").hexdigest() == MD5_ABC
    assert EMPTY_SCENE_ID == MD5_EMPTY


def test_node_signature_and_hash_pinned():
    node = make_node(rid="", cls="android.view.View", package="com.ex")
    assert node_signature(node) == "|android.view.View|com.ex"
    assert node_hash(node) == MD5_VIEW_SIG
    btn = make_node(rid="btn_ok", cls="android.widget.Button", package="com.ex")
    assert node_hash(btn) == MD5_BTN_SIG
    assert _signature_hash(node_signature(btn)) == MD5_BTN_SIG  # the digest scene_id caches


def test_scene_id_of_single_node_pinned():
    tree = make_tree(make_node(rid="btn_ok", cls="android.widget.Button", package="com.ex"))
    assert scene_id(tree, "com.ex") == hashlib.md5(MD5_BTN_SIG.encode()).hexdigest()


def test_signature_cache_stays_at_its_bound():
    count = SIGNATURE_CACHE_SIZE + 10
    kids = [make_node(rid=f"x:id/b{i}", cls="android.widget.Button") for i in range(count)]
    tree = make_tree(make_node(cls="android.widget.FrameLayout", children=kids))
    # The md5-of-md5s definition, each node hashed afresh.
    want = hashlib.md5("".join(node_hash(n) for n in signature_nodes(tree, PKG)).encode()).hexdigest()
    _signature_hash.cache_clear()
    assert scene_id(tree, PKG) == want
    info = _signature_hash.cache_info()
    assert info.misses == count + 1
    assert info.currsize == info.maxsize == SIGNATURE_CACHE_SIZE
    assert scene_id(tree, PKG) == want


def test_foreign_root_hashes_to_empty_scene():
    tree = make_tree(make_node(package="other.pkg"))
    assert scene_id(tree, PKG) == EMPTY_SCENE_ID


def _base_tree():
    root = make_node(
        cls="android.widget.FrameLayout",
        children=[
            make_node(rid="x:id/title", cls="android.widget.TextView", text="Hello"),
            make_node(rid="x:id/btn", cls="android.widget.Button", clickable=True),
        ],
    )
    return make_tree(root)


def test_text_checked_bounds_do_not_affect_id():
    base = scene_id(_base_tree(), PKG)
    changed = _base_tree()
    changed.root.children[0].text = "Different"
    changed.root.children[1].checked = True
    changed.root.children[1].bounds = Bounds(5, 5, 500, 600)
    assert scene_id(changed, PKG) == base


def test_signature_triple_changes_id():
    base = scene_id(_base_tree(), PKG)
    for attr, value in [
        ("resource_id", "x:id/other"),
        ("widget_class", "android.widget.ImageButton"),
    ]:
        tree = _base_tree()
        setattr(tree.root.children[1], attr, value)
        assert scene_id(tree, PKG) != base


def test_insertion_and_deletion_change_id():
    base = scene_id(_base_tree(), PKG)
    more = _base_tree()
    more.root.children.append(make_node(rid="x:id/extra", cls="android.widget.TextView"))
    assert scene_id(more, PKG) != base
    fewer = _base_tree()
    fewer.root.children.pop()
    assert scene_id(fewer, PKG) != base


def test_adapter_suffix_detection():
    for cls in [
        "android.widget.ListView",
        "androidx.recyclerview.widget.RecyclerView",
        "android.widget.ExpandableListView",
        "android.widget.GridView",
        "android.widget.Spinner",
        "androidx.viewpager.widget.ViewPager",
        "android.widget.Gallery",
        "android.widget.StackView",
    ]:
        assert is_adapter_view(make_node(cls=cls)), cls
    assert not is_adapter_view(make_node(cls="android.widget.LinearLayout"))
    assert not is_adapter_view(make_node(cls="android.widget.Button"))


def _list_tree(rows):
    row = lambda: make_node(rid="x:id/row", cls="android.widget.TextView")
    lst = make_node(rid="x:id/list", cls="android.widget.ListView", children=[row() for _ in range(rows)])
    return make_tree(make_node(cls="android.widget.FrameLayout", children=[lst]))


def test_adapter_first_child_collapsing():
    assert scene_id(_list_tree(1), PKG) == scene_id(_list_tree(7), PKG)
    assert scene_id(_list_tree(0), PKG) != scene_id(_list_tree(1), PKG)


def test_adapter_collapsing_is_recursive():
    inner = lambda n: make_node(
        rid="x:id/inner",
        cls="android.widget.GridView",
        children=[make_node(rid="x:id/cell", cls="android.widget.TextView") for _ in range(n)],
    )
    outer = lambda rows, cells: make_tree(
        make_node(
            rid="x:id/outer",
            cls="android.widget.ListView",
            children=[inner(cells) for _ in range(rows)],
        )
    )
    assert scene_id(outer(1, 1), PKG) == scene_id(outer(3, 5), PKG)


def test_foreign_subtree_excluded_from_signature():
    tree = _base_tree()
    foreign = make_node(
        package="com.android.systemui",
        cls="android.widget.FrameLayout",
        children=[make_node(package="com.android.systemui", cls="android.widget.Button")],
    )
    tree.root.children.append(foreign)
    assert scene_id(tree, PKG) == scene_id(_base_tree(), PKG)
    assert all(n.package == PKG for n in signature_nodes(tree, PKG))


def test_raw_state_id_tracks_full_text():
    from scenetg.layout import serialize_tree

    a = _base_tree()
    b = _base_tree()
    b.root.children[0].text = "Different"
    assert raw_state_id(serialize_tree(a)) != raw_state_id(serialize_tree(b))
    assert raw_state_id(serialize_tree(a)) == raw_state_id(serialize_tree(_base_tree()))
