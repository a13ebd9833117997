"""Scene identifiers: structural hashing of UI pages.

A page's identity is the MD5 of the concatenated per-node MD5 digests taken
in breadth-first order, where each node contributes only its
(resource-id, class, package) triple. Text, checked state, and geometry do
not participate, so pages that differ only in values hash equal. Adapter
views contribute only their first child subtree, so lists of different
lengths built from the same row template hash equal as well.
"""

from __future__ import annotations

import functools
import hashlib

from .layout import ComponentNode, ComponentTree, bfs_nodes, is_adapter_view  # noqa: F401 (re-exported)

EMPTY_SCENE_ID = "d41d8cd98f00b204e9800998ecf8427e"  # MD5 of the empty string

# Distinct node signatures whose MD5 hex digest `scene_id` keeps; an app has
# few, since a signature leaves out text, state and geometry.
SIGNATURE_CACHE_SIZE = 4096


def node_signature(node: ComponentNode) -> str:
    return f"{node.resource_id}|{node.widget_class}|{node.package}"


def node_hash(node: ComponentNode) -> str:
    return hashlib.md5(node_signature(node).encode("utf-8")).hexdigest()


@functools.lru_cache(maxsize=SIGNATURE_CACHE_SIZE)
def _signature_hash(signature: str) -> str:
    return hashlib.md5(signature.encode("utf-8")).hexdigest()


def signature_nodes(tree: ComponentTree, target_package: str) -> list[ComponentNode]:
    """BFS order after foreign-package filtering and adapter first-child collapsing."""
    return bfs_nodes(tree, target_package, collapse_adapters=True)


def scene_id(tree: ComponentTree, target_package: str) -> str:
    digests = "".join(_signature_hash(node_signature(n)) for n in signature_nodes(tree, target_package))
    return hashlib.md5(digests.encode("utf-8")).hexdigest()


def raw_state_id(raw_dump: str) -> str:
    """Ablation-mode state key: hash of the full dump text, maximally fine-grained."""
    return hashlib.md5(raw_dump.encode("utf-8")).hexdigest()
