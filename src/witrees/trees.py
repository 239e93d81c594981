"""Tree model for weakly increasing k-ary trees.

A *weakly increasing tree* is a rooted plane tree whose nodes carry positive
integer labels subject to two constraints:

* along every root-to-leaf path the labels strictly increase;
* the set of labels used in the tree is a full interval {1, ..., m}, where m
  is the largest label (so the same label may occur in different branches).

Nodes have k positional child slots (k = 2 for binary trees).  Slots are
significant: a binary node with a single child is either "left child only" or
"right child only", and the two are distinct trees.

Two layers are modelled:

``LabeledTree``
    The labeled skeleton.  Empty slots are ``None``.

``CompletedTree``
    The same skeleton with every empty slot filled by an unlabeled
    bullet-leaf (``BULLET``).  The *size* of the tree is its bullet count;
    a tree with N labeled nodes has size (k-1)*N + 1.

Completed trees grow through ``evolution_step``: a nonempty subset of
bullet-leaves is replaced by nodes carrying the next unused label, each with
k fresh bullet-leaves.  Every completed tree is produced by exactly one
sequence of such steps starting from the one-node root tree, which is what
makes counting and uniform sampling by recurrence possible.

``decode_encoding`` and ``complete`` build their nodes through one
bottom-up builder from preorder labels and child masks; ``complete`` and
``Node``'s ``==`` and ``hash`` read one preorder stream of (label, slot
occupancy) pairs.

All tree values are immutable; operations return new trees.  The one
exception is ``GrowingTree``, a mutable flat state.  The exact sampler
expands it in place and freezes it into a ``CompletedTree`` at the end;
the exhaustive walk expands and undoes steps on one state and reads each
finished tree from it, frozen or as its canonical encoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import repeat
from operator import eq, index
from typing import Iterator, NoReturn, Optional, Union


class _Bullet:
    """Singleton marker for an unlabeled leaf of a completed tree."""

    __slots__ = ()
    _instance: Optional["_Bullet"] = None

    def __new__(cls) -> "_Bullet":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "BULLET"


BULLET = _Bullet()

#: Content of a child slot: absent, bullet-leaf, or a child node.
Slot = Union[None, _Bullet, "Node"]

#: A node position: the sequence of slot indices on the path from the root.
Path = tuple[int, ...]


def _foreign_slot(slot: object, allowed: str = "a node, a bullet or None") -> NoReturn:
    """Raise the one-line ValueError of a reader that meets a slot holding something else."""
    raise ValueError(f"slot holds {type(slot).__name__}, not {allowed}")


def _stream(root: "Node") -> Iterator[tuple[int, tuple[int, ...]]]:
    """Preorder (label, slot occupancy) pairs; a slot is 0 empty, 1 bullet, 2 child node.

    The occupancies say where each subtree ends, so no stream is a proper
    prefix of another, and two streams that agree pair by pair are equal.
    A slot holding anything else raises ValueError.
    """
    stack = [root]
    while stack:
        node = stack.pop()
        slots = node.slots
        occupancy = tuple(2 if isinstance(x, Node) else 1 if x is BULLET else 0 if x is None
                          else _foreign_slot(x) for x in slots)
        yield node.label, occupancy
        stack.extend(x for x in reversed(slots) if isinstance(x, Node))


@dataclass(frozen=True, eq=False)
class Node:
    """A labeled node with a fixed tuple of positional child slots.

    Two nodes are equal when their subtrees give the same preorder stream
    of (label, slot occupancy) pairs (``_stream``); ``==`` stops at the
    first pair that differs, and ``hash`` folds the same stream, so equal
    nodes hash equal.  The stream and ``repr`` walk the subtree with an
    explicit stack, so a deep chain needs no recursion; the hash is
    computed on first use and kept.
    """

    label: int
    slots: tuple[Slot, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Node):
            return NotImplemented
        return self is other or all(map(eq, _stream(self), _stream(other)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        h = 0
        for label, occupancy in _stream(self):
            h = hash((h, label, occupancy))
        return h

    def __repr__(self) -> str:
        parts: list[str] = []
        stack: list[Union[str, Slot]] = [self]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                parts.append(item)
            elif isinstance(item, Node):
                parts.append(f"Node(label={item.label!r}, slots=(")
                stack.append(",))" if len(item.slots) == 1 else "))")
                for i in range(len(item.slots) - 1, -1, -1):
                    stack.append(item.slots[i])
                    if i:
                        stack.append(", ")
            else:
                parts.append(repr(item))
        return "".join(parts)


@dataclass(frozen=True)
class LabeledTree:
    """A weakly increasing tree given by its labeled skeleton."""

    root: Node


@dataclass(frozen=True)
class CompletedTree:
    """A weakly increasing tree with all empty slots filled by bullets."""

    arity: int
    root: Node

    @cached_property
    def _counts(self) -> tuple[int, int, int, int]:
        return _tally(self.root)

    @property
    def size(self) -> int:
        """Number of bullet-leaves."""
        return self._counts[0]

    @property
    def max_label(self) -> int:
        return self._counts[2]


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of ``validate``; falsy when a constraint is violated.

    ``kind`` is one of ``"malformed"`` (structural problem: wrong slot
    count, bad label value, a slot holding anything but ``None``,
    ``BULLET`` or a ``Node``), ``"label-order"`` (labels not strictly
    increasing along a branch) or ``"label-gap"`` (label set is not a full
    interval {1..m}).  ``path`` locates the offending node.
    """

    ok: bool
    kind: Optional[str] = None
    path: Optional[Path] = None
    message: str = "ok"

    def __bool__(self) -> bool:
        return self.ok


def iter_nodes(root: Node) -> Iterator[tuple[Path, Node]]:
    """Yield (path, node) for every labeled node, in preorder."""
    stack: list[tuple[Path, Node]] = [((), root)]
    while stack:
        path, node = stack.pop()
        yield path, node
        for i in range(len(node.slots) - 1, -1, -1):
            child = node.slots[i]
            if isinstance(child, Node):
                stack.append((path + (i,), child))


def _tally(root: Node) -> tuple[int, int, int, int]:
    """(bullets, labeled nodes, maximal label, depth) of a subtree.

    One walk, level by level, so the depth is the number of levels and no
    node needs its path or depth stored.  A slot that is neither a bullet
    nor a node raises ValueError.
    """
    bullets = nodes = depth = 0
    top = root.label
    level = [root]
    while level:
        depth += 1
        nodes += len(level)
        below = []
        for node in level:
            if node.label > top:
                top = node.label
            for slot in node.slots:
                if slot is BULLET:
                    bullets += 1
                elif isinstance(slot, Node):
                    below.append(slot)
                else:
                    _foreign_slot(slot, "a node or a bullet")
        level = below
    return bullets, nodes, top, depth


def bullet_positions(root: Node) -> list[Path]:
    """Paths of all bullet-leaves, in preorder (the canonical leaf order).

    No bullet's path is a prefix of another's, so preorder is the
    lexicographic order of the paths.
    """
    return sorted(path + (i,) for path, node in iter_nodes(root)
                  for i, slot in enumerate(node.slots) if slot is BULLET)


def _with_slot(root: Node, path: Path, content: Slot) -> Node:
    """Copy of the tree with the slot at ``path`` set to ``content``.

    Only the nodes on the path are rebuilt; every other subtree is shared,
    which is safe because nodes are immutable.
    """
    spine = [root]
    for i in path[:-1]:
        spine.append(spine[-1].slots[i])
    for node, i in zip(reversed(spine), reversed(path)):
        content = Node(node.label, node.slots[:i] + (content,) + node.slots[i + 1:])
    return content


def _path_of(root: Node, target: Node) -> Path:
    """Path of ``target``'s first occurrence in preorder (by identity)."""
    return next(path for path, node in iter_nodes(root) if node is target)


def validate(tree: LabeledTree, arity: int) -> ValidationResult:
    """Check the two defining label constraints for the given arity.

    Structural problems (a node whose slot tuple does not have exactly
    ``arity`` entries, a non-positive label, or a slot holding anything
    but ``None``, ``BULLET`` or a ``Node``) are reported as kind
    ``"malformed"``, distinct from the label-constraint violations.

    The nodes are checked in preorder on a stack of bare nodes; the first
    violation is reported, and only then is its node's path built, by a
    second preorder walk that stops at that node.
    """
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    root = tree.root
    labels: set[int] = set()
    stack = [root]
    pop, push = stack.pop, stack.append
    while stack:
        node = pop()
        label, slots = node.label, node.slots
        if len(slots) != arity:
            path = _path_of(root, node)
            return ValidationResult(
                False, "malformed", path,
                f"node at {path!r} has {len(slots)} slots, expected {arity}",
            )
        if not isinstance(label, int) or label < 1:
            path = _path_of(root, node)
            return ValidationResult(
                False, "malformed", path,
                f"node at {path!r} has invalid label {label!r}",
            )
        labels.add(label)
        for slot in slots:
            if isinstance(slot, Node):
                if slot.label <= label:
                    # an equal slot before it would have failed first
                    path = _path_of(root, node) + (slots.index(slot),)
                    return ValidationResult(
                        False, "label-order", path,
                        f"label {slot.label} at {path!r} does not exceed parent label {label}",
                    )
            elif slot is not BULLET and slot is not None:  # bullets, the common case, first
                path = _path_of(root, node) + (slots.index(slot),)
                return ValidationResult(
                    False, "malformed", path,
                    f"slot at {path!r} holds {type(slot).__name__}, not a node, a bullet or None",
                )
        for slot in reversed(slots):
            if isinstance(slot, Node):
                push(slot)
    m = max(labels)
    if len(labels) != m:
        # the gap is at most len(labels) + 1: O(nodes), not O(m)
        gap = 1
        while gap in labels:
            gap += 1
        witness = next(p for p, nd in iter_nodes(root) if nd.label > gap)
        return ValidationResult(
            False, "label-gap", witness,
            f"label {gap} is missing although {m} occurs (witness node at {witness!r})",
        )
    return ValidationResult(True)


def complete(tree: LabeledTree, arity: int) -> CompletedTree:
    """Fill every empty slot with a bullet-leaf.

    The labeled skeleton is unchanged; the result's size is
    (arity-1) * node_count + 1.
    """
    result = validate(tree, arity)
    if not result:
        raise ValueError(f"invalid tree: {result.message}")

    labels: list[int] = []
    masks: list[int] = []
    for label, occupancy in _stream(tree.root):
        labels.append(label)
        masks.append(sum(1 << i for i, x in enumerate(occupancy) if x == 2))
    return CompletedTree(arity, _build(arity, labels, masks))


def _build(k: int, labels: list[int], masks: list[int]) -> Node:
    """The completed tree's root from its nodes' labels and child masks in preorder.

    Built bottom-up in reverse preorder, without recursion: a node's
    subtrees were built just before it, and its first child's subtree is
    on top of the stack.  Bit i of a mask is set when slot i holds a child;
    every other slot gets a bullet.
    """
    built: list[Node] = []
    bullets = (BULLET,) * k  # shared by the nodes without children
    for label, mask in zip(reversed(labels), reversed(masks)):
        if mask:
            slots = tuple([built.pop() if mask >> i & 1 else BULLET for i in range(k)])
        else:
            slots = bullets
        built.append(Node(label, slots))
    return built[0]


def root_tree(arity: int) -> CompletedTree:
    """The smallest completed tree: one node labeled 1, all slots bullets."""
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    return CompletedTree(arity, Node(1, (BULLET,) * arity))


class GrowingTree:
    """Mutable flat form of a completed tree, for replaying growth steps.

    Node ids are in creation order (the root is 0); each node has a label
    and k child ids, -1 marking a bullet.  ``leaves`` lists the bullets as
    (node, slot) pairs in preorder, the order of ``bullet_positions``.  An
    ``evolution_step`` on it takes preorder leaf indices instead of paths
    and costs O(size); ``freeze`` builds the immutable tree once.

    The sampler grows a state to its final size.  The exhaustive walk
    (``sampler._walk_histories``) also undoes steps on it, and
    ``_encode_flat`` writes a state's canonical encoding without freezing.
    """

    __slots__ = ("arity", "labels", "children", "leaves")

    def __init__(self, arity: int) -> None:
        if arity < 2:
            raise ValueError(f"arity must be >= 2, got {arity}")
        self.arity = arity
        self.labels = [1]
        self.children = [[-1] * arity]
        self.leaves = [(0, i) for i in range(arity)]

    @property
    def size(self) -> int:
        return len(self.leaves)

    @property
    def max_label(self) -> int:
        # a step labels its nodes one above every earlier label
        return self.labels[-1]

    def freeze(self) -> CompletedTree:
        """The immutable tree, built bottom-up without recursion.

        Children are created after their parents, so they have larger ids
        and are built first when ids are visited in descending order.
        """
        labels, children = self.labels, self.children
        # nodes without children share one all-bullet slot tuple
        childless, bullets = [-1] * self.arity, (BULLET,) * self.arity
        nodes: list = [None] * len(labels)
        for v in range(len(labels) - 1, -1, -1):
            kids = children[v]
            if kids == childless:
                slots = bullets
            else:
                slots = tuple([BULLET if c < 0 else nodes[c] for c in kids])
            nodes[v] = Node(labels[v], slots)
        return CompletedTree(self.arity, nodes[0])


def _grow_flat(t: GrowingTree, leaf_indices, next_label: int) -> GrowingTree:
    labels, children, leaves = t.labels, t.children, t.leaves
    if next_label != labels[-1] + 1:
        raise ValueError(f"next label must be {labels[-1] + 1}, got {next_label}")
    k = t.arity
    # one pass: link each new node and put its k bullets in the place of
    # the expanded bullet in preorder, which the earlier ones moved right
    top = node = len(labels)
    spliced = leaves.copy()
    start = 0
    try:
        for i in leaf_indices:
            if not start <= i < len(leaves):
                raise ValueError(f"leaf indices must increase within [0, {len(leaves)})")
            parent, slot = leaves[i]
            children[parent][slot] = node
            labels.append(next_label)
            children.append([-1] * k)
            at = i + (node - top) * (k - 1)
            spliced[at : at + 1] = zip(repeat(node, k), range(k))
            node += 1
            start = i + 1
        if node == top:
            raise ValueError("leaf subset must be nonempty")
    except BaseException:
        # a rejected step changes nothing: drop the nodes added so far
        for parent, slot in leaves:
            if children[parent][slot] >= top:
                children[parent][slot] = -1
        del labels[top:], children[top:]
        raise
    t.leaves = spliced
    return t


def evolution_step(
    t: Union[CompletedTree, GrowingTree], leaf_subset, next_label: int
) -> Union[CompletedTree, GrowingTree]:
    """Expand a nonempty subset of bullet-leaves into nodes labeled ``next_label``.

    Each selected bullet is replaced by a node carrying ``next_label`` and
    ``t.arity`` fresh bullets, so the size grows by ``len(leaf_subset) *
    (arity - 1)``.  ``next_label`` must be exactly one more than the current
    maximal label.

    On a ``CompletedTree`` the subset is given by paths and a new tree is
    returned; a path that is not one of ``bullet_positions(t.root)`` is
    refused as not a bullet-leaf.  On a ``GrowingTree`` it is given by an
    iterable of increasing preorder leaf indices, and the state is expanded
    in place and returned.
    """
    if isinstance(t, GrowingTree):
        return _grow_flat(t, leaf_subset, next_label)
    try:
        subset = {tuple(map(index, p)) for p in leaf_subset}
    except TypeError as exc:  # a position that is not a sequence of integers
        raise ValueError(f"positions must be paths of slot indices ({exc})") from None
    if not subset:
        raise ValueError("leaf subset must be nonempty")
    if next_label != t.max_label + 1:
        raise ValueError(
            f"next label must be {t.max_label + 1}, got {next_label}"
        )
    not_bullets = subset.difference(bullet_positions(t.root))
    if not_bullets:
        raise ValueError(f"position {not_bullets.pop()!r} is not a bullet-leaf")

    fresh = (BULLET,) * t.arity
    root = t.root
    for p in subset:
        root = _with_slot(root, p, Node(next_label, fresh))
    return CompletedTree(t.arity, root)


# --------------------------------------------------------------------------
# Canonical byte encoding
#
# Format (documented in README.md):
#   varint(arity), then the labeled nodes in preorder, each encoded as
#   varint(label) followed by ceil(arity/8) occupancy-mask bytes
#   (little-endian; bit i set <=> slot i holds a labeled child).
# Varints are unsigned LEB128.  Bullets are the unset mask bits, so the
# encoding is injective on completed trees and decodes uniquely.
# --------------------------------------------------------------------------


def _write_varint(out: bytearray, x: int) -> None:
    while x >= 0x80:
        out.append((x & 0x7F) | 0x80)
        x >>= 7
    out.append(x)


def _read_varint(data: bytes, pos: int) -> tuple[int, int]:
    start = pos
    x = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated encoding: varint runs past end")
        byte = data[pos]
        pos += 1
        x |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if byte == 0 and shift:
                # a zero final group adds nothing: _write_varint never emits it
                raise ValueError(f"non-canonical encoding: overlong varint at byte {start}")
            return x, pos
        shift += 7


def _malformed_node(node: Node, arity: int) -> NoReturn:
    """Raise ``validate``'s one-line ValueError, without the path, for a node
    with a wrong slot count or a label that is not an int of at least 1."""
    if len(node.slots) != arity:
        raise ValueError(f"node has {len(node.slots)} slots, expected {arity}")
    raise ValueError(f"node has invalid label {node.label!r}")


def canonical_encoding(t: CompletedTree) -> bytes:
    """Serialize a completed tree to its canonical byte string.

    A node without ``t.arity`` slots or with a label that is not an int of
    at least 1, and a slot that is neither a bullet nor a node, raise
    ValueError: such a node would be written as another tree's bytes or as
    bytes the decoder refuses, or would fail with a bare TypeError.
    """
    k = t.arity
    mask_len = (k + 7) // 8
    out = bytearray()
    _write_varint(out, k)
    stack = [t.root]
    pop, push = stack.pop, stack.append
    try:
        while stack:
            node = pop()
            label, slots = node.label, node.slots
            if len(slots) != k or label < 1:
                _malformed_node(node, k)
            if label < 0x80:  # a one-byte varint
                out.append(label)
            else:
                _write_varint(out, label)
            mask = 0
            i = len(slots)
            for slot in reversed(slots):
                i -= 1
                if isinstance(slot, Node):
                    mask |= 1 << i
                    push(slot)
                elif slot is not BULLET:
                    _foreign_slot(slot, "a node or a bullet")
            if mask_len == 1:
                out.append(mask)
            else:
                out += mask.to_bytes(mask_len, "little")
    except TypeError:  # a label that is not an int
        _malformed_node(node, k)
    return bytes(out)


def _encode_flat(t: GrowingTree) -> bytes:
    """``canonical_encoding(t.freeze())``, written from the flat state."""
    k = t.arity
    mask_len = (k + 7) // 8
    labels, children = t.labels, t.children
    out = bytearray()
    _write_varint(out, k)
    stack = [0]
    pop, push = stack.pop, stack.append
    backwards = range(k - 1, -1, -1)
    while stack:
        v = pop()
        label = labels[v]
        if label < 0x80:  # a one-byte varint
            out.append(label)
        else:
            _write_varint(out, label)
        kids = children[v]
        mask = 0
        for i in backwards:
            c = kids[i]
            if c >= 0:
                mask |= 1 << i
                push(c)
        if mask_len == 1:
            out.append(mask)
        else:
            out += mask.to_bytes(mask_len, "little")
    return bytes(out)


def decode_encoding(data: bytes) -> CompletedTree:
    """Inverse of ``canonical_encoding``.

    Raises ``ValueError`` for a malformed byte string and for one that
    encodes a tree violating the weakly increasing label constraints.
    """
    k, pos = _read_varint(data, 0)
    if k < 2:
        raise ValueError(f"encoded arity {k} is invalid")
    mask_len = (k + 7) // 8

    # read the nodes in preorder until no announced child is left unread
    labels: list[int] = []
    masks: list[int] = []
    end = len(data)
    pending = 1
    while pending:
        if pos < end and data[pos] < 0x80:  # a one-byte varint
            label = data[pos]
            pos += 1
        else:
            label, pos = _read_varint(data, pos)
        if pos + mask_len > end:
            raise ValueError("truncated encoding: mask runs past end")
        if mask_len == 1:
            mask = data[pos]
        else:
            mask = int.from_bytes(data[pos : pos + mask_len], "little")
        pos += mask_len
        if mask >> k:
            raise ValueError("mask has bits beyond the arity")
        labels.append(label)
        masks.append(mask)
        pending += mask.bit_count() - 1
    if pos != end:
        raise ValueError(f"{end - pos} trailing bytes after encoding")
    tree = CompletedTree(k, _build(k, labels, masks))
    result = validate(tree, k)
    if not result:
        raise ValueError(f"encoded tree is not weakly increasing: {result.message}")
    return tree


# --------------------------------------------------------------------------
# Text renderings (CLI output formats)
# --------------------------------------------------------------------------


def render_indented(tree: Union[LabeledTree, CompletedTree]) -> str:
    """Indented preorder listing; one line per slot, bullets shown as '*'.

    Empty slots get no line; a slot holding anything but ``None``,
    ``BULLET`` or a ``Node`` raises ValueError.
    """
    lines = []
    stack: list[tuple[int, int, Slot]] = [(0, -1, tree.root)]  # (depth, slot index, content)
    while stack:
        depth, i, slot = stack.pop()
        head = f"{'  ' * depth}{i}: " if depth else ""
        if isinstance(slot, Node):
            lines.append(f"{head}{slot.label}")
            for j in range(len(slot.slots) - 1, -1, -1):
                stack.append((depth + 1, j, slot.slots[j]))
        elif slot is BULLET:
            lines.append(f"{head}*")
        elif slot is not None:
            _foreign_slot(slot)
    return "\n".join(lines) + "\n"


def _path_str(path: Path) -> str:
    return "r" if not path else "r." + ".".join(str(i) for i in path)


def render_graph(tree: Union[LabeledTree, CompletedTree]) -> str:
    """One labeled node per line: ``parent_path slot label`` ('-' for the root)."""
    lines = []
    for path, node in iter_nodes(tree.root):
        if not path:
            lines.append(f"- - {node.label}")
        else:
            lines.append(f"{_path_str(path[:-1])} {path[-1]} {node.label}")
    return "\n".join(lines) + "\n"
