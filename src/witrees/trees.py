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

A completed tree has one form that its readers read: its canonical
preorder, the nodes' labels and child masks that the byte encoding
writes.  ``GrowingTree.freeze`` reads them off the flat state in one
walk, and ``decode_encoding`` and ``complete`` keep the lists they read;
such a tree's ``Node`` tree is built, bottom-up by ``_build``, only when
its ``root`` is read.  A tree given as ``CompletedTree(arity, root)``
derives the lists from its nodes, in one walk, when a reader first needs
them.  ``==``, ``hash`` and the two renderings read one preorder stream
of (label, slot occupancy) pairs, ``_pairs``: from the lists when a tree
holds them, else from the nodes, as for a ``LabeledTree``; ``complete``
and ``Node``'s ``==`` and ``hash`` read the same stream of nodes.

All tree values are immutable; operations return new trees.  The one
exception is ``GrowingTree``, a mutable flat state.  The exact sampler
expands it in place and freezes it into a ``CompletedTree`` at the end;
the exhaustive walk expands and undoes steps on one state and reads each
finished tree from it, frozen or as its canonical encoding.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
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


def _pairs(tree: Union["LabeledTree", "CompletedTree"]) -> Iterator[tuple[int, tuple[int, ...]]]:
    """A tree's ``_stream``: from its child masks when it holds its preorder, else from its nodes."""
    preorder = tree.__dict__.get("_preorder")
    if preorder is None:
        return _stream(tree.root)
    k = tree.arity
    labels, masks = preorder
    occupancy = {m: tuple(2 if m >> i & 1 else 1 for i in range(k)) for m in set(masks)}
    return zip(labels, map(occupancy.get, masks))


def _fold(stream) -> int:
    """The hash of a preorder stream of (label, slot occupancy) pairs."""
    h = 0
    for label, occupancy in stream:
        h = hash((h, label, occupancy))
    return h


class _Hashed(int):
    """A node's hash that hashes to itself, to stand for the node in a hashed tuple."""

    def __hash__(self) -> int:
        return int(self)


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
        return _fold(_stream(self))

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


class CompletedTree:
    """A weakly increasing tree with all empty slots filled by bullets.

    A tree is fixed by its canonical preorder: its nodes' labels and child
    masks (bit i set when slot i holds a child), the two lists that
    ``canonical_encoding`` writes.  A tree that the package makes
    (``GrowingTree.freeze``, ``decode_encoding``, ``complete``,
    ``root_tree``) holds them from the start, and ``root`` builds its
    nodes, by ``_build``, only when it is first read.  A tree made as
    ``CompletedTree(arity, root)`` derives them from its nodes, in one
    walk, when a reader first asks; that walk refuses a node or slot that
    ``canonical_encoding`` could not write.  ``size``, ``max_label``,
    ``tree_statistics`` and ``canonical_encoding`` read the lists;
    ``==``, ``hash`` and the renderers read the one stream of ``_pairs``,
    which takes the nodes of a tree whose lists are not yet held.
    Equality, hashes and ``repr`` are those of a frozen dataclass of
    ``arity`` and ``root``, and so is the refusal to set or delete an
    attribute.
    """

    def __init__(self, arity: int, root: Node) -> None:
        self.__dict__.update(arity=arity, _root=root)

    @classmethod
    def _of_preorder(cls, arity: int, labels: list[int], masks: list[int]) -> "CompletedTree":
        tree = cls.__new__(cls)
        tree.__dict__.update(arity=arity, _root=None, _preorder=(labels, masks))
        return tree

    @property
    def root(self) -> Node:
        """The root node, built from the preorder on first read and kept."""
        root = self._root
        if root is None:
            # two threads may each build one; they are equal, and one is kept
            root = self.__dict__["_root"] = _build(self.arity, *self._preorder)
        return root

    def __setattr__(self, name: str, value: object) -> NoReturn:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> NoReturn:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        return f"CompletedTree(arity={self.arity!r}, root={self.root!r})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.arity == other.arity and all(map(eq, _pairs(self), _pairs(other)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        # hash((arity, root)): a node hashes to the fold of its stream
        return hash((self.arity, _Hashed(_fold(_pairs(self)))))

    @cached_property
    def _preorder(self) -> tuple[list[int], list[int]]:
        """The labels and child masks in preorder, derived from the nodes given.

        One walk on an explicit stack.  A node without ``arity`` slots or
        with a label that is not an int of at least 1, and a slot that is
        neither a bullet nor a node, raise ValueError: such a node would be
        written as another tree's bytes or as bytes the decoder refuses.
        """
        k = self.arity
        labels: list[int] = []
        masks: list[int] = []
        stack = [self._root]
        pop, push = stack.pop, stack.append
        backwards = range(k - 1, -1, -1)
        while stack:
            node = pop()
            label, slots = node.label, node.slots
            if len(slots) != k:
                raise ValueError(f"node has {len(slots)} slots, expected {k}")
            if not isinstance(label, int) or label < 1:
                raise ValueError(f"node has invalid label {label!r}")
            mask = 0
            for i in backwards:
                slot = slots[i]
                if isinstance(slot, Node):
                    mask |= 1 << i
                    push(slot)
                elif slot is not BULLET:
                    _foreign_slot(slot, "a node or a bullet")
            labels.append(label)
            masks.append(mask)
        return labels, masks

    @cached_property
    def _counts(self) -> tuple[int, int, int, int]:
        labels, masks = self._preorder
        return self.size, len(labels), max(labels), _preorder_depth(masks)

    @property
    def size(self) -> int:
        """Number of bullet-leaves."""
        # every node but the root fills one of the arity * nodes slots
        return (self.arity - 1) * len(self._preorder[0]) + 1

    @property
    def max_label(self) -> int:
        return max(self._preorder[0])


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


def _preorder_depth(masks: list[int]) -> int:
    """Labeled nodes on the longest root-to-bullet path, from the preorder child masks."""
    depth = 0
    below = [1]  # the depth of each announced node not yet read
    pop = below.pop
    for mask in masks:
        d = pop()
        if mask:
            below += [d + 1] * mask.bit_count()
        elif d > depth:  # the deepest node has no child
            depth = d
    return depth


def _labels_ok(labels: list[int], masks: list[int]) -> bool:
    """Whether the preorder's labels are at least 1, exceed their parents' and fill 1..max."""
    above = [0]  # the parent's label of each announced node not yet read; the root's is 0
    pop = above.pop
    for label, mask in zip(labels, masks):
        if label <= pop():
            return False
        if mask:
            above += [label] * mask.bit_count()
    return len(set(labels)) == max(labels)


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

    A completed tree that already holds its preorder at this arity is
    checked on those lists in one walk, and its nodes are built only to
    word a violation.  ``validate`` never derives the lists, whose walk
    would refuse a malformed node without its path.  Otherwise the nodes
    are checked in preorder on a stack of bare nodes; the first violation
    is reported, and only then is its node's path built, by a second
    preorder walk that stops at that node.
    """
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    preorder = tree.__dict__.get("_preorder")
    if preorder is not None and tree.arity == arity and _labels_ok(*preorder):
        return ValidationResult(True)
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
    return CompletedTree._of_preorder(arity, labels, masks)


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
    return CompletedTree._of_preorder(arity, [1], [0])


class GrowingTree:
    """Mutable flat form of a completed tree, for replaying growth steps.

    Node ids are in creation order (the root is 0); each node has a label
    and k child ids, -1 marking a bullet.  ``leaves`` lists the bullets as
    (node, slot) pairs in preorder, the order of ``bullet_positions``.  An
    ``evolution_step`` on it takes preorder leaf indices instead of paths
    and costs O(size); ``freeze`` reads the immutable tree's preorder off
    it in one walk.

    The sampler grows a state to its final size.  The exhaustive walk
    (``sampler._walk_histories``) also undoes steps on it by ``_undo_flat``,
    which a rejected step uses too, and
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
        """The immutable tree; its nodes are built only if its ``root`` is read."""
        numbers = _flat_preorder(self)
        return CompletedTree._of_preorder(self.arity, numbers[1::2], numbers[2::2])


def _flat_preorder(t: GrowingTree) -> list[int]:
    """The arity, then each node's label and child mask in preorder, by one walk of a flat state.

    The numbers are those of the canonical encoding, in its order.  The
    list is made at its final length, so the walk never reallocates it:
    the brute walk encodes every tree through it, and appends that grow
    it raise that walk's peak resident set by a 256 KiB arena.
    """
    labels, children = t.labels, t.children
    numbers = [t.arity] * (2 * len(labels) + 1)
    at = 1
    stack = [0]
    pop, push = stack.pop, stack.append
    backwards = range(t.arity - 1, -1, -1)
    while stack:
        v = pop()
        numbers[at] = labels[v]
        kids = children[v]
        mask = 0
        for i in backwards:
            c = kids[i]
            if c >= 0:
                mask |= 1 << i
                push(c)
        numbers[at + 1] = mask
        at += 2
    return numbers


def _grow_flat(t: GrowingTree, leaf_indices, next_label: int) -> GrowingTree:
    labels, children, leaves = t.labels, t.children, t.leaves
    if next_label != labels[-1] + 1:
        raise ValueError(f"next label must be {labels[-1] + 1}, got {next_label}")
    k = t.arity
    # one pass: link each new node and put its k bullets in the place of
    # the expanded bullet in preorder, which the earlier ones moved right
    top = node = len(labels)
    t.leaves = spliced = leaves.copy()
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
        # a rejected step changes nothing: every old leaf was a bullet
        _undo_flat(t, leaves, range(len(leaves)), top)
        raise
    return t


def _undo_flat(t: GrowingTree, leaves, indices, top: int) -> None:
    """Undo growth back to the state whose leaf list was ``leaves`` and node count ``top``.

    The slots ``leaves[i]`` for i in ``indices`` become bullets again (they
    must include every expanded one), ``labels`` and ``children`` are cut
    back to ``top`` nodes and ``leaves`` is restored.  Both the rollback of
    a rejected step and the exhaustive walk's undo use it.
    """
    children = t.children
    for i in indices:
        parent, slot = leaves[i]
        children[parent][slot] = -1
    del t.labels[top:], children[top:]
    t.leaves = leaves


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


def canonical_encoding(t: CompletedTree) -> bytes:
    """Serialize a completed tree to its canonical byte string.

    A node without ``t.arity`` slots or with a label that is not an int of
    at least 1, and a slot that is neither a bullet nor a node, raise
    ValueError (see ``CompletedTree._preorder``).
    """
    return _write_preorder(t.arity, *t._preorder)


def _write_preorder(k: int, labels: list[int], masks: list[int]) -> bytes:
    """The canonical encoding of the arity-k tree with these preorder labels and child masks."""
    mask_len = (k + 7) // 8
    out = bytearray()
    _write_varint(out, k)
    append = out.append
    for label, mask in zip(labels, masks):
        if label < 0x80:  # a one-byte varint
            append(label)
        else:
            _write_varint(out, label)
        if mask_len == 1:
            append(mask)
        else:
            out += mask.to_bytes(mask_len, "little")
    return bytes(out)


def _encode_flat(t: GrowingTree) -> bytes:
    """``canonical_encoding(t.freeze())``, written from the flat state.

    The brute walk encodes every tree it finishes through this, without the
    freeze's two slices and tree object and, for one-byte numbers, with one
    ``bytes()`` call: ``brute_force_count(2, 8)`` takes about 93 ms so and
    about 123 ms through the freeze (2-vCPU VM, Python 3.11.7).
    """
    numbers = _flat_preorder(t)
    if t.arity <= 8 and max(numbers) < 0x80:  # each number is one byte
        return bytes(numbers)
    return _write_preorder(t.arity, numbers[1::2], numbers[2::2])


def decode_encoding(data: bytes) -> CompletedTree:
    """Inverse of ``canonical_encoding``.

    Raises ``ValueError`` for a malformed byte string and for one that
    encodes a tree violating the weakly increasing label constraints.
    The parsed labels and masks are checked by ``validate``'s check of a
    preorder: each label must exceed its parent's (the root's counts as
    0), and together they must fill 1..max.  The tree keeps the lists; its
    nodes are built only for ``validate`` to word a refusal.
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
    tree = CompletedTree._of_preorder(k, labels, masks)
    if not _labels_ok(labels, masks):
        raise ValueError(f"encoded tree is not weakly increasing: {validate(tree, k).message}")
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
    # (line head, indent of its slots) of each announced node not yet read,
    # and the finished line of each bullet that follows a child's subtree
    todo: list[Union[str, tuple[str, str]]] = [("", "  ")]
    pop, push = todo.pop, todo.append
    for label, occupancy in _pairs(tree):
        head, pad = pop()
        lines.append(f"{head}{label}")
        for i in range(len(occupancy) - 1, -1, -1):
            if occupancy[i] == 2:
                push((f"{pad}{i}: ", pad + "  "))
            elif occupancy[i]:
                push(f"{pad}{i}: *")
        while todo and todo[-1].__class__ is str:
            lines.append(pop())
    return "\n".join(lines) + "\n"


def render_graph(tree: Union[LabeledTree, CompletedTree]) -> str:
    """One labeled node per line: ``parent_path slot label`` ('-' for the root).

    A path is ``r`` for the root and ``r.i.j`` for slot j of its child in
    slot i.  A slot holding anything but ``None``, ``BULLET`` or a
    ``Node`` raises ValueError.
    """
    lines = []
    todo = [("- -", "r")]  # (line head, path) of each announced node not yet read
    pop, push = todo.pop, todo.append
    for label, occupancy in _pairs(tree):
        head, path = pop()
        lines.append(f"{head} {label}")
        for i in range(len(occupancy) - 1, -1, -1):
            if occupancy[i] == 2:
                push((f"{path} {i}", f"{path}.{i}"))
    return "\n".join(lines) + "\n"
