import copy
import itertools
import random
import re
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from witrees.trees import (
    BULLET,
    CompletedTree,
    GrowingTree,
    LabeledTree,
    Node,
    ValidationResult,
    bullet_positions,
    canonical_encoding,
    complete,
    decode_encoding,
    evolution_step,
    iter_nodes,
    render_graph,
    render_indented,
    root_tree,
    validate,
    _build,
    _encode_flat,
    _write_varint,
)


def bin_node(label, left=None, right=None):
    return Node(label, (left, right))


def strip(t: CompletedTree) -> LabeledTree:
    """Drop the bullets, giving back the labeled skeleton."""

    def walk(node):
        return Node(
            node.label,
            tuple(walk(s) if isinstance(s, Node) else None for s in node.slots),
        )

    return LabeledTree(walk(t.root))


def figure_tree() -> LabeledTree:
    # root 1 with two children labeled 2; left 2 has children (4, 3),
    # the 3 has a left child 4; right 2 has only a right child 3
    left2 = bin_node(2, bin_node(4), bin_node(3, bin_node(4)))
    right2 = bin_node(2, None, bin_node(3))
    return LabeledTree(bin_node(1, left2, right2))


# ---------------------------------------------------------------- validate


def test_validate_single_root_ok():
    assert validate(LabeledTree(bin_node(1)), 2)


def test_validate_repeated_label_in_distinct_branches_ok():
    t = LabeledTree(bin_node(1, bin_node(2), bin_node(2)))
    assert validate(t, 2)


def test_validate_label_gap():
    t = LabeledTree(bin_node(1, bin_node(3)))
    result = validate(t, 2)
    assert not result
    assert result.kind == "label-gap"
    assert "2" in result.message


def test_validate_decreasing_labels():
    t = LabeledTree(bin_node(2, bin_node(1)))
    # label set {1,2} is fine; the order along the branch is not
    result = validate(t, 2)
    assert result.kind == "label-order"
    assert result.path == (0,)


def test_validate_equal_label_child_rejected():
    t = LabeledTree(bin_node(1, bin_node(1)))
    assert validate(t, 2).kind == "label-order"


def test_validate_malformed_slot_count_distinct_kind():
    t = LabeledTree(Node(1, (None, None, None)))
    result = validate(t, 2)
    assert result.kind == "malformed"
    bad_label = LabeledTree(Node(0, (None, None)))
    assert validate(bad_label, 2).kind == "malformed"


def test_validate_reports_a_slot_holding_something_else_as_malformed():
    result = validate(LabeledTree(Node(1, (5, None))), 2)
    assert (result.kind, result.path) == ("malformed", (0,))
    assert "(0,)" in result.message
    deep = LabeledTree(bin_node(1, None, Node(2, (None, "x"))))
    result = validate(deep, 2)
    assert (result.kind, result.path) == ("malformed", (1, 1))
    assert validate(CompletedTree(2, Node(1, ("x", BULLET))), 2).kind == "malformed"
    # so ``complete`` no longer turns the foreign slot into a bullet
    with pytest.raises(ValueError, match="invalid tree: slot at"):
        complete(LabeledTree(Node(1, (5, None))), 2)


@pytest.mark.parametrize("foreign", ["x", 5, 2.5, ()])
def test_readers_that_skip_validate_refuse_a_foreign_slot(foreign):
    # a completed tree holds bullets and nodes only, a labeled one also None;
    # anything else would be dropped, miscounted or read as a bullet
    deep = Node(1, (BULLET, Node(2, (foreign, BULLET))))
    for root in (Node(1, (foreign, BULLET)), deep):
        t, twin = CompletedTree(2, root), Node(1, root.slots)
        for read in (lambda: t.size, lambda: t.max_label, lambda: canonical_encoding(t),
                     lambda: render_indented(t), lambda: render_graph(t), lambda: hash(twin),
                     lambda: root == twin):
            with pytest.raises(ValueError, match=rf"^slot holds {type(foreign).__name__}, not "):
                read()
    with pytest.raises(ValueError, match="^slot holds str, not a node, a bullet or None$"):
        render_indented(LabeledTree(bin_node(1, None, Node(2, ("x", None)))))


@pytest.mark.parametrize("root, message", [
    (Node(1, (BULLET,)), "node has 1 slots, expected 2"),
    (Node(1, (BULLET, Node(2, (BULLET, BULLET, Node(3, (BULLET, BULLET)))))),
     "node has 3 slots, expected 2"),
    (Node(1, (Node(2, (BULLET, BULLET, BULLET)), BULLET)), "node has 3 slots, expected 2"),
    (Node(0, (BULLET, BULLET)), "node has invalid label 0"),
    (Node(-1, (BULLET, Node(2, (BULLET, BULLET)))), "node has invalid label -1"),
    (Node(2.5, (BULLET, BULLET)), "node has invalid label 2.5"),
    (Node(1, (Node(200.0, (BULLET, BULLET)), BULLET)), "node has invalid label 200.0"),
    (Node("x", (BULLET, BULLET)), "node has invalid label 'x'"),
    (Node(None, (BULLET, BULLET)), "node has invalid label None"),
])
def test_encoding_refuses_a_node_that_validate_calls_malformed(root, message):
    # such a node would be written as another tree's bytes or as bytes
    # that decode_encoding refuses; the counts read the same preorder
    from witrees.sampler import tree_statistics

    t = CompletedTree(2, root)
    assert validate(t, 2).kind == "malformed"
    for read in (lambda: canonical_encoding(t), lambda: t.size, lambda: t.max_label,
                 lambda: tree_statistics(t)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            read()


def test_completed_tree_readers_refuse_an_empty_slot():
    from witrees.sampler import tree_statistics

    t = CompletedTree(2, Node(1, (None, BULLET)))
    for read in (lambda: t.size, lambda: canonical_encoding(t), lambda: t.max_label,
                 lambda: tree_statistics(t)):
        with pytest.raises(ValueError, match="^slot holds NoneType, not a node or a bullet$"):
            read()
    # equality and hashes read the nodes' stream, which has a place for an empty slot
    assert hash(t) == hash((2, t.root))
    assert t == CompletedTree(2, t.root) and t != root_tree(2)
    # an empty slot is part of a labeled tree: rendered as no line, compared as empty
    assert render_indented(t) == "1\n  1: *\n"
    assert Node(1, (None, BULLET)) != Node(1, (BULLET, BULLET))


def test_validate_figure_tree():
    assert validate(figure_tree(), 2)


def reference_validate(tree, arity):
    """``validate`` as it was first written: every node carries its path."""
    if arity < 2:
        raise ValueError(f"arity must be >= 2, got {arity}")
    labels = set()
    for path, node in iter_nodes(tree.root):
        if len(node.slots) != arity:
            return ValidationResult(
                False, "malformed", path,
                f"node at {path!r} has {len(node.slots)} slots, expected {arity}",
            )
        if not isinstance(node.label, int) or node.label < 1:
            return ValidationResult(
                False, "malformed", path,
                f"node at {path!r} has invalid label {node.label!r}",
            )
        labels.add(node.label)
        for i, slot in enumerate(node.slots):
            if isinstance(slot, Node) and slot.label <= node.label:
                return ValidationResult(
                    False, "label-order", path + (i,),
                    f"label {slot.label} at {path + (i,)!r} does not exceed parent label {node.label}",
                )
    m = max(labels)
    if len(labels) != m:
        gap = 1
        while gap in labels:
            gap += 1
        witness = next(p for p, nd in iter_nodes(tree.root) if nd.label > gap)
        return ValidationResult(
            False, "label-gap", witness,
            f"label {gap} is missing although {m} occurs (witness node at {witness!r})",
        )
    return ValidationResult(True)


def outcome(check, tree, arity):
    """The result of ``check``, or the type and text of what it raised."""
    try:
        return check(tree, arity)
    except Exception as exc:
        return type(exc), str(exc)


CORRUPTIONS = ("order", "slots", "label", "gap", "share")


@st.composite
def corrupted_trees(draw, tree):
    """``tree`` rebuilt with up to three nodes corrupted.

    A corruption lowers some children's labels to at most their parent's
    (each to its own value), adds or drops a
    slot, sets a label of 0, a negative, a float or a string, raises every
    label above a threshold by one (a gap), or hangs one child subtree in
    every child slot of its parent (the same node object twice).
    """
    order = [node for _, node in iter_nodes(tree.root)]
    inner = [i for i, node in enumerate(order) if any(isinstance(s, Node) for s in node.slots)]
    hits = {}
    for _ in range(draw(st.integers(0, 3))):
        how = draw(st.sampled_from(CORRUPTIONS))
        # the two corruptions of a node's children need a node that has some
        where = inner if how in ("order", "share") and inner else range(len(order))
        hits[draw(st.sampled_from(where))] = how
    above = draw(st.integers(1, max(node.label for node in order)))
    gap = "gap" in hits.values()
    built = {}
    for index in range(len(order) - 1, -1, -1):
        node = order[index]
        label = node.label + 1 if gap and node.label >= above else node.label
        slots = [built[id(s)] if isinstance(s, Node) else s for s in node.slots]
        how = hits.get(index)
        if how == "order":
            every = draw(st.booleans())
            slots = [Node(draw(st.integers(0, label)), s.slots)
                     if isinstance(s, Node) and (every or draw(st.booleans())) else s
                     for s in slots]
        elif how == "slots":
            if draw(st.booleans()) or len(slots) == 1:
                slots.append(draw(st.sampled_from([None, BULLET])))
            else:
                slots.pop(draw(st.integers(0, len(slots) - 1)))
        elif how == "label":
            label = draw(st.sampled_from([0, -1, 2.5, float(label), "x"]))
        elif how == "share":
            kids = [s for s in slots if isinstance(s, Node)]
            if kids:
                slots = [kids[0] if isinstance(s, Node) else s for s in slots]
        built[id(node)] = Node(label, tuple(slots))
    root = built[id(order[0])]
    return draw(st.sampled_from([LabeledTree(root), CompletedTree(len(root.slots), root)]))


@st.composite
def trees_to_validate(draw):
    """An enumerated or sampled tree, as drawn or corrupted."""
    from witrees.sampler import SamplerContext, enumerate_all, sample_uniform

    k = draw(st.integers(2, 4))
    if draw(st.booleans()):
        n = 1 + (k - 1) * draw(st.integers(1, 4))
        tree = draw(st.sampled_from(enumerate_all(k, n)))
    else:
        n = 1 + (k - 1) * draw(st.integers(1, 60))
        tree = sample_uniform(SamplerContext.create(k, n, draw(st.integers(0, 2**32 - 1))), n)
    if draw(st.booleans()):
        tree = strip(tree)
    return k, draw(st.one_of(st.just(tree), corrupted_trees(tree)))


@given(trees_to_validate(), st.integers(-1, 1))
@settings(max_examples=400, deadline=None)
def test_validate_matches_the_path_tracking_reference(kt, shift):
    k, tree = kt
    arity = max(1, k + shift)  # a wrong arity as well, and one below 2
    assert outcome(validate, tree, arity) == outcome(reference_validate, tree, arity)


def test_validate_reports_the_first_occurrence_of_a_shared_node():
    # one node object in two places; its child breaks the label order
    bad = bin_node(3, bin_node(3))
    tree = LabeledTree(bin_node(1, bin_node(2, bad), bad))
    result = validate(tree, 2)
    assert result == reference_validate(tree, 2)
    assert (result.kind, result.path) == ("label-order", (0, 0, 0))


# ---------------------------------------------------------------- complete


def test_complete_figure_tree_size_8():
    c = complete(figure_tree(), 2)
    assert c.size == 8
    assert sum(1 for _ in bullet_positions(c.root)) == 8
    assert c.max_label == 4


def test_complete_single_root_sizes():
    assert complete(LabeledTree(bin_node(1)), 2).size == 2
    assert complete(LabeledTree(Node(1, (None,) * 3)), 3).size == 3


def test_complete_preserves_skeleton():
    c = complete(figure_tree(), 2)
    assert strip(c) == figure_tree()


def test_complete_rejects_invalid():
    with pytest.raises(ValueError, match="invalid tree"):
        complete(LabeledTree(bin_node(1, bin_node(3))), 2)


# ---------------------------------------------------------------- bullet positions


def reference_bullet_positions(root):
    """Bullet paths by an explicit preorder walk over every slot."""
    out = []
    stack = [((), root)]
    while stack:
        path, slot = stack.pop()
        if slot is BULLET:
            out.append(path)
        elif isinstance(slot, Node):
            for i in range(len(slot.slots) - 1, -1, -1):
                stack.append((path + (i,), slot.slots[i]))
    return out


@st.composite
def slot_trees(draw):
    """A root of arity 2, 3 or 9 whose slots hold children, bullets, None or
    foreign values; a slot may hold the node object of the slot before it."""
    k = draw(st.sampled_from([2, 3, 9]))
    budget = [draw(st.integers(0, 20))]

    def node(label):
        slots = []
        for _ in range(k):
            how = draw(st.sampled_from(["child", "bullet", "none", "foreign", "share"]))
            if how == "share" and slots and isinstance(slots[-1], Node):
                slots.append(slots[-1])
            elif how == "child" and budget[0] > 0:
                budget[0] -= 1
                slots.append(node(label + 1))
            else:
                slots.append({"none": None, "foreign": "x"}.get(how, BULLET))
        return Node(label, tuple(slots))

    return node(1)


@given(slot_trees())
@settings(max_examples=200, deadline=None)
def test_bullet_positions_match_the_slot_walk(root):
    assert bullet_positions(root) == reference_bullet_positions(root)


@pytest.mark.parametrize("slot", [0, 1])
def test_bullet_positions_of_a_deep_chain_match_the_slot_walk(slot):
    node = Node(3001, (BULLET, BULLET))
    for label in range(3000, 0, -1):
        node = Node(label, (node, BULLET) if slot == 0 else (BULLET, node))
    leaves = bullet_positions(node)
    assert leaves == reference_bullet_positions(node)
    assert len(leaves) == 3002 and leaves[-slot] == (slot,) * 3001


# ---------------------------------------------------------------- evolution


def test_evolution_single_leaf():
    t = root_tree(2)
    t2 = evolution_step(t, [(0,)], 2)
    assert t2.size == 3
    assert t2.root == Node(1, (Node(2, (BULLET, BULLET)), BULLET))


def test_evolution_both_leaves():
    t = root_tree(2)
    t2 = evolution_step(t, [(0,), (1,)], 2)
    assert t2.size == 4
    two = Node(2, (BULLET, BULLET))
    assert t2.root == Node(1, (two, two))


def test_evolution_ternary_size_increment():
    t = root_tree(3)
    t2 = evolution_step(t, [(1,)], 2)
    assert t2.size == t.size + 2 == 5


def test_evolution_errors():
    t = root_tree(2)
    with pytest.raises(ValueError, match="nonempty"):
        evolution_step(t, [], 2)
    with pytest.raises(ValueError, match="next label"):
        evolution_step(t, [(0,)], 3)
    grown = evolution_step(t, [(0,)], 2)
    with pytest.raises(ValueError, match="not a bullet"):
        evolution_step(grown, [(0,)], 3)


@pytest.mark.parametrize("position", [(), (0, 0), (5,)])
def test_evolution_refuses_positions_that_are_not_bullets(position):
    # the root node, a path through a bullet, a slot index out of range
    with pytest.raises(ValueError, match=re.escape(repr(position))):
        evolution_step(root_tree(2), [position], 2)


@pytest.mark.parametrize(
    "positions, message",
    [([0], "paths of slot indices"), ([([0],)], "paths of slot indices"),
     ([("a",)], "paths of slot indices"), ([(0.0,)], "paths of slot indices")],
)
def test_evolution_refuses_positions_that_are_not_paths(positions, message):
    with pytest.raises(ValueError, match=message):
        evolution_step(root_tree(2), positions, 2)


@pytest.mark.parametrize("k", [2, 3])
def test_flat_evolution_matches_path_evolution(k):
    # every history of up to three steps, as leaf indices on the flat
    # state and as the same preorder paths on the immutable tree
    def histories(t, flat_steps, depth):
        yield t, flat_steps
        if depth == 0:
            return
        leaves = bullet_positions(t.root)
        for take in (1, 2):
            for idx in itertools.combinations(range(len(leaves)), take):
                grown = evolution_step(t, [leaves[i] for i in idx], t.max_label + 1)
                yield from histories(grown, flat_steps + [idx], depth - 1)

    for t, steps in histories(root_tree(k), [], 3):
        state = GrowingTree(k)
        for idx in steps:
            assert evolution_step(state, idx, state.max_label + 1) is state
        assert state.size == t.size
        assert state.max_label == t.max_label
        assert state.freeze() == t


def test_flat_evolution_errors():
    state = GrowingTree(2)
    with pytest.raises(ValueError, match="nonempty"):
        evolution_step(state, [], 2)
    with pytest.raises(ValueError, match="next label"):
        evolution_step(state, [0], 3)
    with pytest.raises(ValueError, match="increase"):
        evolution_step(state, [1, 0], 2)
    with pytest.raises(ValueError, match="increase"):
        evolution_step(state, [0, 0], 2)
    with pytest.raises(ValueError, match="increase"):
        evolution_step(state, [2], 2)
    with pytest.raises(ValueError, match="increase"):
        evolution_step(state, [-1], 2)
    with pytest.raises(ValueError, match="increase"):
        evolution_step(state, [0, 5], 2)
    # a rejected step leaves the state untouched
    assert state.freeze() == root_tree(2)
    with pytest.raises(ValueError, match="arity"):
        GrowingTree(1)
    # the indices may come from any iterable, a one-shot generator included
    grown = evolution_step(state, (i for i in (0, 1)), 2)
    assert grown.freeze() == evolution_step(root_tree(2), [(0,), (1,)], 2)


@pytest.mark.parametrize("k", [2, 3, 9])
def test_rejected_step_on_a_grown_state_changes_nothing(k):
    state = GrowingTree(k)
    evolution_step(state, [0, k - 1], 2)
    evolution_step(state, [1, 3 * k - 3], 3)

    def interrupted():
        yield 1
        raise KeyboardInterrupt

    # each rejection comes after at least one index was applied
    for indices, error in (
        ([2, 1], ValueError),
        ([0, state.size], ValueError),
        (interrupted(), KeyboardInterrupt),
    ):
        before = copy.deepcopy((state.labels, state.children, state.leaves))
        with pytest.raises(error):
            evolution_step(state, indices, 4)
        assert (state.labels, state.children, state.leaves) == before


# ---------------------------------------------------------------- encoding


def test_encoding_distinguishes_positions():
    left = evolution_step(root_tree(2), [(0,)], 2)
    right = evolution_step(root_tree(2), [(1,)], 2)
    assert canonical_encoding(left) != canonical_encoding(right)


def test_encoding_round_trip():
    t = complete(figure_tree(), 2)
    assert decode_encoding(canonical_encoding(t)) == t
    t3 = evolution_step(root_tree(3), [(0,), (2,)], 2)
    assert decode_encoding(canonical_encoding(t3)) == t3


def test_encoding_injective_on_size_4():
    from witrees.sampler import enumerate_all

    trees = enumerate_all(2, 4)
    encodings = {canonical_encoding(t) for t in trees}
    assert len(trees) == len(encodings) == 7


def test_encoding_injective_exhaustive_small():
    from witrees.sampler import enumerate_all

    for n, count in ((5, 34), (6, 214), (7, 1652)):
        trees = enumerate_all(2, n)
        assert len(trees) == count
        assert len({canonical_encoding(t) for t in trees}) == count


@pytest.mark.parametrize("k, top", [(2, 7), (3, 9), (4, 10)])
def test_flat_encoding_equals_the_frozen_tree_encoding(k, top):
    # every tree the brute walk finishes, at every size up to ``top``
    from witrees.sampler import _walk_histories

    for n in range(top + 1):
        found = []
        count = _walk_histories(
            k, n, None, lambda state: found.append((_encode_flat(state), state.freeze()))
        )
        assert count == len(found) == len({data for data, _ in found})
        for data, tree in found:
            assert data == canonical_encoding(tree)
            assert decode_encoding(data) == tree


@pytest.mark.parametrize("k, labels", [(9, 3), (2, 200), (3, 140)])
def test_flat_encoding_of_wide_nodes_and_multibyte_labels(k, labels):
    # masks of two bytes, and labels of two-byte varints, take the general writer
    state = GrowingTree(k)
    for label in range(2, labels + 1):
        evolution_step(state, [label % 2], label)
    tree = state.freeze()
    data = canonical_encoding(CompletedTree(k, tree.root))
    assert _encode_flat(state) == canonical_encoding(tree) == data
    assert decode_encoding(data) == tree


def test_node_equality_hash_and_repr_follow_the_structure():
    from witrees.sampler import enumerate_all

    trees = enumerate_all(2, 5)
    copies = [decode_encoding(canonical_encoding(t)) for t in trees]
    for i, t in enumerate(trees):
        assert [t.root == u.root for u in copies] == [i == j for j in range(len(copies))]
        assert hash(t.root) == hash(copies[i].root)
    assert len({t.root for t in trees}) == len(trees)
    assert Node(1, (None, None)) != Node(1, (BULLET, BULLET))
    assert Node(1, (None, None)) != Node(1, (None, None, None))
    assert Node(1, (None,)) != "Node(1, (None,))"
    assert repr(Node(1, (Node(2, (BULLET, None)), BULLET))) == (
        "Node(label=1, slots=(Node(label=2, slots=(BULLET, None)), BULLET))"
    )
    assert repr(Node(3, (None,))) == "Node(label=3, slots=(None,))"


def test_a_none_and_a_bullet_slot_below_the_root_make_trees_unequal():
    bare = LabeledTree(bin_node(1, bin_node(2), bin_node(2, None, bin_node(3))))
    filled = LabeledTree(bin_node(1, bin_node(2), bin_node(2, BULLET, bin_node(3))))
    assert bare != filled and bare.root != filled.root
    assert filled.root != bare.root
    assert bare == LabeledTree(bin_node(1, bin_node(2), bin_node(2, None, bin_node(3))))


@pytest.mark.parametrize("k, n", [(2, 40), (3, 41), (5, 33)])
def test_decoded_completed_and_sampled_trees_are_equal_and_hash_equal(k, n):
    from witrees.sampler import SamplerContext, sample_uniform

    ctx = SamplerContext.create(k, n, 11)
    for _ in range(5):
        sampled = sample_uniform(ctx, n)
        decoded = decode_encoding(canonical_encoding(sampled))
        completed = complete(strip(sampled), k)
        assert sampled == decoded == completed
        assert sampled.root is not decoded.root and sampled.root is not completed.root
        assert hash(sampled.root) == hash(decoded.root) == hash(completed.root)
        assert hash(sampled) == hash(decoded) == hash(completed)


def preorder_trees():
    """Sampled (k = 2, 3, 5), decoded, completed and enumerated trees; each holds its preorder."""
    from witrees.sampler import SamplerContext, enumerate_all, sample_uniform

    for k, n in [(2, 60), (3, 61), (5, 41)]:
        ctx = SamplerContext.create(k, n, 3)
        for _ in range(3):
            t = sample_uniform(ctx, n)
            yield t
            yield decode_encoding(canonical_encoding(t))
            yield complete(strip(t), k)
    for k, n in [(2, 5), (3, 7)]:
        yield from enumerate_all(k, n)
    yield root_tree(4)


def test_the_preorder_readers_agree_with_the_node_walks():
    from witrees.sampler import tree_statistics

    trees = list(preorder_trees())
    twins = [CompletedTree(t.arity, t.root) for t in trees]  # these derive their preorder
    for t, twin in zip(trees, twins):
        assert "_preorder" in t.__dict__ and "_preorder" not in twin.__dict__
        assert canonical_encoding(t) == canonical_encoding(twin)
        for arity in (t.arity - 1, t.arity, t.arity + 1):
            assert outcome(validate, t, arity) == outcome(validate, twin, arity)
        assert (t.size, t.max_label) == (twin.size, twin.max_label)
        assert tree_statistics(t) == tree_statistics(twin)
        assert hash(t) == hash(twin) == hash((t.arity, t.root))
    # equality on the lists, on the nodes and across the two, for equal and unequal trees
    data = [canonical_encoding(t) for t in trees]
    for i, t in enumerate(trees):
        same = [d == data[i] for d in data]
        assert [t == u for u in trees] == same
        assert [t == u for u in twins] == same == [u == t for u in twins]


@pytest.mark.parametrize("k", [2, 3])
def test_validate_words_a_bad_preorder_as_the_node_walk_does(k):
    # enumerated shapes with random labels, mostly ones that decode_encoding refuses
    from witrees.sampler import enumerate_all

    rng = random.Random(k)
    for shape in enumerate_all(k, 1 + 4 * (k - 1)):
        masks = shape._preorder[1]
        for _ in range(10):
            labels = [rng.randrange(0, 5) for _ in masks]
            t = CompletedTree._of_preorder(k, labels, masks)
            assert validate(t, k) == validate(CompletedTree(k, _build(k, labels, masks)), k)


def test_a_lazily_built_root_is_kept_and_a_tree_stays_frozen():
    from dataclasses import FrozenInstanceError

    t = decode_encoding(canonical_encoding(evolution_step(root_tree(2), [(1,)], 2)))
    assert t.root is t.root == Node(1, (BULLET, Node(2, (BULLET, BULLET))))
    assert repr(t) == f"CompletedTree(arity=2, root={t.root!r})"
    for attempt in (lambda: setattr(t, "root", None), lambda: setattr(t, "arity", 3),
                    lambda: delattr(t, "root")):
        with pytest.raises(FrozenInstanceError):
            attempt()


def test_sampling_and_the_round_trip_build_no_node(monkeypatch):
    from witrees.sampler import SamplerContext, sample_uniform

    ctx = SamplerContext.create(2, 80, 5)
    built = []
    init = Node.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Node, "__init__", counted)
    for _ in range(5):
        t = sample_uniform(ctx, 80)
        assert validate(t, 2) and t.size == 80
        data = canonical_encoding(t)
        assert canonical_encoding(decode_encoding(data)) == data
        render_indented(t), render_graph(t)
    assert built == []
    t.root  # the counter sees nodes that are built
    assert len(built) == 79


def test_decode_rejects_garbage():
    t = root_tree(2)
    enc = canonical_encoding(t)
    with pytest.raises(ValueError, match="trailing"):
        decode_encoding(enc + b"\x00")
    with pytest.raises(ValueError):
        decode_encoding(enc[:-1])


def binary_chain_encoding(labels) -> bytes:
    """Encoding of a binary tree whose nodes each hang in slot 0 of the previous one."""
    out = bytearray([2])
    for depth, label in enumerate(labels):
        _write_varint(out, label)
        out.append(1 if depth < len(labels) - 1 else 0)
    return bytes(out)


def test_deep_chain_round_trips_without_recursion():
    data = binary_chain_encoding(range(1, 3001))
    t = decode_encoding(data)
    assert t.max_label == 3000
    assert canonical_encoding(t) == data
    assert t.size == 3001
    leaves = bullet_positions(t.root)
    assert leaves[0] == (0,) * 3000 and leaves[-1] == (1,)
    lines = render_indented(t).splitlines()
    assert len(lines) == 6001 and lines[-1] == "  1: *"
    assert lines[3000:3002] == ["  " * 3000 + "0: *", "  " * 3000 + "1: *"]
    assert canonical_encoding(complete(LabeledTree(t.root), 2)) == data
    grown = evolution_step(t, [leaves[0]], 3001)
    assert grown.size == 3002 and grown.max_label == 3001
    u = decode_encoding(data)
    assert u.root is not t.root and u.root == t.root and u == t
    assert grown.root != t.root
    assert hash(u.root) == hash(t.root) and hash(u) == hash(t)
    text = repr(t.root)
    assert text.startswith("Node(label=1, slots=(Node(label=2, slots=(")
    assert text.count("Node(") == 3000 and text.endswith(", BULLET))" * 3000)


def test_decode_rejects_child_labelled_like_parent():
    with pytest.raises(ValueError, match="not weakly increasing: label 1 at"):
        decode_encoding(binary_chain_encoding([1, 1]))


def test_decode_rejects_lone_root_labelled_5():
    with pytest.raises(ValueError, match="not weakly increasing: label 1 is missing"):
        decode_encoding(binary_chain_encoding([5]))


@pytest.mark.parametrize(
    "data, message",
    [("02ffffffffffffffff7f00",  # one node labelled 2^63 - 1
      "encoded tree is not weakly increasing: label 1 is missing although 9223372036854775807 occurs"),
     ("02810000", "non-canonical encoding: overlong varint at byte 1"),  # label 1
     ("82000100", "non-canonical encoding: overlong varint at byte 0")],  # arity 2
)
def test_decode_rejects_crafted_encodings_quickly(data, message):
    # the first once allocated O(max label) in validate; the other two are
    # overlong spellings of 020100, the lone root of arity 2
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        decode_encoding(bytes.fromhex(data))
    assert time.perf_counter() - t0 < 0.1
    assert canonical_encoding(decode_encoding(bytes.fromhex("020100"))) == bytes.fromhex("020100")


@st.composite
def mutated_encodings(draw):
    """A canonical encoding with up to three bytes replaced, inserted or
    deleted, or a byte's continuation bit set before an inserted zero (an
    overlong varint when that byte ends one)."""
    _, t = draw(evolution_histories())
    data = bytearray(canonical_encoding(t))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(("replace", "insert", "delete", "overlong")))
        if op == "insert":
            data.insert(i, draw(st.integers(0, 255)))
        elif i < len(data):
            if op == "replace":
                data[i] = draw(st.integers(0, 255))
            elif op == "delete":
                del data[i]
            else:
                data[i] |= 0x80
                data.insert(i + 1, 0)
    return bytes(data[:64])


@given(st.binary(max_size=64) | mutated_encodings())
@example(bytes.fromhex("02810000"))
@example(bytes.fromhex("82000100"))
@settings(max_examples=300, deadline=None)
def test_decoding_accepts_only_canonical_bytes(data):
    try:
        t = decode_encoding(data)
    except ValueError:
        return
    assert canonical_encoding(t) == data


# ---------------------------------------------------------------- rendering


def test_render_graph_format():
    t = evolution_step(root_tree(2), [(1,)], 2)
    assert render_graph(t) == "- - 1\nr 1 2\n"


def test_render_indented_marks_positions():
    t = evolution_step(root_tree(2), [(1,)], 2)
    assert render_indented(t) == "1\n  0: *\n  1: 2\n    0: *\n    1: *\n"


# ---------------------------------------------------------------- properties


@st.composite
def evolution_histories(draw):
    k = draw(st.integers(2, 4))
    steps = draw(st.integers(0, 4))
    t = root_tree(k)
    for step in range(steps):
        leaves = bullet_positions(t.root)
        take = draw(st.integers(1, min(3, len(leaves))))
        subset = draw(
            st.lists(st.sampled_from(leaves), min_size=take, max_size=take, unique=True)
        )
        expected = t.size + take * (k - 1)
        t = evolution_step(t, subset, step + 2)
        assert t.size == expected
    return k, t


@given(evolution_histories())
@settings(max_examples=60, deadline=None)
def test_evolved_trees_always_validate(kt):
    k, t = kt
    assert validate(strip(t), k)
    assert decode_encoding(canonical_encoding(t)) == t


def test_all_subsets_expansion_matches_counts():
    # expanding the size-2 tree by every subset of its two leaves, then
    # every subset again, only ever yields valid trees
    t = root_tree(2)
    seen = set()
    for r in (1, 2):
        for subset in itertools.combinations(bullet_positions(t.root), r):
            t2 = evolution_step(t, subset, 2)
            assert validate(strip(t2), 2)
            seen.add(canonical_encoding(t2))
    assert len(seen) == 3  # left, right, both
