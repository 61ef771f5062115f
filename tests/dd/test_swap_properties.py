"""Property suite for the fused level-swap kernel on both managers.

Random boolean functions (BDD, complement edges) and random set
families (ZDD, plain zero-suppressed edges) are held by reference
through a random run of ``swap_levels``, ``set_order`` and ``sift``
calls.  After every step:

* each root still denotes the same function / family;
* ``assert_consistent()`` passes;
* no node leaks: every node in the unique tables is reachable from a
  held root (the roots are collected clean before the run, and a swap
  must free what it orphans);
* the delta ``swap_levels`` returns equals the ``live_nodes()``
  difference, and so does every delta a sifting pass adds up;
* ``peak_live_nodes`` is at least every size a plain sifting pass
  visits and the size after the step.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, ONE, ZERO, ZDD
from repro.dd.reorder import sift

NUM_VARS = 6
NAMES = [f"v{i}" for i in range(NUM_VARS)]
# Interleaved pairs, as a relational manager groups current/next vars.
GROUPS = [(0, 1), (2, 3), (4, 5)]


def exprs():
    leaves = st.sampled_from([("var", i) for i in range(NUM_VARS)]
                             + [("const", False), ("const", True)])

    def extend(children):
        return st.one_of(
            st.tuples(st.just("not"), children),
            st.tuples(st.just("and"), children, children),
            st.tuples(st.just("or"), children, children),
            st.tuples(st.just("xor"), children, children),
        )

    return st.recursive(leaves, extend, max_leaves=12)


def build(bdd, expr):
    tag = expr[0]
    if tag == "var":
        return bdd.var_node(expr[1])
    if tag == "const":
        return ONE if expr[1] else ZERO
    if tag == "not":
        return bdd.apply_not(build(bdd, expr[1]))
    op = {"and": bdd.apply_and, "or": bdd.apply_or,
          "xor": bdd.apply_xor}[tag]
    return op(build(bdd, expr[1]), build(bdd, expr[2]))


families = st.frozensets(
    st.frozensets(st.integers(0, NUM_VARS - 1), max_size=NUM_VARS),
    max_size=10)

steps = st.lists(
    st.one_of(
        st.tuples(st.just("swap"), st.integers(0, NUM_VARS - 2)),
        st.tuples(st.just("order"), st.permutations(range(NUM_VARS))),
        st.tuples(st.just("sift"), st.booleans()),
    ),
    min_size=1, max_size=12)


def table_size(manager):
    """``live_nodes()`` without touching the peak statistic."""
    return 2 + sum(len(table) for table in manager._unique)


def reachable_internal(manager, roots):
    shift = manager._edge_shift
    seen = set()
    stack = [root >> shift for root in roots]
    while stack:
        node = stack.pop()
        if node <= 1 or node in seen:
            continue
        seen.add(node)
        stack.append(manager._low[node] >> shift)
        stack.append(manager._high[node] >> shift)
    return len(seen)


def record_swaps(manager):
    """Wrap the manager's per-swap entry point: check each returned
    delta against the tables and record the size after each swap."""
    sizes = []
    original = manager._swap

    def checked(level):
        before = table_size(manager)
        delta = original(level)
        after = table_size(manager)
        assert delta == after - before
        sizes.append(after)
        return delta

    manager._swap = checked
    return sizes


def run_steps(manager, roots, plan, semantics):
    expected = [semantics(root) for root in roots]
    manager.collect_garbage()
    sizes = record_swaps(manager)
    for step, arg in plan:
        del sizes[:]
        before = manager.live_nodes()
        if step == "swap":
            delta = manager.swap_levels(arg)
            assert delta == manager.live_nodes() - before
        elif step == "order":
            manager.set_order(list(arg))
            assert manager.order() == [NAMES[v] for v in arg]
        else:
            peak_before = manager.peak_live_nodes
            result = sift(manager, groups=GROUPS if arg else None)
            assert result == table_size(manager)
            peak = manager.peak_live_nodes
            assert peak >= table_size(manager)
            assert peak >= peak_before
            if not arg:
                assert all(peak >= size for size in sizes)
            else:
                for a, b in GROUPS:
                    assert abs(manager.level_of_var(a)
                               - manager.level_of_var(b)) == 1
        manager.assert_consistent()
        assert table_size(manager) - 2 == reachable_internal(manager,
                                                             roots)
        assert [semantics(root) for root in roots] == expected


def truth_table(bdd, root):
    return tuple(
        bdd.eval_node(root, dict(enumerate(bits)))
        for bits in itertools.product((False, True), repeat=NUM_VARS))


@settings(max_examples=80, deadline=None)
@given(st.lists(exprs(), min_size=1, max_size=3), steps)
def test_bdd_swaps_keep_functions_tables_and_deltas(expr_list, plan):
    bdd = BDD(var_names=NAMES)
    roots = [bdd.ref(build(bdd, expr)) for expr in expr_list]

    def semantics(root):
        return bdd.satcount(root, NUM_VARS), truth_table(bdd, root)

    run_steps(bdd, roots, plan, semantics)


@settings(max_examples=80, deadline=None)
@given(st.lists(families, min_size=1, max_size=3), steps)
def test_zdd_swaps_keep_families_tables_and_deltas(fams, plan):
    zdd = ZDD(var_names=NAMES)
    roots = [zdd.ref(zdd.from_sets(fam)) for fam in fams]

    def semantics(root):
        return frozenset(zdd.to_sets(root))

    run_steps(zdd, roots, plan, semantics)
    for root, fam in zip(roots, fams):
        assert zdd.count(root) == len(fam)


def test_swap_returns_growth_and_shrink():
    """A hand-checked pair: f = a & c | b needs four internal nodes
    under the order a, b, c and three under a, c, b."""
    bdd = BDD(var_names=["a", "b", "c"])
    f = bdd.ref(bdd.apply_or(bdd.apply_and(bdd.var_node("a"),
                                           bdd.var_node("c")),
                             bdd.var_node("b")))
    bdd.collect_garbage()
    assert bdd.live_nodes() == 2 + 4
    assert bdd.swap_levels(1) == -1
    assert bdd.live_nodes() == 2 + 3
    assert bdd.swap_levels(1) == +1
    assert bdd.live_nodes() == 2 + 4
    assert bdd.satcount(f, 3) == 5
