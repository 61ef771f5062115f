"""Property suite for the complement-edge negation identities.

With complement edges, negation is a bit flip and the classic boolean
identities must hold *structurally* (edge equality, not just semantic
equivalence) — and they must keep holding across every lifecycle event
that rewrites nodes in place: garbage collection, ``set_order`` and a
sifting pass.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.bdd import BDD, ONE, ZERO
from repro.dd.reorder import sift

NUM_VARS = 5
NAMES = [f"v{i}" for i in range(NUM_VARS)]


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

    return st.recursive(leaves, extend, max_leaves=10)


def build_bdd(bdd, expr):
    tag = expr[0]
    if tag == "var":
        return bdd.var_node(expr[1])
    if tag == "const":
        return ONE if expr[1] else ZERO
    if tag == "not":
        return bdd.apply_not(build_bdd(bdd, expr[1]))
    if tag == "and":
        return bdd.apply_and(build_bdd(bdd, expr[1]), build_bdd(bdd, expr[2]))
    if tag == "or":
        return bdd.apply_or(build_bdd(bdd, expr[1]), build_bdd(bdd, expr[2]))
    if tag == "xor":
        return bdd.apply_xor(build_bdd(bdd, expr[1]), build_bdd(bdd, expr[2]))
    raise AssertionError(tag)


def check_identities(bdd, f, g, qvars):
    """The negation identities, asserted structurally on edges."""
    # Double negation is the literal identity on edges.
    assert bdd.apply_not(bdd.apply_not(f)) == f
    # De Morgan, both directions.
    assert (bdd.apply_not(bdd.apply_and(f, g))
            == bdd.apply_or(bdd.apply_not(f), bdd.apply_not(g)))
    assert (bdd.apply_not(bdd.apply_or(f, g))
            == bdd.apply_and(bdd.apply_not(f), bdd.apply_not(g)))
    # Complement laws.
    assert bdd.apply_and(f, bdd.apply_not(f)) == ZERO
    assert bdd.apply_or(f, bdd.apply_not(f)) == ONE
    # Universal quantification is the double-negated existential.
    assert (bdd.forall(f, qvars)
            == bdd.apply_not(bdd.exists(bdd.apply_not(f), qvars)))


STAGES = ["fresh", "gc", "set_order", "sift"]


@settings(max_examples=60, deadline=None)
@given(exprs(), exprs(),
       st.sets(st.integers(min_value=0, max_value=NUM_VARS - 1),
               min_size=1, max_size=3),
       st.permutations(list(range(NUM_VARS))),
       st.sampled_from(STAGES))
def test_negation_identities_survive_lifecycle(left, right, variables,
                                               order, stage):
    bdd = BDD(var_names=NAMES)
    f = bdd.ref(build_bdd(bdd, left))
    g = bdd.ref(build_bdd(bdd, right))
    check_identities(bdd, f, g, variables)
    if stage == "gc":
        bdd.collect_garbage()
    elif stage == "set_order":
        bdd.set_order(order)
    elif stage == "sift":
        sift(bdd)
    bdd.assert_consistent()
    check_identities(bdd, f, g, variables)


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_negation_shares_the_dag(expr):
    """f and NOT f are one DAG: same regular edge, same node count."""
    bdd = BDD(var_names=NAMES)
    f = build_bdd(bdd, expr)
    nf = bdd.apply_not(f)
    assert nf == f ^ 1
    assert bdd.regular(f) == bdd.regular(nf)
    assert bdd.size(f) == bdd.size(nf)


@settings(max_examples=60, deadline=None)
@given(exprs())
def test_apply_not_allocates_nothing(expr):
    """O(1) negation: no new nodes, no cache traffic, no frees."""
    bdd = BDD(var_names=NAMES)
    f = build_bdd(bdd, expr)
    nodes_before = len(bdd._var)
    free_before = len(bdd._free)
    cache_before = len(bdd._cache)
    nf = bdd.apply_not(f)
    assert len(bdd._var) == nodes_before
    assert len(bdd._free) == free_before
    assert len(bdd._cache) == cache_before
    assert bdd.apply_not(nf) == f


@settings(max_examples=40, deadline=None)
@given(exprs(), exprs())
def test_negation_semantics_brute_force(left, right):
    """Semantic cross-check of the canonicalised caches: OR through the
    AND cache, diff and xor under complement factoring."""
    def eval_expr(expr, env):
        tag = expr[0]
        if tag == "var":
            return env[expr[1]]
        if tag == "const":
            return expr[1]
        if tag == "not":
            return not eval_expr(expr[1], env)
        if tag == "and":
            return eval_expr(expr[1], env) and eval_expr(expr[2], env)
        if tag == "or":
            return eval_expr(expr[1], env) or eval_expr(expr[2], env)
        if tag == "xor":
            return eval_expr(expr[1], env) != eval_expr(expr[2], env)
        raise AssertionError(tag)

    bdd = BDD(var_names=NAMES)
    f = build_bdd(bdd, left)
    g = build_bdd(bdd, right)
    both_or = bdd.apply_or(f, g)
    both_diff = bdd.apply_diff(f, g)
    both_xor = bdd.apply_xor(f, g)
    for values in itertools.product([False, True], repeat=NUM_VARS):
        env = dict(enumerate(values))
        lv, rv = eval_expr(left, env), eval_expr(right, env)
        assert bdd.eval_node(both_or, env) == (lv or rv)
        assert bdd.eval_node(both_diff, env) == (lv and not rv)
        assert bdd.eval_node(both_xor, env) == (lv != rv)
