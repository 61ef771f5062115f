"""Unit tests for the symbolic model checker."""

from collections import deque

import pytest

from repro.analysis import Analysis, AnalysisSpec
from repro.encoding import ImprovedEncoding, SparseEncoding
from repro.petri import Marking, ReachabilityGraph
from repro.petri.generators import (dme_circuit, dme_spec, figure1_net,
                                    figure4_net, jj_register, muller,
                                    philosophers, slotted_ring)
from repro.symbolic import ModelChecker, SymbolicNet


@pytest.fixture(scope="module")
def fig1():
    return ModelChecker(SymbolicNet(ImprovedEncoding(figure1_net())))


@pytest.fixture(scope="module")
def fig4():
    return ModelChecker(SymbolicNet(ImprovedEncoding(figure4_net())))


class TestReachability:
    def test_reachable_markings(self, fig1):
        assert fig1.is_reachable(Marking(["p1"]))
        assert fig1.is_reachable(Marking(["p6", "p7"]))

    def test_unreachable_marking(self, fig1):
        assert not fig1.is_reachable(Marking(["p2", "p5"]))

    def test_marking_count(self, fig1, fig4):
        assert fig1.marking_count() == 8
        assert fig4.marking_count() == 22


class TestDeadlocks:
    def test_figure1_deadlock_free(self, fig1):
        report = fig1.find_deadlocks()
        assert not report
        assert report.witness is None

    def test_figure4_deadlocks_found(self, fig4):
        report = fig4.find_deadlocks()
        assert report
        assert "2 deadlocked" in report.detail
        witness = report.witness
        # The witness is a real deadlock: both philosophers hold one fork.
        assert witness is not None
        assert (witness.support >= {"p6", "p12"}
                or witness.support >= {"p7", "p13"})

    def test_muller_deadlock_free(self):
        checker = ModelChecker(SymbolicNet(ImprovedEncoding(muller(3))))
        assert not checker.find_deadlocks()


class TestMutualExclusion:
    def test_smc_places_are_exclusive(self, fig1):
        """Places of one SMC can never be marked together (Theorem 2.1)."""
        assert fig1.check_mutual_exclusion(["p1", "p2", "p4", "p6"])

    def test_concurrent_places_are_not_exclusive(self, fig1):
        report = fig1.check_mutual_exclusion(["p2", "p3"])
        assert not report
        assert report.witness == Marking(["p2", "p3"])

    def test_dme_critical_sections_exclusive(self):
        net = dme_spec(3)
        checker = ModelChecker(SymbolicNet(ImprovedEncoding(net)))
        critical = [f"c{i}_uc" for i in range(3)]
        assert checker.check_mutual_exclusion(critical)


class TestInvariants:
    def test_tautological_invariant(self, fig1):
        from repro.bdd import true
        assert fig1.check_invariant(true(fig1.symnet.bdd))

    def test_place_invariant(self, fig1):
        """p1 or p6 or ... : one place of SM1 is always marked."""
        pred = (fig1.place_predicate("p1") | fig1.place_predicate("p2")
                | fig1.place_predicate("p4") | fig1.place_predicate("p6"))
        assert fig1.check_invariant(pred)

    def test_violated_invariant_gives_witness(self, fig1):
        report = fig1.check_invariant(~fig1.place_predicate("p1"))
        assert not report
        assert report.witness == Marking(["p1"])


class TestCtl:
    def test_ef_from_initial(self, fig1):
        """EF(p6 & p7) holds at the initial marking."""
        target = fig1.place_predicate("p6") & fig1.place_predicate("p7")
        ef = fig1.ef(target)
        assert not (ef & fig1.symnet.initial).is_zero()

    def test_ef_of_unreachable_is_empty(self, fig1):
        bad = fig1.place_predicate("p2") & fig1.place_predicate("p5")
        assert fig1.ef(bad).is_zero()

    def test_ag_of_reachable_true(self, fig1):
        from repro.bdd import true
        assert fig1.ag(true(fig1.symnet.bdd)) == fig1.reachable

    def test_home_marking(self, fig1):
        """Figure 1's initial marking is a home marking (AG EF M0)."""
        assert fig1.can_always_recover(fig1.symnet.initial)

    def test_figure4_cannot_always_recover(self, fig4):
        """Deadlocks make the initial marking non-home."""
        report = fig4.can_always_recover(fig4.symnet.initial)
        assert not report
        assert report.witness is not None

    def test_live_transitions(self, fig1):
        assert fig1.live_transitions() == list(
            fig1.symnet.net.transitions)

    def test_enabled_predicate(self, fig1):
        enabled = fig1.enabled_predicate("t1")
        assert not (enabled & fig1.symnet.initial).is_zero()


class TestPrecomputedReachable:
    def test_reuse_reachable_set(self):
        symnet = SymbolicNet(SparseEncoding(slotted_ring(2)))
        from repro.symbolic import traverse
        reached = traverse(symnet).reachable
        checker = ModelChecker(symnet, reachable=reached)
        assert checker.marking_count() == 40

    def test_checker_without_reachable_matches_bfs(self):
        """Built without a reachable set, the checker traverses with the
        default chained support-order schedule; the set is canonical,
        so it is the same BDD edge the BFS schedule yields."""
        from repro.symbolic import traverse
        symnet = SymbolicNet(ImprovedEncoding(muller(4)))
        checker = ModelChecker(symnet)
        assert checker.reachable == traverse(symnet).reachable


# ---------------------------------------------------------------------------
# Differential oracle: EF / AG / AG EF against a backward search on the
# explicit reachability graph, compared as marking sets.

ORACLE_NETS = {
    "figure1": figure1_net,
    "figure4": figure4_net,
    "phil3": lambda: philosophers(3),
    "slot2": lambda: slotted_ring(2),
    "muller3": lambda: muller(3),
    "dme2": lambda: dme_spec(2),
    "dmecir2": lambda: dme_circuit(2, wire_depth=1),
    "jjreg-a2": lambda: jj_register("a", bits=2),
}
LARGE_ORACLE_NETS = {
    "phil6": lambda: philosophers(6),
    "muller7": lambda: muller(7),
    "dmespec4": lambda: dme_spec(4),
}


def predecessor_lists(graph):
    predecessors = [[] for _ in graph.markings]
    for src, _, dst in graph.edges:
        predecessors[dst].append(src)
    return predecessors


def backward_depths(predecessors, targets):
    """Shortest distance to ``targets`` of every graph marking that can
    reach them, by index (explicit EF, with BFS depths)."""
    depth = dict.fromkeys(targets, 0)
    queue = deque(depth)
    while queue:
        node = queue.popleft()
        for pred in predecessors[node]:
            if pred not in depth:
                depth[pred] = depth[node] + 1
                queue.append(pred)
    return depth


def backward_closure(predecessors, targets):
    return set(backward_depths(predecessors, targets))


class _Oracle:
    """A net's explicit graph next to a checker over the default
    ``Analysis`` path (improved encoding, toggle images, sifting on)."""

    def __init__(self, net):
        self.graph = ReachabilityGraph(net, max_markings=200_000)
        self.predecessors = predecessor_lists(self.graph)
        self.everything = set(range(len(self.graph.markings)))
        self.checker = Analysis(net, AnalysisSpec()).checker()
        self.symnet = self.checker.symnet

    def supports(self, indices):
        return {self.graph.markings[i].support for i in indices}

    def decoded(self, states):
        return {m.support for m in self.symnet.markings_of(states)}

    def indices_where(self, holds):
        return {i for i, m in enumerate(self.graph.markings) if holds(m)}

    def targets(self):
        """(label, symbolic predicate, explicit index set) triples: the
        initial marking, the deadlocks and a spread of single places."""
        dead = {self.graph.index[m] for m in self.graph.deadlocks()}
        yield "initial", self.symnet.initial, {0}
        yield "deadlock", self.symnet.deadlock_condition(), dead
        places = sorted(self.symnet.places)
        for place in places[::max(1, len(places) // 4)]:
            yield (place, self.symnet.places[place],
                   self.indices_where(lambda m, p=place: m[p] > 0))


def check_against_oracle(net):
    oracle = _Oracle(net)
    checker = oracle.checker
    for label, predicate, explicit in oracle.targets():
        can_reach = backward_closure(oracle.predecessors, explicit)
        assert oracle.decoded(checker.ef(predicate)) == \
            oracle.supports(can_reach), ("EF", label)
        # AG p is the complement of EF(not p) within the reachable set.
        invariant = oracle.everything - backward_closure(
            oracle.predecessors, oracle.everything - explicit)
        assert oracle.decoded(checker.ag(predicate)) == \
            oracle.supports(invariant), ("AG", label)
        assert oracle.decoded(checker.ag(~predicate)) == \
            oracle.supports(oracle.everything - can_reach), ("AG not", label)

    home = backward_closure(oracle.predecessors, {0})
    report = checker.can_always_recover(oracle.symnet.initial)
    assert report.holds == (home == oracle.everything)
    if report.holds:
        assert report.witness is None
    else:
        # The witness is reachable and really cannot get back to m0.
        assert report.witness in oracle.graph
        assert oracle.graph.index[report.witness] not in home


@pytest.mark.parametrize("name", sorted(ORACLE_NETS))
def test_checker_matches_explicit_oracle(name):
    check_against_oracle(ORACLE_NETS[name]())


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(LARGE_ORACLE_NETS))
def test_checker_matches_explicit_oracle_large(name):
    check_against_oracle(LARGE_ORACLE_NETS[name]())


def test_home_query_preimage_calls_beat_bfs(monkeypatch):
    """Tripwire for the chained backward sweep.

    A synchronous BFS backward fixpoint preimages every transition once
    per round, i.e. ``|T| x depth`` calls, where ``depth`` is the
    longest shortest path back to m0 (46 rounds x 28 transitions = 1288
    on muller-7).  The chained sweep closes predecessor chains within a
    sweep and needs far fewer; at most half of the BFS figure is
    asserted.
    """
    net = muller(7)
    graph = ReachabilityGraph(net)
    depth = backward_depths(predecessor_lists(graph), [0])
    assert len(depth) == len(graph)
    bfs_calls = len(net.transitions) * max(depth.values())

    checker = ModelChecker(SymbolicNet(ImprovedEncoding(net)))
    calls = []
    preimage = SymbolicNet.preimage

    def counting(self, states, transition):
        calls.append(transition)
        return preimage(self, states, transition)

    monkeypatch.setattr(SymbolicNet, "preimage", counting)
    assert checker.can_always_recover(checker.symnet.initial)
    assert 0 < len(calls) <= bfs_calls // 2, (len(calls), bfs_calls)
