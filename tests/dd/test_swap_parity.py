"""Sifting decisions pinned to the call-per-node swap formulation.

The fused swap kernel allocates and frees node ids in exactly the order
the recursive ``_mk`` / ``_deref_cascade`` swap did, and sifting follows
sizes by delta instead of re-counting the tables; neither may change a
single sifting decision.  Each row below was measured with that earlier
formulation through ``Analysis(net, spec).run()``: the marking count,
peak and final node counts, the number of reorders and a digest of the
final variable order must all stay identical.  The rows cover every
sifting caller: plain sifting (BDD functional), group sifting through
block exchanges (BDD relational) and the ZDD growth trigger.
"""

import hashlib

import pytest

from repro.analysis import Analysis, AnalysisSpec
from repro.petri.generators import (dme_spec, muller, philosophers,
                                    slotted_ring)

NETS = {"phil": philosophers, "slot": slotted_ring, "muller": muller,
        "dmespec": dme_spec}

# (net, spec fields, markings, peak, final, reorders, order digest)
ROWS = [
    ("phil-6", {}, 10054, 7455, 107, 3, "faa5d8d4005c"),
    ("slot-4", {}, 1328, 3889, 181, 4, "0f36c5486ab9"),
    ("muller-7", {}, 6006, 2704, 105, 6, "8620bfcc2ccf"),
    ("dmespec-4", {}, 756, 4984, 174, 2, "c27b6a8e9548"),
    ("slot-3", {"form": "relational"}, 224, 2553, 107, 2, "1de3f340e606"),
    ("muller-5", {"form": "relational"}, 420, 3439, 55, 2, "b8cab70f940f"),
    ("slot-3", {"backend": "zdd"}, 224, 1858, 122, 3, "da61e69d3c8c"),
    ("muller-5", {"backend": "zdd"}, 420, 1474, 91, 10, "aae5663be39a"),
]


def build_net(name):
    family, _, size = name.rpartition("-")
    return NETS[family](int(size))


def manager_of(analysis):
    symbolic_net = analysis.symbolic_net
    return getattr(symbolic_net, "bdd", None) or symbolic_net.zdd


@pytest.mark.parametrize(
    "name, fields, markings, peak, final, reorders, digest", ROWS,
    ids=[f"{row[0]}-{'-'.join(row[1].values()) or 'default'}"
         for row in ROWS])
def test_sifting_matches_the_pinned_run(name, fields, markings, peak, final,
                                        reorders, digest):
    analysis = Analysis(build_net(name), AnalysisSpec(**fields))
    result = analysis.run()
    manager = manager_of(analysis)
    order = hashlib.sha256(" ".join(manager.order()).encode())
    assert (result.markings, result.peak_nodes, result.final_nodes,
            result.reorder_count, order.hexdigest()[:12]) == (
        markings, peak, final, reorders, digest)
    # No doubling collection fires on these runs, so every collection
    # is a sifting pass's own: one per reorder, not a second one just
    # before the pass (which would double this count).
    assert manager.gc_count == result.reorder_count
    assert result.extras["reorder_seconds"] > 0.0
