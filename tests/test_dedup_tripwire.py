"""Duplication tripwire: the relational layer must stay unified.

PR 3 grew ``symbolic/zdd_relational.py`` into a near line-for-line copy
of ``symbolic/relational.py``'s clustering/partition/sweep machinery;
PR 5 collapsed both onto :mod:`repro.symbolic.partition`.  This test
fails CI if either encoding shim regrows its own copy of that logic —
the one place it may live is the shared layer.  The same holds for the
worker-process primitives, which live once in :mod:`repro.workers`.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# Methods/functions that must exist exactly once, in the shared layer.
SHARED_ONLY_DEFS = (
    "_auto_clusters",
    "_build_partition",
    "image_chained",
    "image_partitioned",
    "refresh_partitions",
    "cluster_by_support",
    "cluster_greedily",
    "validate_cluster_size",
)

# The encoding shims: allowed to *use* the shared layer, never to
# re-implement it.
SHIMS = (
    SRC / "symbolic" / "zdd_relational.py",
    SRC / "symbolic" / "relational.py",
    SRC / "symbolic" / "transition.py",
    SRC / "symbolic" / "zdd_traversal.py",
)


def definitions_in(path):
    text = path.read_text()
    return {match.group(1)
            for match in re.finditer(r"^\s*def\s+(\w+)\s*\(", text,
                                     re.MULTILINE)}


def test_shims_do_not_redefine_shared_clustering_logic():
    for shim in SHIMS:
        defined = definitions_in(shim)
        copies = sorted(set(SHARED_ONLY_DEFS) & defined)
        assert not copies, (
            f"{shim.relative_to(SRC)} regrew its own copy of shared "
            f"relational-layer logic: {copies}; extend "
            f"repro/symbolic/partition.py instead")


def test_shared_layer_defines_the_logic_exactly_once():
    shared = definitions_in(SRC / "symbolic" / "partition.py")
    missing = sorted(set(SHARED_ONLY_DEFS) - shared)
    assert not missing, (
        f"symbolic/partition.py lost shared definitions: {missing}")


def test_managers_share_the_kernel():
    """The reorder/GC machinery must live once, in repro.dd — neither
    manager file may carry its own swap/sift/GC implementation."""
    kernel_only = ("swap_levels", "collect_garbage", "set_order",
                   "checkpoint", "_free_node", "_deref_cascade")
    for manager_file in (SRC / "bdd" / "manager.py",
                         SRC / "bdd" / "zdd.py"):
        defined = definitions_in(manager_file)
        copies = sorted(set(kernel_only) & defined)
        assert not copies, (
            f"{manager_file.relative_to(SRC)} regrew kernel machinery: "
            f"{copies}; extend repro/dd/manager.py instead")


def test_swap_kernel_has_no_per_node_hook():
    """The level swap is one fused loop per edge flavour in
    repro/dd/manager.py; no module may regrow the per-node cofactor
    hook the swap used to call back into for every rewritten node."""
    banned = re.compile(r"^\s*def\s+_swap_cofactors\b", re.MULTILINE)
    for path in sorted(SRC.rglob("*.py")):
        assert banned.search(path.read_text()) is None, (
            f"{path.relative_to(SRC)} defines _swap_cofactors; the swap "
            f"kernel lives in repro/dd/manager.py")
    kernel = definitions_in(SRC / "dd" / "manager.py")
    assert {"_swap", "_swap_complement",
            "_swap_zero_suppressed"} <= kernel


def test_complement_edge_split_is_pinned():
    """The complement-edge representation belongs to the BDD manager
    alone: edges are ``(node << 1) | bit`` there, while the ZDD keeps
    plain node ids (a complemented ZDD edge has no zero-suppressed
    meaning — see docs/encodings.md).  A future PR flipping either side
    silently would corrupt every persisted dump and cross-manager
    bridge, so the split is pinned here."""
    from repro.bdd import BDD, ZDD
    from repro.dd import DDManager
    assert BDD._edge_shift == 1
    assert BDD.complement_edges is True
    assert ZDD._edge_shift == 0
    assert ZDD.complement_edges is False
    # The kernel default stays plain: new managers must opt in.
    assert DDManager._edge_shift == 0
    assert DDManager.complement_edges is False


def test_negation_lives_once_as_a_bit_flip():
    """With complement edges, negation is ``edge ^ 1`` inside
    ``BDD.apply_not`` — no module may regrow a recursive node-walking
    negation (the pre-complement implementation) beside it."""
    import re
    banned = re.compile(r"def\s+(_?recursive_not|_negate_rec|_not_rec)\b")
    for path in sorted(SRC.rglob("*.py")):
        match = banned.search(path.read_text())
        assert match is None, (
            f"{path.relative_to(SRC)} regrew a recursive negation "
            f"({match.group(1)}); negation is an O(1) bit flip in "
            f"BDD.apply_not")


# Process-harness pieces that must be defined only in repro/workers.py:
# every worker pool spawns, polls and reaps through that one module.
HARNESS_ONLY = {
    "multiprocessing.get_context": re.compile(r"\bget_context\b"),
    "def reap_processes": re.compile(r"^\s*def\s+reap_processes\b",
                                     re.MULTILINE),
    "POLL_INTERVAL =": re.compile(r"^\s*POLL_INTERVAL\s*[:=]",
                                  re.MULTILINE),
    "JOIN_TIMEOUT =": re.compile(r"^\s*JOIN_TIMEOUT\s*[:=]",
                                 re.MULTILINE),
    "DEAD_WORKER_GRACE_POLLS =": re.compile(
        r"^\s*DEAD_WORKER_GRACE_POLLS\s*[:=]", re.MULTILINE),
}


def test_process_harness_lives_once_in_workers():
    """A module that regrows its own start-method context, reaper or
    poll/grace/join constants is a hand-rolled worker harness; extend
    repro/workers.py instead."""
    home = SRC / "workers.py"
    text = home.read_text()
    missing = sorted(label for label, pattern in HARNESS_ONLY.items()
                     if not pattern.search(text))
    assert not missing, f"repro/workers.py lost {missing}"
    for path in sorted(SRC.rglob("*.py")):
        if path == home:
            continue
        text = path.read_text()
        copies = sorted(label for label, pattern in HARNESS_ONLY.items()
                        if pattern.search(text))
        assert not copies, (
            f"{path.relative_to(SRC)} regrew process-harness pieces "
            f"{copies}; use repro/workers.py instead")
