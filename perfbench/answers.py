"""The answer table: what every benchmark instance must report.

Each entry holds the reachable-marking count, whether a reachable
deadlock exists, whether the initial marking is a home marking (it can
be reached again from every reachable marking) and the live transition
set (transitions enabled in at least one reachable marking).  Every
entry comes from the explicit :class:`~repro.petri.ReachabilityGraph`,
and the muller counts are also checked against the closed form
:func:`~repro.petri.generators.muller_marking_count`; no symbolic
engine is involved, so the table is an independent oracle for the
benchmark's answers.

Regenerate ``answers.json`` after changing an instance list::

    python3 perfbench/answers.py --write
"""

from __future__ import annotations

import json
import os
import sys
from collections import deque
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ANSWERS_PATH = os.path.join(HERE, "answers.json")


def build_net(name: str):
    """The net an instance name denotes (``phil-6``, ``jjreg-a-4``, ...)."""
    from repro.petri.generators import (dme_spec, jj_register, muller,
                                        philosophers, slotted_ring)
    family, _, size = name.rpartition("-")
    families = {"phil": philosophers, "slot": slotted_ring,
                "muller": muller, "dmespec": dme_spec,
                "jjreg-a": lambda bits: jj_register("a", bits=bits)}
    if family not in families:
        raise ValueError(f"unknown instance family in {name!r}")
    return families[family](int(size))


def derive(name: str) -> Dict:
    """One table entry from the explicit reachability graph."""
    from repro.petri import ReachabilityGraph
    from repro.petri.generators import muller_marking_count

    net = build_net(name)
    graph = ReachabilityGraph(net)
    count = len(graph)
    if name.startswith("muller-"):
        closed = muller_marking_count(int(name.rpartition("-")[2]))
        if closed != count:
            raise AssertionError(f"{name}: explicit count {count} != "
                                 f"closed form {closed}")
    predecessors: List[List[int]] = [[] for _ in range(count)]
    for src, _trans, dst in graph.edges:
        predecessors[dst].append(src)
    # The initial marking is a home marking iff a backward search from
    # it reaches every reachable marking.
    seen = {0}
    queue = deque([0])
    while queue:
        for src in predecessors[queue.popleft()]:
            if src not in seen:
                seen.add(src)
                queue.append(src)
    return {
        "markings": count,
        "deadlock": bool(graph.deadlocks()),
        "home": len(seen) == count,
        "live": sorted({trans for _src, trans, _dst in graph.edges}),
        "transitions": len(net.transitions),
    }


def load() -> Dict[str, Dict]:
    with open(ANSWERS_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from workloads import all_instances

    if sys.argv[1:] != ["--write"]:
        print("usage: python3 perfbench/answers.py --write", file=sys.stderr)
        return 2
    table = {name: derive(name) for name in sorted(all_instances())}
    with open(ANSWERS_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(table)} entries to {ANSWERS_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
