"""repro — efficient encoding schemes for symbolic analysis of Petri nets.

A from-scratch reproduction of Pastor & Cortadella, *Efficient Encoding
Schemes for Symbolic Analysis of Petri Nets* (DATE 1998): SMC-based dense
encodings of safe Petri-net markings, with the full stack they sit on —
a BDD package with dynamic reordering, a ZDD package, Petri-net structure
theory (P-invariants, State Machine Components), symbolic reachability
and model checking, and the paper's benchmark families.

Layer map (see DESIGN.md for the full inventory):

* :mod:`repro.dd` — the shared decision-diagram kernel (node tables,
  reference counting/GC, level swaps, sifting, reorder hooks) both
  managers are built on.
* :mod:`repro.bdd` — decision diagrams (BDD manager, sifting, ZDDs).
* :mod:`repro.petri` — nets, markings, invariants, SMCs, generators.
* :mod:`repro.encoding` — sparse / dense / improved encoding schemes.
* :mod:`repro.symbolic` — traversal engines and the model checker.
* :mod:`repro.analysis` — the unified ``analyze(net, spec)`` facade
  every entry point (CLI, experiments, examples) routes through.
* :mod:`repro.experiments` — Table 3 / Table 4 / Figure 2 harnesses.
* :mod:`repro.workers` — the process primitives the portfolio race and
  the analysis service's worker pool share.
"""

from .analysis import (Analysis, AnalysisResult, AnalysisSpec, SpecError,
                       SpecWarning, analyze)
from .bdd import BDD, Function, ZDD
from .encoding import DenseEncoding, ImprovedEncoding, SparseEncoding
from .petri import Marking, PetriNet, ReachabilityGraph, find_smcs
from .symbolic import (ModelChecker, SymbolicNet, ZddNet, traverse,
                       traverse_zdd)

__version__ = "1.0.0"

__all__ = [
    "BDD", "Function", "ZDD",
    "PetriNet", "Marking", "ReachabilityGraph", "find_smcs",
    "SparseEncoding", "DenseEncoding", "ImprovedEncoding",
    "SymbolicNet", "traverse", "ModelChecker", "ZddNet", "traverse_zdd",
    "AnalysisSpec", "AnalysisResult", "Analysis", "analyze",
    "SpecError", "SpecWarning",
    "__version__",
]
