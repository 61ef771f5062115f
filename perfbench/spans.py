"""Spans around the calls the benchmark makes into each layer.

A :class:`Tracer` patches the public callables listed in
:data:`HOOKS` where their callers look them up, records one span per
outermost call (name, start, end, parent span, task id) and restores
the originals on :meth:`Tracer.uninstall`.  Spans stay in memory until
the run ends; :meth:`Tracer.self_times` sums each span's duration minus
the time its direct children cover.

Worker processes forked after :meth:`Tracer.install` run the wrappers
too, but their spans stay in the worker: worker-side numbers come from
result payloads only.

``delays`` injects a ``time.sleep`` inside a named span, which is how
the gate self-tests prove that a slower layer shows up both in the
end-to-end metrics and in that layer's self time.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import time
from typing import Any, Callable, Dict, List, Optional, Tuple


def _gc_after(args, freed, _before) -> Dict[str, int]:
    # The safe point read live_nodes() just before collecting, so the
    # read after it cannot raise the manager's recorded peak.
    return {"freed": freed, "live_after": args[0].live_nodes()}


def _sift_before(args) -> int:
    return args[0].live_nodes()


def _sift_after(args, _result, before) -> Dict[str, int]:
    return {"live_before": before, "live_after": args[0].live_nodes()}


#: (module, attribute path, span name, before-probe, after-probe).  Each
#: name is patched where its caller looks it up: ``find_smcs`` is
#: imported by name into the SMC encodings, the backends call the
#: encoding and symbolic-net classes (whose ``__init__`` is patched),
#: and ``DDManager.checkpoint`` imports ``sift`` from
#: ``repro.dd.reorder`` at call time.  ``SolverSession._try_resume`` is
#: the checkpoint read, validation and wire-format load of a resume.
HOOKS: Tuple[Tuple[str, str, str, Optional[Callable],
                   Optional[Callable]], ...] = (
    ("repro.encoding.improved", "find_smcs", "petri.find_smcs",
     None, None),
    ("repro.encoding.dense", "find_smcs", "petri.find_smcs", None, None),
    ("repro.encoding", "ImprovedEncoding.__init__", "encoding.build",
     None, None),
    ("repro.encoding", "DenseEncoding.__init__", "encoding.build",
     None, None),
    ("repro.encoding", "SparseEncoding.__init__", "encoding.build",
     None, None),
    ("repro.symbolic.transition", "SymbolicNet.__init__",
     "symbolic.net_build", None, None),
    ("repro.symbolic.relational", "RelationalNet.__init__",
     "symbolic.net_build", None, None),
    ("repro.symbolic.zdd_relational", "ZddRelationalNet.__init__",
     "symbolic.net_build", None, None),
    ("repro.analysis.backends", "SolverSession.step", "symbolic.image",
     None, None),
    ("repro.analysis.backends", "SolverSession._try_resume",
     "analysis.resume", None, None),
    ("repro.dd.manager", "DDManager.checkpoint", "dd.safe_point",
     None, None),
    ("repro.dd.manager", "DDManager.collect_garbage", "dd.gc",
     None, _gc_after),
    ("repro.dd.reorder", "sift", "dd.reorder", _sift_before, _sift_after),
    ("repro.service.cache", "ResultCache.get", "service.cache.get",
     None, None),
    ("repro.service.cache", "ResultCache.put", "service.cache.put",
     None, None),
    ("repro.service.pool", "AnalysisWorkerPool.poll", "service.pool.wait",
     None, None),
)


class Tracer:
    """In-memory span recorder with install/uninstall of layer hooks."""

    def __init__(self, delays: Optional[Dict[str, float]] = None) -> None:
        self.delays = dict(delays or {})
        self.spans: List[Dict[str, Any]] = []
        self.task: Any = None
        self._stack: List[int] = []
        self._open: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # -- spans ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span; nested spans name it as their parent."""
        span_id = len(self.spans)
        record = {"id": span_id, "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "task": self.task, "start": time.perf_counter(),
                  "end": None}
        self.spans.append(record)
        self._stack.append(span_id)
        self._open[name] = self._open.get(name, 0) + 1
        try:
            delay = self.delays.get(name)
            if delay:
                time.sleep(delay)
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self._open[name] -= 1

    def _wrapper(self, original: Callable, name: str,
                 before: Optional[Callable],
                 after: Optional[Callable]) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if tracer._open.get(name):
                # Re-entrant call: only the outermost one is a span.
                return original(*args, **kwargs)
            with tracer.span(name) as record:
                state = before(args) if before is not None else None
                result = original(*args, **kwargs)
                if after is not None:
                    record["data"] = after(args, result, state)
                return result

        traced.__wrapped__ = original
        return traced

    # -- hooks ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            return
        for module_name, path, name, before, after in HOOKS:
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            own = attr in vars(owner)
            original = getattr(owner, attr)
            self._patches.append((owner, attr, original, own))
            setattr(owner, attr,
                    self._wrapper(original, name, before, after))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._patches):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches = []

    # -- summaries -----------------------------------------------------

    def self_times(self, spans: Optional[List[Dict]] = None
                   ) -> Dict[str, float]:
        """Span name -> total self time (duration minus direct
        children's durations)."""
        spans = self.spans if spans is None else spans
        child_time: Dict[int, float] = {}
        for span in spans:
            if span["parent"] is not None:
                child_time[span["parent"]] = (
                    child_time.get(span["parent"], 0.0)
                    + span["end"] - span["start"])
        totals: Dict[str, float] = {}
        for span in spans:
            own = (span["end"] - span["start"]
                   - child_time.get(span["id"], 0.0))
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def data(self, name: str, spans: Optional[List[Dict]] = None
             ) -> List[Dict]:
        """The probe payloads recorded on spans of one name."""
        spans = self.spans if spans is None else spans
        return [span["data"] for span in spans
                if span["name"] == name and "data" in span]

    def write_jsonl(self, path: str, header: Dict[str, Any]) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"header": header}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span, default=str) + "\n")


class NullTracer:
    """The untraced run's stand-in: spans cost one no-op context."""

    task: Any = None

    def span(self, _name: str):
        return contextlib.nullcontext()


def layer_self_times(self_times: Dict[str, float]) -> Dict[str, float]:
    """Self time summed per layer (the span name's first component)."""
    layers: Dict[str, float] = {}
    for name, seconds in self_times.items():
        layer = name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    return layers
