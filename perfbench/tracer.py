"""Outside-in layer tracing for the benchmark.

The tracer never edits the program: it replaces, for the duration of a
traced pass, the module-level names (and class attributes) through which
each layer is entered with thin wrappers that time every call.  Each
layer accumulates its self time (its span's duration minus the part its
child spans cover), its inclusive time and its call count.  Spans nest on
one in-process stack, so tracing needs the work to run in this process.

An entry point that no longer exists is skipped with a note, and its
layer reads 0, so a later change that removes a layer does not break the
benchmark.
"""

import functools
import time
from dataclasses import dataclass

import hampack.exposure
import hampack.matching
import hampack.merge
import hampack.pipeline
import hampack.runner

# layer name -> the (owner, attribute) pairs through which the layer is
# entered.  Owners are the modules (or classes) whose globals the caller
# looks the name up in, so a wrapped name is the one actually called.
LAYER_ENTRIES = {
    "pipeline.trial": [(hampack.pipeline, "full_pipeline"),
                       (hampack.runner, "full_pipeline")],
    "exposure.first": [(hampack.pipeline, "first_exposure")],
    "exposure.second": [(hampack.pipeline, "second_exposure")],
    "exposure.pool_init": [(hampack.pipeline, "init_available_edges")],
    "exposure.audit": [(hampack.pipeline, "coupling_audit")],
    "matching.r_factor": [(hampack.matching, "find_r_factor")],
    "matching.decompose": [(hampack.matching, "decompose_regular")],
    "graphs.digraph": [(hampack.pipeline, "bipartite_to_digraph"),
                       (hampack.pipeline, "Digraph")],
    "graphs.one_factor": [(hampack.pipeline, "matching_to_one_factor")],
    "pipeline.heaviness": [(hampack.pipeline, "_screen_heaviness")],
    "pipeline.json": [(hampack.pipeline.TrialReport, "json_bytes")],
    "merge.designation": [(hampack.pipeline, "choose_designated")],
    "merge.convert": [(hampack.pipeline, "convert_all")],
    "merge.opening_scan": [(hampack.exposure.AvailableEdgeSet, "edges_out_of")],
    "merge.closing_scan": [(hampack.exposure.AvailableEdgeSet, "edges_between")],
    "rotation.rotate": [(hampack.merge, "rotate_to_target")],
    "verify.verify": [(hampack.pipeline, "verify_packing")],
    "runner.run_trials": [(hampack.runner, "run_trials")],
    "runner.emit": [(hampack.runner, "emit")],
}


@dataclass
class LayerStats:
    self_s: float = 0.0
    total_s: float = 0.0
    calls: int = 0


class Tracer:
    """Wraps every layer entry while active; may be entered many times,
    and its statistics add up across them."""

    def __init__(self, entries: dict = LAYER_ENTRIES):
        self.stats = {layer: LayerStats() for layer in entries}
        self.notes: list[str] = []
        # one accumulator per open span: seconds covered by its children
        self._child_s: list[float] = []
        self._targets: list[tuple[object, str, object, object]] = []
        for layer, pairs in entries.items():
            for owner, attr in pairs:
                if attr not in vars(owner):
                    self.notes.append(f"{layer}: entry {owner.__name__}.{attr} "
                                      "not found, the layer reads 0")
                    continue
                original = vars(owner)[attr]
                self._targets.append((owner, attr, original,
                                      self._wrap(layer, original)))

    def _wrap(self, layer: str, fn):
        stats = self.stats[layer]
        child_s = self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_s.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                stats.self_s += took - child_s.pop()
                stats.total_s += took
                stats.calls += 1
                if child_s:
                    child_s[-1] += took
        return traced

    def __enter__(self):
        for owner, attr, _, wrapped in self._targets:
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc):
        for owner, attr, original, _ in self._targets:
            setattr(owner, attr, original)
        return False

    def self_seconds(self) -> float:
        """Seconds covered by any span, each counted once."""
        return sum(s.self_s for s in self.stats.values())
